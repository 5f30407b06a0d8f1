"""The host-speed reference that the benchmark's times are scaled by.

The benchmark shares a few cores of a host with other work. How fast those
cores run Python changes by up to a factor of 1.7, for all code at once, in
stretches of a few seconds to minutes: one pass of the same nine solves took
16.3 s in one set of runs and 9.4 s in another. No statistic over a
40-second run removes that. So the run also times a reference: one pinned
solve on ``refpack``, a frozen snapshot of tupack's solver that no later
change touches. It runs the same mix of small numpy kernels and Python
objects as the code under test, so it slows down with it. The reference is
timed every 0.4 s through the workload, in the middle of long jobs too, and
each job's time is multiplied by
``REF_NOMINAL_S / mean(times of the probes within WINDOW_S of the job)``:
seconds on a host that runs the reference solve in ``REF_NOMINAL_S``. Set-up time is scaled by the
probes taken between its samples.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

from refpack import generator, search
from refpack.lowerbound import DemandPoint

# The first acceptance demand (1.04 m3, 2108 kg) on scheme 3, as c6_000_s3 of
# solve-corpus: 24 boxes in 2 TUs, about 0.08 s. Short, so that probes can
# come often and follow the host's changes of speed, which last seconds.
REF_DEMAND = DemandPoint(1.04, 2108)
REF_SCHEME = 3
REF_SEED = 500
REF_NOMINAL_S = 0.08
# Probes within this much job time before and after a job scale its time:
# the host changes speed within seconds, so the nearest probes fit it best.
# With a probe every 0.4 s, at least two fall in the window.
WINDOW_S = 0.5


class SpeedProbe:
    """Times the reference solve, also in the middle of a workload's job.

    ``solve`` and ``clock`` default to the reference solve and
    ``time.perf_counter``; tests pass fakes.
    """

    def __init__(self, solve=None, clock=time.perf_counter):
        self.solve = solve or reference_solve()
        self.clock = clock
        self.samples: list[float] = []
        self.stamps: list[float] = []  # job-clock time of each sample
        self.busy_s = 0.0  # total time spent in probes
        self.solve()  # warm-up: fills the snapshot's caches

    def __call__(self) -> float:
        """Time one reference solve now and keep the sample."""
        # The cyclic collector would walk the workload's live objects too, and
        # tie the reference's time to the memory of the code under test.
        gc.disable()
        try:
            t = self.clock()
            self.solve()
            took = self.clock() - t
        finally:
            gc.enable()
        self.stamps.append(self.job_clock())
        self.samples.append(took)
        self.busy_s += took
        return took

    def job_clock(self) -> float:
        """A clock that stands still while a probe runs."""
        return self.clock() - self.busy_s

    def job_factors(self, spans, first: int) -> list[float]:
        """The factor of each job's time: from the samples from index
        ``first`` on that lie within ``WINDOW_S`` of its (start, end) span on
        the job clock, or from all of them if none does."""
        stamps, samples = self.stamps[first:], self.samples[first:]
        out = []
        for start, end in spans:
            near = [s for t, s in zip(stamps, samples)
                    if start - WINDOW_S <= t <= end + WINDOW_S]
            out.append(factor(near or samples))
        return out

    @contextlib.contextmanager
    def every(self, seconds: float):
        """Probe now, and then whenever ``seconds`` pass outside a probe.

        A real-time timer signal runs the probe, so it also lands in the
        middle of a long job: its samples spread over the job's whole time.
        Python runs the handler between two bytecodes of the main thread, and
        the snapshot shares no state with the code it interrupts.
        """
        def fire(signum, frame):
            self()
            signal.setitimer(signal.ITIMER_REAL, seconds)

        self()
        previous = signal.signal(signal.SIGALRM, fire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def reference_solve():
    """The pinned reference solve, ready to run."""
    instance, _ = generator.generate_instance(
        REF_DEMAND, REF_SCHEME, name="speed_ref", seed=REF_SEED)
    params = search.SearchParams(omega=95.0, seed=0)
    return lambda: search.solve(instance, search=params)


def factor(probe_s: list[float]) -> float:
    """Multiplier that turns seconds measured among these probes into
    seconds on a host of the reference speed.

    The mean, not the median: the host flips between speeds every few
    seconds, and a job's time adds up whatever share of it ran slow, which
    the mean of probes spread over the same time estimates."""
    return REF_NOMINAL_S / statistics.fmean(probe_s)

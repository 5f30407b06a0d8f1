"""The pinned workloads, the work of one instance, and its output check.

Every workload is a fixed list of jobs in a canonical order. Building the
list is the workload's set-up; running every job once is one pass. The
instances never depend on the benchmark seed, so the quality numbers and the
fingerprint are identities of the code under test.

All tupack functions are looked up on their modules at call time, so the
tracer's wrappers see the calls made from here.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from tupack import fileio, generator, geometry, packer, search
from tupack.lowerbound import DemandPoint

OMEGA = 95.0
PROBE_EVERY_S = 0.4  # between two calls of run_pass's probe


@dataclass(frozen=True)
class SolveJob:
    """Full iterated local search on a pre-built instance."""

    name: str
    instance: generator.Instance
    search_seed: int

    def run(self):
        inst = self.instance
        params = search.SearchParams(omega=OMEGA, seed=self.search_seed)
        sol = search.solve(inst, search=params)
        return inst, sol, fileio.dump_solution(sol, inst.name, inst.objective)


@dataclass(frozen=True)
class ConstructJob:
    """Generate an instance, round-trip it through the text format, and pack
    it with the constructive packer alone (no local search)."""

    name: str
    demand: DemandPoint
    scheme: int
    seed: int

    def run(self):
        inst, _ = generator.generate_instance(
            self.demand, self.scheme, name=self.name, seed=self.seed)
        inst = fileio.parse_instance(fileio.dump_instance(inst))
        sol = search.initialize(
            inst, search.TypePointer(inst.catalog), packer.CostParams(), packer.SortParams())
        return inst, sol, fileio.dump_solution(sol, inst.name, inst.objective)


def acceptance_demands(count: int) -> list[tuple[float, int]]:
    """The demand points of the acceptance batch (``_batch_demands`` in
    tests/test_acceptance.py), first ``count`` of them."""
    rng = random.Random(2026)
    return [(round(rng.uniform(0.8, 2.8), 2), rng.randint(50, 2400)) for _ in range(count)]


def build_solve_large() -> list[SolveJob]:
    jobs = []
    for name, demand in (("large133_s2", DemandPoint(2.5, 900)),
                         ("large305_s2", DemandPoint(5, 1579))):
        inst, _ = generator.generate_instance(demand, 2, name=name, seed=7)
        jobs.append(SolveJob(name, inst, 1))
    return jobs


CORPUS_DEMANDS = 2


def build_solve_corpus() -> list[SolveJob]:
    jobs = []
    for i, (v, w) in enumerate(acceptance_demands(CORPUS_DEMANDS)):
        for scheme in (1, 2, 3):
            name = f"c6_{i:03d}_s{scheme}"
            inst, _ = generator.generate_instance(
                DemandPoint(v, w), scheme, name=name, seed=500 + i)
            jobs.append(SolveJob(name, inst, i))
    return jobs


SCHEME1_ROWS = range(2, 101, 12)  # 1-based built-in rows 2, 14, ..., 98
SCHEME3_ROWS = range(1, 101)


def build_construct_generate() -> list[ConstructJob]:
    """Built-in rows named and seeded as ``tupack generate --builtin --seed 0``."""
    jobs = []
    for scheme, rows in ((1, SCHEME1_ROWS), (3, SCHEME3_ROWS)):
        for row in rows:
            v, w = generator.BUILTIN_DEMANDS[row - 1]
            name = f"gen{row:03d}_s{scheme}"
            jobs.append(ConstructJob(name, DemandPoint(v, w), scheme, row))
    return jobs


WORKLOADS: dict[str, Callable[[], list]] = {
    "solve-large": build_solve_large,
    "solve-corpus": build_solve_corpus,
    "construct-generate": build_construct_generate,
}


def check_output(inst, text: str) -> list[str]:
    """Problems with one written solution; empty when it is correct.

    The file is parsed back against its instance. Every TU must be non-empty
    and pass ``validate_tu``, the box ids must be an exact partition of the
    instance's boxes, and the recorded fitness must equal a recomputation.
    """
    sol, name, recorded = fileio.parse_solution(text, inst)
    problems = []
    if name != inst.name:
        problems.append(f"solution names instance {name!r}")
    if Counter(sol.box_ids()) != Counter(b.id for b in inst.boxes):
        problems.append("box ids are not an exact partition of the instance")
    for ti, tu in enumerate(sol.tus):
        if not tu.placements:
            problems.append(f"TU {ti} is empty")
        problems.extend(f"TU {ti}: {v.kind} {v.box_ids}: {v.detail}"
                        for v in geometry.validate_tu(tu))
    if not math.isclose(geometry.fitness(sol, inst.objective), recorded, rel_tol=1e-9):
        problems.append(f"recorded fitness {recorded!r} does not match the layout")
    return problems


@dataclass(frozen=True)
class Quality:
    """Solution quality of one instance against its recorded lower bound."""

    fitness: float
    volume_l: float
    lb_volume_l: float
    tus: int
    lb_tus: int

    @property
    def gap_pct(self) -> float:
        return 100.0 * (self.volume_l - self.lb_volume_l) / self.lb_volume_l

    @property
    def optimum(self) -> bool:
        # volume, not type counts: see "Known defects" in README.md
        return self.volume_l <= self.lb_volume_l


def quality(inst, sol) -> Quality:
    return Quality(
        fitness=geometry.fitness(sol, inst.objective),
        volume_l=sol.total_volume_liters(),
        lb_volume_l=inst.lb_volume_liters(),
        tus=len(sol.tus),
        lb_tus=inst.lower_bound.total_tus(),
    )


@dataclass
class PassResult:
    """One pass over a workload's jobs; lists are in canonical job order."""

    wall_s: float
    times: list[float]
    boxes: int  # boxes in the instances the pass packed
    texts: list = field(default_factory=list)  # written solution, None when failed
    qualities: list = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)  # speed probes taken during the pass
    scaled: list[float] = field(default_factory=list)  # times at the reference speed

    @property
    def failed(self) -> int:
        return sum(t is None for t in self.texts)


def run_pass(jobs, order, tracer=None, probe=None) -> PassResult:
    """Run every job once in ``order``, then check and score the outputs.

    Only the jobs are timed, and only they run under ``tracer`` when one is
    given. ``probe``, when given, is a ``speed.SpeedProbe``: it times the
    host's speed before the first job and then about once per
    ``PROBE_EVERY_S``, in the middle of a job too; its time is taken out of
    the job's, and the probes near a job scale its time to the reference
    speed. A job that raises or writes a wrong solution is recorded as
    a failure; the pass goes on.
    """
    n = len(jobs)
    times = [0.0] * n
    outputs = [None] * n
    spans = [(0.0, 0.0)] * n
    first_probe = 0 if probe is None else len(probe.samples)
    clock = time.perf_counter if probe is None else probe.job_clock
    pacing = contextlib.nullcontext() if probe is None else probe.every(PROBE_EVERY_S)
    with tracer or contextlib.nullcontext(), pacing:
        for i in order:
            t = clock()
            try:
                outputs[i] = jobs[i].run()
            except Exception:
                outputs[i] = traceback.format_exc()
            spans[i] = (t, clock())
            times[i] = spans[i][1] - t
    if probe is None:
        probe_s, scaled = [], times
    else:
        probe_s = probe.samples[first_probe:]
        factors = probe.job_factors(spans, first_probe)
        scaled = [t * f for t, f in zip(times, factors)]

    result = PassResult(sum(times), times, 0, [None] * n, [None] * n,
                        probe_s=probe_s, scaled=scaled)
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        if isinstance(out, str):
            result.failures.append(f"{job.name}: raised\n{out}")
            continue
        inst, sol, text = out
        result.boxes += len(inst.boxes)
        try:
            problems = check_output(inst, text)
        except Exception:
            problems = [f"check raised\n{traceback.format_exc()}"]
        if problems:
            result.failures.append(f"{job.name}: " + "; ".join(problems))
            continue
        result.texts[i] = text
        result.qualities[i] = quality(inst, sol)
    return result


def fingerprint(texts) -> str:
    """SHA-256 over the written solutions in canonical job order."""
    h = hashlib.sha256()
    for text in texts:
        h.update(b"\0" if text is None else text.encode())
    return h.hexdigest()

"""tupack benchmark: solve time and packing quality on pinned workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; tupack is imported from the checkout's ``src``. The
workload runs as a closed loop in this one process, one instance at a time,
in an order drawn from ``--seed``. A pass runs every instance of the workload
once; passes repeat while the run, set-up included, still ends within
``--seconds`` (at least one runs). Every written solution is checked. An untraced run also times a
pinned reference solve between the jobs and scales every time it reports to
the reference speed (see speed.py). With ``--trace 1`` the run makes one
untraced pass, then one pass with every layer wrapped, and reports the
per-layer metrics plus the tracing overhead.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is the run record (versions,
fingerprint, per-instance quality). See README.md for the workloads and the
meaning of each metric.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve-large", "solve-corpus", "construct-generate")
SETUP_SAMPLES = 9


def quality_metrics(qualities) -> dict:
    ok = [q for q in qualities if q is not None]
    if not ok:
        return {}
    return {
        "gap_pct_mean": statistics.fmean(q.gap_pct for q in ok),
        "tu_count": sum(q.tus for q in ok),
        "optimum_misses": sum(not q.optimum for q in ok),
        "fitness_sum": sum(q.fitness for q in ok),
    }


QUALITY_UNITS = {"gap_pct_mean": "%", "tu_count": "TUs", "optimum_misses": "count",
                 "fitness_sum": "L"}


def measure_setup(workload: str, probe) -> tuple[list[float], list[float]]:
    """Set-up time of fresh interpreters: imports plus building the inputs.

    Returns the samples and the host-speed probes taken between them."""
    samples, probe_s = [], [probe()]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
        probe_s.append(probe())
    return samples, probe_s


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_sha() -> str:
    """SHA-256 over tupack's sources; identifies the code in any checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "tupack").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0, help="orders the instances within a pass")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="with --trace 1, write the spans here as JSON lines")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up time and exit")
    return p.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def instance_times(passes, scaled=True) -> list[float]:
    """Each instance's median time over the passes, in canonical order."""
    return [statistics.median(ts)
            for ts in zip(*(p.scaled if scaled else p.times for p in passes))]


def end_to_end_metrics(passes, setup_samples, setup_factor, rss_mb) -> dict:
    """Timing and memory metrics of an untraced run; quality is added apart.

    Job times are the passes' scaled ones, and set-up time is scaled by
    ``setup_factor``: seconds on a host of the reference speed (speed.py)."""
    wall = statistics.median(sum(p.scaled) for p in passes)
    return {
        "wall_s": metric(wall, "s"),
        "solve_s_p50": metric(statistics.median(instance_times(passes)), "s"),
        "boxes_per_s": metric(passes[0].boxes / wall, "boxes/s"),
        "setup_s": metric(statistics.median(setup_samples) * setup_factor, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tupack" / "__init__.py").is_file():
        print(f"perfbench: no tupack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import numpy
    import tupack
    import workloads
    from tracer import Tracer

    if Path(tupack.__file__).resolve().parent != SRC / "tupack":
        print(f"perfbench: imported tupack from {tupack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    jobs = workloads.WORKLOADS[args.workload]()
    setup_main = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_main))
        return 0

    order = list(range(len(jobs)))
    random.Random(args.seed).shuffle(order)

    tracer = None
    if args.trace:
        setup_samples, setup_probe_s = [], []
        passes = [workloads.run_pass(jobs, order)]
        rss_mb = peak_rss_mb()
        tracer = Tracer(layers.targets())
        passes.append(workloads.run_pass(jobs, order, tracer))
    else:
        import speed  # not in set-up: the snapshot is the benchmark's own

        probe = speed.SpeedProbe()
        setup_samples, setup_probe_s = measure_setup(args.workload, probe)
        start = time.perf_counter()
        passes = [workloads.run_pass(jobs, order, probe=probe)]
        rss_mb = peak_rss_mb()  # later passes repeat the same work
        longest = time.perf_counter() - start
        # another pass while the whole run, set-up and probes included, still
        # ends within --seconds
        while (elapsed := time.perf_counter() - _T0) + longest <= args.seconds:
            passes.append(workloads.run_pass(jobs, order, probe=probe))
            longest = max(longest, time.perf_counter() - _T0 - elapsed)

    first = passes[0]
    for p in passes:
        for failure in p.failures:
            print(f"perfbench: FAILED {failure}", file=sys.stderr)
    repeats = all(p.texts == first.texts and p.qualities == first.qualities
                  for p in passes[1:])
    if not repeats:
        print("perfbench: FAILED passes wrote different solutions", file=sys.stderr)
    attempted = len(jobs) * len(passes)
    failed = sum(p.failed for p in passes)
    quality = quality_metrics(first.qualities)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "instances": len(jobs),
        "pass_wall_s": [p.wall_s for p in passes],
        "solve_s_samples": len(jobs),
        "failed_frac": failed / attempted,
        "fingerprint": workloads.fingerprint(first.texts),
        "optimum_hits": sum(q.optimum for q in first.qualities if q is not None),
        "tu_excess": sum(q.tus - q.lb_tus for q in first.qualities if q is not None),
        "quality": quality,
        "per_instance": [
            {"name": job.name, "solve_s": t,
             **({} if q is None else {"tus": q.tus, "lb_tus": q.lb_tus,
                                      "gap_pct": q.gap_pct, "fitness": q.fitness})}
            for job, t, q in zip(jobs, instance_times(passes, scaled=False), first.qualities)
        ],
        "setup_main_s": setup_main,
        "setup_samples_s": setup_samples,
        "setup_probe_s": setup_probe_s,
        "pass_probe_s": [p.probe_s for p in passes],
        "pass_speed_factors": [sum(p.scaled) / p.wall_s for p in passes],
        "git_sha": git_sha(),
        "src_sha256": source_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": nproc(),
    }

    if tracer is not None:
        metrics = {name: metric(value, unit)
                   for name, (value, unit) in layers.layer_metrics(tracer).items()}
        metrics["trace.overhead_s"] = metric(passes[1].wall_s - passes[0].wall_s, "s")
        record["trace_spans"] = tracer.span_count
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        metrics = end_to_end_metrics(passes, setup_samples, speed.factor(setup_probe_s), rss_mb)
        metrics.update({k: metric(v, QUALITY_UNITS[k]) for k, v in quality.items()})

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and repeats,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

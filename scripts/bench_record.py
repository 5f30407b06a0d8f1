#!/usr/bin/env python3
"""Compare two commits on perfbench and write a ``BENCH_<pr>.json`` record.

Run from a checkout:

    python3 scripts/bench_record.py --parent REV --change REV --out BENCH_7.json \\
        --workload solve-large:10 --workload solve-corpus:5 --seconds 40 --first-seed 21

Each revision is exported with ``git archive`` into a fresh temporary
directory, so only committed files are measured. For every workload
(``NAME:PAIRS``) the script runs ``perfbench/run.py --trace 0`` on both
sides PAIRS times, alternating which side runs first, with seeds
``first-seed``, ``first-seed + 1``, ... (both sides of a pair share the
seed). It then runs PAIRS pairs of ``--trace 1`` passes the same way,
because one traced pass is as noisy as the host. The record keeps
perfbench's own output: per run the end-to-end metrics (quality included),
the failure count, the fingerprint, and each pass's wall time and
speed-probe factor (``pass_wall_s``, ``pass_speed_factors``), so a shift can
be traced to the code or to the probe's scale; per traced pass every per-layer
metric; and the Python and numpy versions and core count of the runs.
For each end-to-end metric it adds both sides' medians and quartiles, the
pairs the change won (ties count for neither, "better" as ``BENCHMARK.json``
says), whether the change's median is worse than the parent's by more
than the metric's bound, ``unresolved``: whether the parent's interquartile
range is wider than the bound times the parent's median while not every run
of the change beats every run of the parent (such a metric cannot show "no
regression" and reads unresolved, not unchanged), and ``gain_shown``:
whether the change won at least nine tenths of the pairs and its median
beats the parent's by more than the parent's interquartile range; for each
per-layer metric, both sides' medians.
Its ``checks`` say whether every run of both sides, traced or not, wrote
the same solutions (one fingerprint) and how many runs of each side had a
failed operation. ``src_lines`` gives each side's line count of every
``src/tupack/*.py`` and their total, read from the exported checkouts, so a
record states a change's size next to its timings. The file is rewritten
after every run, so an interrupted comparison keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent commit")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--first-seed", type=int, default=1)
    return p.parse_args(argv)


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its run record and its result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {"record": record["record"], **result}


def source_lines(checkout: Path) -> dict:
    """Line count of each ``src/tupack/*.py`` of a checkout, and their total."""
    files = {p.name: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted((checkout / "src" / "tupack").glob("*.py"))}
    return {"files": files, "total": sum(files.values())}


def run_entry(run: dict) -> dict:
    rec = run["record"]
    return {
        "seed": rec["seed"],
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "passes": rec["passes"],
        "pass_wall_s": rec["pass_wall_s"],
        "pass_speed_factors": rec["pass_speed_factors"],
        "fingerprint": rec["fingerprint"],
        "metrics": {k: v["value"] for k, v in run["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def pairs_of(checkouts: dict, workload: str, count: int, first_seed: int, seconds: float,
             trace: int):
    """``count`` pairs of runs, alternating which side runs first; both runs
    of a pair share the seed."""
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        yield {"first": order[0], **{side: perfbench(checkouts[side], workload, first_seed + i,
                                                     seconds, trace) for side in order}}


def checks(pairs: list[dict]) -> dict:
    """Both sides' fingerprints, whether all the runs share one, and per
    side the runs with a failed operation."""
    prints = {side: sorted({p[side]["fingerprint"] for p in pairs}) for side in SIDES}
    return {
        "fingerprints": prints,
        "fingerprints_match": len(set(prints["parent"] + prints["change"])) == 1,
        "failed_runs": {side: sum(p[side]["failed"] > 0 for p in pairs) for side in SIDES},
    }


def layer_summary(pairs: list[dict]) -> dict:
    """Per per-layer metric: both sides' medians over the traced pairs."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        par, chg = (statistics.median(p[side]["metrics"][name] for p in pairs)
                    for side in SIDES)
        out[name] = {"parent": par, "change": chg,
                     "change_vs_parent_pct": 100.0 * (chg - par) / par if par else None}
    return out


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric: medians, quartiles, wins, the bound check,
    whether the parent's spread leaves it unresolved and whether a gain is
    shown."""
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["parent"]["metrics"][name] for p in pairs if name in p["parent"]["metrics"]]
        chg = [p["change"]["metrics"][name] for p in pairs if name in p["change"]["metrics"]]
        if not par or len(par) != len(chg):
            continue
        wins = sum((c < q) if lower else (c > q) for q, c in zip(par, chg))
        losses = sum((c > q) if lower else (c < q) for q, c in zip(par, chg))
        ps, cs = quartiles(par), quartiles(chg)
        base, iqr = ps["median"], ps["q3"] - ps["q1"]
        worse = (cs["median"] - base) if lower else (base - cs["median"])
        dominates = max(chg) < min(par) if lower else min(chg) > max(par)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": ps, "change": cs,
            "parent_iqr": iqr,
            "change_vs_parent_pct": 100.0 * (cs["median"] - base) / base if base else None,
            "wins": wins, "losses": losses, "ties": len(par) - wins - losses,
            "worse_beyond_bound": bool(base and worse / abs(base) > m["bound"]),
            "unresolved": iqr > m["bound"] * abs(base) and not dominates,
            "gain_shown": 10 * wins >= 9 * len(par) and -worse > iqr,
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = Path(args.out)
    bench = {
        "parent_sha": git("rev-parse", args.parent),
        "change_sha": git("rev-parse", args.change),
        "seconds": args.seconds,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1",
        "host": {},
        "src_lines": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": export(args.parent, Path(tmp) / "parent"),
                 "change": export(args.change, Path(tmp) / "change")}
        bench["src_lines"] = {side: source_lines(path) for side, path in sides.items()}
        for item in args.workload:
            workload, _, count = item.partition(":")
            entry = bench["workloads"][workload] = {"pairs": [], "traced_pairs": []}
            for pair in pairs_of(sides, workload, int(count or 10), args.first_seed,
                                 args.seconds, 0):
                bench["host"] = {k: pair["parent"]["record"][k]
                                 for k in ("python", "numpy", "nproc")}
                entry["pairs"].append({"first": pair["first"], "parent": run_entry(pair["parent"]),
                                       "change": run_entry(pair["change"])})
                entry["checks"] = checks(entry["pairs"])
                entry["summary"] = summarize(entry["pairs"], spec)
                write(out, bench)
            for pair in pairs_of(sides, workload, int(count or 10), args.first_seed,
                                 args.seconds, 1):
                entry["traced_pairs"].append({"first": pair["first"], "parent": run_entry(
                    pair["parent"]), "change": run_entry(pair["change"])})
                entry["checks"] = checks(entry["pairs"] + entry["traced_pairs"])
                entry["traced_summary"] = layer_summary(entry["traced_pairs"])
                write(out, bench)
    return 0


def write(path: Path, bench: dict):
    path.write_text(json.dumps(bench, indent=1, sort_keys=False) + "\n")


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: generate, solve, validate, batch, render, compare."""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .fileio import (
    FormatError,
    read_catalog,
    read_instance,
    read_solution,
    write_instance,
    write_solution,
)
from .generator import (
    BUILTIN_DEMANDS,
    DEFAULT_DENSITY,
    PartitionBounds,
    generate_instance,
    validate_solution,
)
from .geometry import ObjectiveParams
from .lowerbound import DemandPoint
from .packer import CostParams, SortParams
from .reports import (
    LS_FIELDS,
    SUMMARY_FIELDS,
    compare,
    format_row,
    run_row,
    summarize,
    summarize_local_search,
    write_rows_csv,
    write_summary_csv,
)
from .render import render_tu_svg
from .search import SearchParams, SolveStats, solve


class InputError(ValueError):
    """Malformed input (an instance or catalog file, or a flag value) or an
    out-of-range parameter; exits with code 2."""


def _read_input(read, path):
    try:
        return read(path)
    except FormatError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, default=None, help="CG term weight")
    p.add_argument("--beta", type=float, default=None, help="fixed cost per TU (liters)")
    p.add_argument("--theta", type=float, default=None, help="CG term offset")
    p.add_argument("--omega", type=float, default=95.0, help="fill-rate destruction threshold (%%)")
    p.add_argument("--gamma", type=int, default=100, help="lateral-slack destruction threshold (cm)")
    p.add_argument("--micro-repeats", type=int, default=3, help="retries per move step")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--sort-n", type=int, default=4, help="weight cluster count")
    p.add_argument("--sort-m", type=int, default=4, help="base-area cluster count")
    p.add_argument("--cost-n", type=float, default=10_000.0, help="EP level constant")
    p.add_argument("--cost-m", type=float, default=1_000.0, help="box top constant")
    p.add_argument("--cost-theta", type=float, default=0.01, help="residual slack weight")
    p.add_argument("--cost-lambda", type=float, default=1.0, help="modulo partition weight")


def _params(args, inst):
    try:
        objective = ObjectiveParams(
            args.alpha if args.alpha is not None else inst.objective.alpha,
            args.theta if args.theta is not None else inst.objective.theta,
            args.beta if args.beta is not None else inst.objective.beta,
        )
        cost = CostParams(args.cost_n, args.cost_m, args.cost_theta, args.cost_lambda)
        sort = SortParams(args.sort_n, args.sort_m)
        search = SearchParams(args.omega, args.gamma, args.micro_repeats, args.seed)
    except ValueError as exc:
        raise InputError(f"bad parameter: {exc}") from exc
    return objective, cost, sort, search


def _parse_demand(text: str) -> DemandPoint:
    try:
        v, w = text.split(",")
        return DemandPoint(float(v), float(w))
    except ValueError as exc:
        raise InputError(f"bad --demand {text!r}: expected non-negative VOLUME,WEIGHT") from exc


def cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.builtin:
        demands = [DemandPoint(v, w) for v, w in BUILTIN_DEMANDS]
    elif args.demand:
        demands = [_parse_demand(d) for d in args.demand]
    else:
        print("nothing to generate: pass --demand V,W or --builtin", file=sys.stderr)
        return 2
    bounds = None
    if args.bounds:
        try:
            lo, hi = (int(t) for t in args.bounds.split(","))
            bounds = PartitionBounds(lo, hi, lo, hi, lo, hi)
        except ValueError as exc:
            raise InputError(f"bad --bounds {args.bounds!r}: expected LB,UB with 0 < LB <= UB") from exc
    catalog_path = args.catalog or os.environ.get("TUPACK_CATALOG")
    catalog = _read_input(read_catalog, catalog_path) if catalog_path else None
    for i, demand in enumerate(demands, 1):
        name = f"gen{i:03d}_s{args.scheme}"
        inst, ref = generate_instance(
            demand, args.scheme, name=name, catalog=catalog, beta=args.gen_beta,
            bounds=bounds, density=args.density, seed=args.seed + i,
        )
        write_instance(out / f"{name}.inst.txt", inst)
        write_solution(out / f"{name}.ref.txt", ref, inst)
    print(f"wrote {len(demands)} instances to {out}")
    return 0


def cmd_solve(args) -> int:
    inst = _read_input(read_instance, args.instance)
    objective, cost, sort, search = _params(args, inst)
    stats = SolveStats()
    t0 = time.perf_counter()
    try:
        sol = solve(inst, objective, cost, sort, search, stats)
    except Exception as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    out = Path(args.out) if args.out else Path(args.instance).with_suffix(".sol.txt")
    write_solution(out, sol, inst)
    print(format_row(run_row(inst, sol, args.omega, elapsed, stats)))
    return 0


def cmd_validate(args) -> int:
    inst = _read_input(read_instance, args.instance)
    sol, inst_name, recorded = read_solution(args.solution, inst)
    problems = validate_solution(inst, sol, recorded)
    if inst_name != inst.name:
        problems.insert(0, f"solution names instance {inst_name!r}, file is {inst.name!r}")
    if problems:
        for p in problems:
            print(p)
        print(f"INVALID: {len(problems)} violation(s)")
        return 1
    print(f"OK: {len(sol.tus)} TUs, {len(sol.box_ids())} boxes, partition exact")
    return 0


def _batch_one(task):
    path, omega, seed, args_dict = task
    inst = _read_input(read_instance, path)
    ns = argparse.Namespace(**args_dict, omega=omega, seed=seed)
    objective, cost, sort, search = _params(ns, inst)
    stats = SolveStats()
    t0 = time.perf_counter()
    sol = solve(inst, objective, cost, sort, search, stats)
    elapsed = time.perf_counter() - t0
    row = run_row(inst, sol, omega, elapsed, stats)
    return row, len(validate_solution(inst, sol))


def cmd_batch(args) -> int:
    if args.jobs < 1:
        raise InputError(f"bad --jobs {args.jobs}: expected at least 1 worker")
    instances = sorted(Path(args.instances).glob("*.inst.txt"))
    if not instances:
        print(f"no *.inst.txt under {args.instances}", file=sys.stderr)
        return 2
    try:
        omegas = [float(t) for t in args.omegas.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --omegas {args.omegas!r}: expected comma-separated numbers") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    args_dict = {
        k: getattr(args, k)
        for k in ("alpha", "beta", "theta", "gamma", "micro_repeats",
                  "sort_n", "sort_m", "cost_n", "cost_m", "cost_theta", "cost_lambda")
    }
    # one seed per instance position: seed_i = base seed + i
    tasks = [
        (str(p), omega, args.seed + i, args_dict)
        for omega in omegas
        for i, p in enumerate(instances)
    ]
    rows = []
    failures = 0
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_batch_one, tasks))
    else:
        results = [_batch_one(t) for t in tasks]
    for (path, omega, _, _), (row, violations) in zip(tasks, results):
        rows.append(row)
        if violations:
            failures += 1
            print(f"{path} omega={omega}: {violations} violations", file=sys.stderr)
    write_rows_csv(out / "per_instance.csv", rows)
    summaries, ls_summaries = [], []
    for omega in omegas:
        batch = [r for r in rows if r.omega == omega]
        summaries.append(summarize(batch))
        ls_summaries.append(summarize_local_search(batch))
    write_summary_csv(out / "summary.csv", summaries, SUMMARY_FIELDS)
    write_summary_csv(out / "local_search.csv", ls_summaries, LS_FIELDS)
    print(f"solved {len(instances)} instances x {len(omegas)} omega values -> {out}")
    return 1 if failures else 0


def cmd_render(args) -> int:
    inst = _read_input(read_instance, args.instance)
    sol, _, _ = read_solution(args.solution, inst)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(args.solution).stem
    for ti, tu in enumerate(sol.tus):
        svg = render_tu_svg(tu, title=f"TU {ti}")
        (out / f"{stem}_tu{ti:02d}.svg").write_text(svg, encoding="utf-8")
    print(f"rendered {len(sol.tus)} TU(s) to {out}")
    return 0


def cmd_compare(args) -> int:
    inst = _read_input(read_instance, args.instance)
    sol_a, name_a, _ = read_solution(args.solution_a, inst)
    sol_b, name_b, _ = read_solution(args.solution_b, inst)
    if name_a != name_b or name_a != inst.name:
        print(
            f"instance mismatch: {name_a!r} vs {name_b!r} (instance file {inst.name!r})",
            file=sys.stderr,
        )
        return 1
    c = compare(sol_a, sol_b)
    print("metric,A,B")
    print(f"n_tu,{c.n_tu_a},{c.n_tu_b}")
    print(f"volume_liters,{c.volume_a:.0f},{c.volume_b:.0f}")
    print(f"delta_volume_pct,0.00,{c.delta_volume_pct:.2f}")
    print(f"ci_xy,{c.ci_xy_a:.4f},{c.ci_xy_b:.4f}")
    print(f"ci_z,{c.ci_z_a:.4f},{c.ci_z_b:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tupack",
        description="Consolidate boxes onto air-cargo transport units.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate benchmark instances with reference optima")
    g.add_argument("--demand", action="append", metavar="V,W",
                   help="total volume (m3) and weight (kg); repeatable")
    g.add_argument("--builtin", action="store_true",
                   help="use the 100 built-in demand points")
    g.add_argument("--scheme", type=int, choices=(1, 2, 3), required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--density", type=float, default=DEFAULT_DENSITY,
                   help="box weight density (kg/m3)")
    g.add_argument("--gen-beta", type=float, default=100.0,
                   help="per-TU fixed cost used by the covering model")
    g.add_argument("--bounds", metavar="LB,UB",
                   help="override carving bounds on all axes")
    g.add_argument("--catalog", metavar="FILE",
                   help="TU-type catalog file (default: $TUPACK_CATALOG or the "
                        "built-in six pallet types)")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve one instance file")
    s.add_argument("instance")
    s.add_argument("--out", help="solution path (default: INSTANCE with .sol.txt)")
    _add_solver_flags(s)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("validate", help="check a solution against its instance")
    v.add_argument("instance")
    v.add_argument("solution")
    v.set_defaults(func=cmd_validate)

    b = sub.add_parser("batch", help="solve a directory of instances over an omega grid")
    b.add_argument("--instances", required=True, help="directory of *.inst.txt")
    b.add_argument("--out", required=True, help="report directory")
    b.add_argument("--omegas", default="75,80,85,90,95")
    b.add_argument("--jobs", type=int, default=1, help="parallel workers")
    _add_solver_flags(b)
    b.set_defaults(func=cmd_batch)

    r = sub.add_parser("render", help="render a solution as one SVG per TU")
    r.add_argument("instance")
    r.add_argument("solution")
    r.add_argument("--out", required=True, help="output directory")
    r.set_defaults(func=cmd_render)

    c = sub.add_parser("compare", help="compare two solutions of one instance")
    c.add_argument("instance")
    c.add_argument("solution_a")
    c.add_argument("solution_b")
    c.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    """Run one command. Exit codes: 0 success; 1 a failed solve, an invalid
    or unreadable solution, or an unreadable file; 2 a malformed instance or
    catalog, or a flag value malformed or out of range."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

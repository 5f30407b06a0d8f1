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
    OtherInstanceError,
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
from .packer import DEFAULT_COST, DEFAULT_SORT, CostParams, SortParams
from .reports import (
    format_row,
    measures,
    run_row,
    summarize,
    summarize_local_search,
    write_rows_csv,
    write_summary_csv,
)
from .render import render_tu_svg
from .search import SearchParams, SolveStats, solve


class InputError(ValueError):
    """Malformed input (an instance, catalog or solution file, or a flag
    value) or an out-of-range parameter; exits with code 2."""


def _read_input(read, path, *args):
    """``read(path, *args)``; a malformed file is an ``InputError`` naming
    it, a solution of another instance an ``OtherInstanceError`` naming it."""
    try:
        return read(path, *args)
    except FormatError as exc:
        kind = OtherInstanceError if isinstance(exc, OtherInstanceError) else InputError
        raise kind(f"{path}: {exc}") from exc


def _add_solver_flags(p: argparse.ArgumentParser):
    cost, sort, search = DEFAULT_COST, DEFAULT_SORT, SearchParams()
    p.add_argument("--alpha", type=float, default=None, help="CG term weight")
    p.add_argument("--beta", type=float, default=None, help="fixed cost per TU (liters)")
    p.add_argument("--theta", type=float, default=None, help="CG term offset")
    p.add_argument("--omega", type=float, default=search.omega,
                   help="fill-rate destruction threshold (%%)")
    p.add_argument("--gamma", type=int, default=search.gamma,
                   help="lateral-slack destruction threshold (cm)")
    p.add_argument("--micro-repeats", type=int, default=search.micro_repeats,
                   help="retries per move step")
    p.add_argument("--seed", type=int, default=search.seed, help="random seed")
    p.add_argument("--sort-n", type=int, default=sort.n, help="weight cluster count")
    p.add_argument("--sort-m", type=int, default=sort.m, help="base-area cluster count")
    p.add_argument("--cost-n", type=float, default=cost.big_n, help="EP level constant")
    p.add_argument("--cost-m", type=float, default=cost.big_m, help="box top constant")
    p.add_argument("--cost-theta", type=float, default=cost.theta, help="residual slack weight")
    p.add_argument("--cost-lambda", type=float, default=cost.lam, help="modulo partition weight")


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
        raise InputError(f"bad --demand {text!r}: expected finite non-negative VOLUME,WEIGHT") from exc


def cmd_generate(args) -> int:
    if args.builtin:
        demands = [DemandPoint(v, w) for v, w in BUILTIN_DEMANDS]
    elif args.demand:
        demands = [_parse_demand(d) for d in args.demand]
    else:
        raise InputError("nothing to generate: pass --demand V,W or --builtin")
    bounds = None
    if args.bounds:
        try:
            lo, hi = (int(t) for t in args.bounds.split(","))
            bounds = PartitionBounds(lo, hi, lo, hi, lo, hi)
        except ValueError as exc:
            raise InputError(f"bad --bounds {args.bounds!r}: expected LB,UB with 0 < LB <= UB") from exc
    catalog_path = args.catalog or os.environ.get("TUPACK_CATALOG")
    catalog = _read_input(read_catalog, catalog_path) if catalog_path else None
    made = []
    for i, demand in enumerate(demands, 1):
        name = f"gen{i:03d}_s{args.scheme}"
        try:
            made.append(generate_instance(
                demand, args.scheme, name=name, catalog=catalog, beta=args.gen_beta,
                bounds=bounds, density=args.density, seed=args.seed + i,
            ))
        except ValueError as exc:
            raise InputError(f"{name}: {exc}") from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for inst, ref in made:
        write_instance(out / f"{inst.name}.inst.txt", inst)
        write_solution(out / f"{inst.name}.ref.txt", ref, inst)
    print(f"wrote {len(demands)} instances to {out}")
    return 0


def _solve(inst, params):
    """Solve one instance with checked parameters (from ``_params``); returns
    the solution, its report row and the validator's problems with it."""
    objective, cost, sort, search = params
    stats = SolveStats()
    t0 = time.perf_counter()
    sol = solve(inst, objective, cost, sort, search, stats)
    row = run_row(inst, sol, search.omega, time.perf_counter() - t0, stats)
    return sol, row, validate_solution(inst, sol)


def cmd_solve(args) -> int:
    inst = _read_input(read_instance, args.instance)
    params = _params(args, inst)
    try:
        sol, row, problems = _solve(inst, params)
    except Exception as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    if problems:
        print(f"solve failed: {len(problems)} violation(s), first: {problems[0]}",
              file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else Path(args.instance).with_suffix(".sol.txt")
    write_solution(out, sol, inst)
    print(format_row(row))
    return 0


def cmd_validate(args) -> int:
    inst = _read_input(read_instance, args.instance)
    sol, _, recorded = _read_input(read_solution, args.solution, inst)
    problems = validate_solution(inst, sol, recorded)
    if problems:
        for p in problems:
            print(p)
        print(f"INVALID: {len(problems)} violation(s)")
        return 1
    print(f"OK: {len(sol.tus)} TUs, {len(sol.box_ids())} boxes, partition exact")
    return 0


def _batch_one(task):
    """Solve one batch task, an instance and its checked parameters: its
    report row (None when the solve failed) and what went wrong, if anything.
    A failed solve is returned, so the batch goes on."""
    inst, params = task
    try:
        _, row, problems = _solve(inst, params)
    except Exception as exc:
        return None, f"solve failed: {exc}"
    return row, f"{len(problems)} violations" if problems else None


def cmd_batch(args) -> int:
    if args.jobs < 1:
        raise InputError(f"bad --jobs {args.jobs}: expected at least 1 worker")
    paths = sorted(Path(args.instances).glob("*.inst.txt"))
    if not paths:
        raise InputError(f"no *.inst.txt under {args.instances}")
    try:
        omegas = [float(t) for t in args.omegas.split(",")]
    except ValueError as exc:
        raise InputError(f"bad --omegas {args.omegas!r}: expected comma-separated numbers") from exc
    if len(set(omegas)) < len(omegas):
        raise InputError(f"bad --omegas {args.omegas!r}: an omega is repeated")
    # every file is read and every task's parameters checked before --out is
    # made and the first solve starts, so an exit 2 leaves nothing behind and
    # comes after no wasted work
    instances = [_read_input(read_instance, p) for p in paths]
    labels, tasks = [], []
    for omega in omegas:
        for i, (path, inst) in enumerate(zip(paths, instances)):
            # one seed per instance position: seed_i = base seed + i
            task_args = argparse.Namespace(**{**vars(args), "omega": omega, "seed": args.seed + i})
            labels.append(f"{path} omega={omega}")
            tasks.append((inst, _params(task_args, inst)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # the pool starts every worker at once, so it gets no more than the tasks
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_one, tasks))
    else:
        results = [_batch_one(t) for t in tasks]
    rows = [row for row, _ in results if row is not None]
    failures = [(label, failure) for label, (_, failure) in zip(labels, results) if failure]
    for label, failure in failures:
        print(f"{label}: {failure}", file=sys.stderr)
    write_rows_csv(out / "per_instance.csv", rows)
    summaries, ls_summaries = [], []
    for omega in omegas:
        batch = [r for r in rows if r.omega == omega]
        # an omega whose every solve failed still reports its own value
        summaries.append({"omega": omega, **summarize(batch)})
        ls_summaries.append({"omega": omega, **summarize_local_search(batch)})
    write_summary_csv(out / "summary.csv", summaries)
    write_summary_csv(out / "local_search.csv", ls_summaries)
    print(f"solved {len(paths)} instances x {len(omegas)} omega values -> {out}")
    return 1 if failures else 0


def cmd_render(args) -> int:
    inst = _read_input(read_instance, args.instance)
    sol, _, _ = _read_input(read_solution, args.solution, inst)
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
    sol_a, _, _ = _read_input(read_solution, args.solution_a, inst)
    sol_b, _, _ = _read_input(read_solution, args.solution_b, inst)
    (n_a, vol_a, xy_a, z_a), (n_b, vol_b, xy_b, z_b) = measures(sol_a), measures(sol_b)
    print("metric,A,B")
    print(f"n_tu,{n_a},{n_b}")
    print(f"volume_liters,{vol_a:.0f},{vol_b:.0f}")
    print(f"delta_volume_pct,0.00,{100.0 * (vol_b - vol_a) / vol_a if vol_a else 0.0:.2f}")
    print(f"ci_xy,{xy_a:.4f},{xy_b:.4f}")
    print(f"ci_z,{z_a:.4f},{z_b:.4f}")
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
                   help="override carving bounds on all axes (schemes 1 and 2)")
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
    """Run one command. Exit codes: 0 success; 1 a failed solve (including a
    solution its validator rejects), an invalid solution, a solution of
    another instance, or an unreadable file; 2 a malformed instance, catalog
    or solution file (such as ``fitness nan``), a flag value malformed,
    non-finite or out of range, or generator input it cannot carve (bounds
    or a catalog type that does not fit, bounds for scheme 3)."""
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

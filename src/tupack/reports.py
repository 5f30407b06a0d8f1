"""Per-run report rows and batch aggregates.

Every number here is recomputable from the instance and solution files
alone; solver-internal state only contributes the local-search improvement
counters, which the batch runner records next to the row. Wall-clock times
are reported but excluded from any determinism guarantee.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from pathlib import Path

from .generator import Instance
from .geometry import Solution, center_of_gravity, fill_rate
from .search import SolveStats


@dataclass
class RunRow:
    """One solved instance: solution quality versus its covering bound."""

    instance: str
    omega: float
    n_tu: int
    volume_liters: float
    delta_volume_pct: float | None
    ci_xy: float
    ci_z: float
    sol_time_s: float
    optimal: bool | None
    max_fill_pct: float
    min_fill_pct: float
    ls1_improvements: int = 0
    ls2_improvements: int = 0
    ls1_gain_pct: float = 0.0
    ls2_gain_pct: float = 0.0
    tu_reduction_pct: float = 0.0


def run_row(
    inst: Instance,
    sol: Solution,
    omega: float,
    sol_time_s: float,
    stats: SolveStats | None = None,
) -> RunRow:
    """Measure one solution against its instance's recorded lower bound.

    A solution is optimal when its total TU volume reaches the bound's, so an
    equal-volume mix of other types counts too.
    """
    fills = [fill_rate(tu) for tu in sol.tus]
    cgs = [center_of_gravity(tu) for tu in sol.tus]
    vol = sol.total_volume_liters()
    lb_vol = inst.lb_volume_liters()
    delta = None
    optimal = None
    if lb_vol:
        delta = 100.0 * (vol - lb_vol) / lb_vol
        optimal = vol <= lb_vol
    row = RunRow(
        instance=inst.name,
        omega=omega,
        n_tu=len(sol.tus),
        volume_liters=vol,
        delta_volume_pct=delta,
        ci_xy=sum(c.mxy for c in cgs) / len(cgs) if cgs else 0.0,
        ci_z=sum(c.mz for c in cgs) / len(cgs) if cgs else 0.0,
        sol_time_s=round(sol_time_s, 2),
        optimal=optimal,
        max_fill_pct=max(fills) if fills else 0.0,
        min_fill_pct=min(fills) if fills else 0.0,
    )
    if stats is not None and stats.initial_fitness > 0:
        row.ls1_improvements = stats.ls1_improvements
        row.ls2_improvements = stats.ls2_improvements
        row.ls1_gain_pct = 100.0 * stats.ls1_gain / stats.initial_fitness
        row.ls2_gain_pct = 100.0 * stats.ls2_gain / stats.initial_fitness
        if stats.initial_tu_count:
            row.tu_reduction_pct = (
                100.0 * (stats.initial_tu_count - stats.final_tu_count)
                / stats.initial_tu_count
            )
    return row


def format_row(row: RunRow) -> str:
    delta = f"{row.delta_volume_pct:.2f}" if row.delta_volume_pct is not None else "-"
    opt = {True: "yes", False: "no", None: "-"}[row.optimal]
    return (
        f"{row.instance}: n_tu={row.n_tu} vol={row.volume_liters:.0f}L "
        f"delta_vol={delta}% ci_xy={row.ci_xy:.4f} ci_z={row.ci_z:.4f} "
        f"time={row.sol_time_s:.2f}s optimal={opt} "
        f"fill_max={row.max_fill_pct:.2f}% fill_min={row.min_fill_pct:.2f}%"
    )


# aggregate stat labels follow the columns of the published result tables:
# TU count, volume gap, centering indexes, time, optima, extreme fill rates
SUMMARY_FIELDS = [
    "omega", "instances", "n_tu", "delta_volume_pct", "ci_xy", "ci_z",
    "sol_time_s", "n_opt", "max_fill_pct", "min_fill_pct",
]

LS_FIELDS = [
    "omega", "n_improvements_ls1", "avg_improvement_ls1_pct",
    "max_improvement_ls1_pct", "n_improvements_ls2",
    "avg_improvement_ls2_pct", "max_improvement_ls2_pct",
    "avg_tu_reduction_pct", "max_tu_reduction_pct",
]


def _avg(vals):
    vals = list(vals)
    return sum(vals) / len(vals) if vals else 0.0


def summarize(rows: list[RunRow]) -> dict:
    """Quality aggregate of one omega batch."""
    with_lb = [r for r in rows if r.delta_volume_pct is not None]
    return {
        "omega": rows[0].omega if rows else 0.0,
        "instances": len(rows),
        "n_tu": _avg(r.n_tu for r in rows),
        "delta_volume_pct": _avg(r.delta_volume_pct for r in with_lb),
        "ci_xy": _avg(r.ci_xy for r in rows),
        "ci_z": _avg(r.ci_z for r in rows),
        "sol_time_s": _avg(r.sol_time_s for r in rows),
        "n_opt": sum(1 for r in rows if r.optimal),
        "max_fill_pct": _avg(r.max_fill_pct for r in rows),
        "min_fill_pct": _avg(r.min_fill_pct for r in rows),
    }


def summarize_local_search(rows: list[RunRow]) -> dict:
    """Local-search effectiveness aggregate of one omega batch."""
    return {
        "omega": rows[0].omega if rows else 0.0,
        "n_improvements_ls1": sum(1 for r in rows if r.ls1_improvements),
        "avg_improvement_ls1_pct": _avg(r.ls1_gain_pct for r in rows),
        "max_improvement_ls1_pct": max((r.ls1_gain_pct for r in rows), default=0.0),
        "n_improvements_ls2": sum(1 for r in rows if r.ls2_improvements),
        "avg_improvement_ls2_pct": _avg(r.ls2_gain_pct for r in rows),
        "max_improvement_ls2_pct": max((r.ls2_gain_pct for r in rows), default=0.0),
        "avg_tu_reduction_pct": _avg(r.tu_reduction_pct for r in rows),
        "max_tu_reduction_pct": max((r.tu_reduction_pct for r in rows), default=0.0),
    }


def write_rows_csv(path: str | Path, rows: list[RunRow]):
    cols = [f.name for f in fields(RunRow)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in sorted(rows, key=lambda r: (r.omega, r.instance)):
            writer.writerow([getattr(r, c) for c in cols])


def write_summary_csv(path: str | Path, summaries: list[dict], fieldnames: list[str]):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for s in summaries:
            writer.writerow({k: s[k] for k in fieldnames})


@dataclass
class Comparison:
    """Two solutions of the same instance side by side."""

    n_tu_a: int
    n_tu_b: int
    volume_a: float
    volume_b: float
    delta_volume_pct: float
    ci_xy_a: float
    ci_xy_b: float
    ci_z_a: float
    ci_z_b: float


def compare(sol_a: Solution, sol_b: Solution) -> Comparison:
    """Volume and centering comparison (B relative to A)."""

    def cg_means(sol):
        cgs = [center_of_gravity(tu) for tu in sol.tus]
        if not cgs:
            return 0.0, 0.0
        return _avg(c.mxy for c in cgs), _avg(c.mz for c in cgs)

    va, vb = sol_a.total_volume_liters(), sol_b.total_volume_liters()
    xy_a, z_a = cg_means(sol_a)
    xy_b, z_b = cg_means(sol_b)
    delta = 100.0 * (vb - va) / va if va else 0.0
    return Comparison(len(sol_a.tus), len(sol_b.tus), va, vb, delta, xy_a, xy_b, z_a, z_b)

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


def _avg(vals):
    vals = list(vals)
    return sum(vals) / len(vals) if vals else 0.0


def measures(sol: Solution) -> tuple[int, float, float, float]:
    """A solution's TU count, total TU volume in liters, mean CG offset
    (``mxy``) and mean relative CG height (``mz``); both means are 0
    without TUs."""
    cgs = [center_of_gravity(tu) for tu in sol.tus]
    return (len(sol.tus), sol.total_volume_liters(),
            _avg(c.mxy for c in cgs), _avg(c.mz for c in cgs))


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
    n_tu, vol, ci_xy, ci_z = measures(sol)
    lb_vol = inst.lb_volume_liters()
    delta = None
    optimal = None
    if lb_vol:
        delta = 100.0 * (vol - lb_vol) / lb_vol
        optimal = vol <= lb_vol
    row = RunRow(
        instance=inst.name,
        omega=omega,
        n_tu=n_tu,
        volume_liters=vol,
        delta_volume_pct=delta,
        ci_xy=ci_xy,
        ci_z=ci_z,
        sol_time_s=round(sol_time_s, 2),
        optimal=optimal,
        max_fill_pct=max(fills) if fills else 0.0,
        min_fill_pct=min(fills) if fills else 0.0,
    )
    if stats is not None and stats.initial_fitness > 0:
        row.ls1_improvements = stats.improvements("ls1")
        row.ls2_improvements = stats.improvements("ls2")
        row.ls1_gain_pct = 100.0 * stats.gain("ls1") / stats.initial_fitness
        row.ls2_gain_pct = 100.0 * stats.gain("ls2") / stats.initial_fitness
        first, last = stats.trace[0], stats.trace[-1]
        row.tu_reduction_pct = 100.0 * (first.tu_count - last.tu_count) / first.tu_count
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


def summarize(rows: list[RunRow]) -> dict:
    """Quality aggregate of one omega batch, without the omega, which the
    caller puts first. The keys, in order, follow the columns of the
    published result tables: TU count, volume gap, centering indexes, time,
    optima, extreme fill rates."""
    with_lb = [r for r in rows if r.delta_volume_pct is not None]
    return {
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
    """Local-search effectiveness aggregate of one omega batch, without the
    omega."""
    return {
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


def write_summary_csv(path: str | Path, summaries: list[dict]):
    """One row per aggregate; the header is the first aggregate's keys."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summaries[0]))
        writer.writeheader()
        writer.writerows(summaries)

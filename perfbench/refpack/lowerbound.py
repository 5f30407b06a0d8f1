"""Exact volume/weight covering model over the TU-type catalog.

Chooses how many TUs of each type cover a demanded total volume and weight at
minimum cost, where cost is total TU volume in liters plus a fixed charge per
TU. The optimum of this relaxation is a lower bound for any consolidation of
boxes with that total volume and weight, and doubles as the seed from which
benchmark instances are carved.

Internally all quantities are integers (cm^3 and grams) so exact covers, which
the generated instances rely on, never fall to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import TuType


@dataclass(frozen=True)
class DemandPoint:
    """Total volume (m^3) and weight (kg) to cover."""

    volume_m3: float
    weight_kg: float

    def __post_init__(self):
        if self.volume_m3 < 0 or self.weight_kg < 0:
            raise ValueError("demand must be non-negative")


@dataclass(frozen=True)
class LowerBound:
    """Optimal covering: per-type TU counts and the objective they realize."""

    counts: tuple[int, ...]
    objective: float

    def total_tus(self) -> int:
        return sum(self.counts)

    def as_mapping(self, catalog: list[TuType]) -> dict[str, int]:
        return {t.id: c for t, c in zip(catalog, self.counts) if c > 0}


def _scaled(demand: DemandPoint, catalog: list[TuType]):
    """Integer problem data: volumes in cm^3, weights in grams."""
    vols = [t.volume_cm3 for t in catalog]
    caps = [t.q * 1000 for t in catalog]
    need_v = round(demand.volume_m3 * 1_000_000)
    need_w = round(demand.weight_kg * 1000)
    return vols, caps, need_v, need_w


def _objective_liters(counts, vols_cm3, beta: float) -> float:
    return sum(c * v for c, v in zip(counts, vols_cm3)) / 1000.0 + beta * sum(counts)


def solve_lower_bound(
    demand: DemandPoint, catalog: list[TuType], beta: float = 100.0
) -> LowerBound:
    """Exact optimum of the integer covering program by depth-first search.

    Branches over per-type counts with two prunes: the partial objective
    against the incumbent, and an optimistic completion cost from the best
    cost-per-volume and cost-per-weight ratios in the catalog. Ties resolve
    to the lexicographically smallest count vector over catalog order.
    """
    if not catalog:
        raise ValueError("catalog must not be empty")
    n = len(catalog)
    vols, caps, need_v, need_w = _scaled(demand, catalog)
    if need_v == 0 and need_w == 0:
        return LowerBound((0,) * n, 0.0)

    # per-TU objective in milli-liters keeps the search arithmetic integral
    # for integral 1000*beta; float beta still compares exactly at this scale
    unit_cost = [v + beta * 1000.0 for v in vols]
    rate_v = min(unit_cost[i] / vols[i] for i in range(n))
    rate_w = min(unit_cost[i] / caps[i] for i in range(n))

    best: list = [float("inf"), None]
    counts = [0] * n

    def ceil_div(a: int, b: int) -> int:
        return -(-a // b)

    def dfs(i: int, cur: float, rem_v: int, rem_w: int):
        if rem_v <= 0 and rem_w <= 0:
            if cur < best[0] or (cur == best[0] and tuple(counts) < best[1]):
                best[0] = cur
                best[1] = tuple(counts)
            return
        if i == n:
            return
        floor = max(
            rate_v * rem_v if rem_v > 0 else 0.0,
            rate_w * rem_w if rem_w > 0 else 0.0,
        )
        if cur + floor > best[0]:
            return
        # beyond max(ceil by volume, ceil by weight) further TUs of one type
        # only add cost
        hi = max(
            ceil_div(rem_v, vols[i]) if rem_v > 0 else 0,
            ceil_div(rem_w, caps[i]) if rem_w > 0 else 0,
        )
        for c in range(hi, -1, -1):
            counts[i] = c
            dfs(i + 1, cur + c * unit_cost[i], rem_v - c * vols[i], rem_w - c * caps[i])
        counts[i] = 0

    dfs(0, 0.0, need_v, need_w)
    assert best[1] is not None
    return LowerBound(best[1], _objective_liters(best[1], vols, beta))


def brute_force_lower_bound(
    demand: DemandPoint, catalog: list[TuType], beta: float = 100.0, max_total: int = 25
) -> LowerBound:
    """Independent oracle: exhaustive enumeration of count vectors.

    Checks every vector with at most ``max_total`` TUs and returns the
    feasible one of minimum objective, ties to the lexicographically
    smallest. Only valid when the true optimum uses at most ``max_total``.
    """
    n = len(catalog)
    vols, caps, need_v, need_w = _scaled(demand, catalog)
    unit_cost = [v + beta * 1000.0 for v in vols]
    best: tuple[float, tuple[int, ...]] | None = None
    counts = [0] * n

    def rec(i: int, left: int, vol: int, wgt: int, cost: float):
        nonlocal best
        if i == n:
            if vol >= need_v and wgt >= need_w:
                key = (cost, tuple(counts))
                if best is None or key < best:
                    best = key
            return
        for c in range(left + 1):
            counts[i] = c
            rec(i + 1, left - c, vol + c * vols[i], wgt + c * caps[i], cost + c * unit_cost[i])
        counts[i] = 0

    rec(0, max_total, 0, 0, 0.0)
    assert best is not None, "demand not coverable within max_total TUs"
    return LowerBound(best[1], _objective_liters(best[1], vols, beta))

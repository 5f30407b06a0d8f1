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
from itertools import accumulate

from .geometry import TuType, check_nonnegative


@dataclass(frozen=True)
class DemandPoint:
    """Total volume (m^3) and weight (kg) to cover."""

    volume_m3: float
    weight_kg: float

    def __post_init__(self):
        check_nonnegative(volume_m3=self.volume_m3, weight_kg=self.weight_kg)


@dataclass(frozen=True)
class LowerBound:
    """Optimal covering: per-type TU counts and the objective they realize."""

    counts: tuple[int, ...]
    objective: float

    def total_tus(self) -> int:
        return sum(self.counts)

    def as_mapping(self, catalog: list[TuType]) -> dict[str, int]:
        return {t.id: c for t, c in zip(catalog, self.counts) if c > 0}


# Most TUs a demand may need before the exact search is refused: the search
# time grows steeply with the count (on a 2-vCPU VM about 0.3 s at 44 TUs of
# the default catalog, 22 s at 435), and a huge finite demand would never
# finish. Every built-in demand needs at most 14.
MAX_COVER_TUS = 100


def _scaled(demand: DemandPoint, catalog: list[TuType]):
    """Integer problem data: volumes in cm^3, weights in grams."""
    vols = [t.volume_cm3 for t in catalog]
    caps = [t.q * 1000 for t in catalog]
    need_v = round(demand.volume_m3 * 1_000_000)
    need_w = round(demand.weight_kg * 1000)
    return vols, caps, need_v, need_w


def _suffix_min(values: list[float]) -> list[float]:
    """Per index i, the least of ``values[i:]``."""
    return list(accumulate(reversed(values), min))[::-1]


def _objective_liters(counts, vols_cm3, beta: float) -> float:
    return sum(c * v for c, v in zip(counts, vols_cm3)) / 1000.0 + beta * sum(counts)


def solve_lower_bound(
    demand: DemandPoint, catalog: list[TuType], beta: float = 100.0
) -> LowerBound:
    """Exact optimum of the integer covering program by depth-first search.

    Branches over per-type counts with two prunes: the partial objective
    against the incumbent, and an optimistic completion cost from the best
    cost-per-volume and cost-per-weight ratios among the types still open.
    The last type takes the one count that covers the rest. Ties resolve
    to the lexicographically smallest count vector over catalog order.
    Raises ``ValueError`` when the demand needs more than ``MAX_COVER_TUS``
    TUs of the catalog's largest volume or capacity, or when the objective of
    every covering overflows.
    """
    if not catalog:
        raise ValueError("catalog must not be empty")
    least = max(demand.volume_m3 * 1e6 / max(t.volume_cm3 for t in catalog),
                demand.weight_kg / max(t.q for t in catalog))
    if least > MAX_COVER_TUS:
        raise ValueError(f"demand needs more than {MAX_COVER_TUS} TUs of any catalog type")
    n = len(catalog)
    vols, caps, need_v, need_w = _scaled(demand, catalog)
    if need_v == 0 and need_w == 0:
        return LowerBound((0,) * n, 0.0)

    # per-TU objective in milli-liters keeps the search arithmetic integral
    # for integral 1000*beta; float beta still compares exactly at this scale
    unit_cost = [v + beta * 1000.0 for v in vols]
    # per type i, the least cost per cm^3 and per gram of types i..n-1, the
    # ones a completion from type i may still add
    rate_v = _suffix_min([unit_cost[i] / vols[i] for i in range(n)])
    rate_w = _suffix_min([unit_cost[i] / caps[i] for i in range(n)])

    best: list = [float("inf"), None]
    counts = [0] * n

    def ceil_div(a: int, b: int) -> int:
        return -(-a // b)

    def dfs(i: int, cur: float, rem_v: int, rem_w: int):
        if rem_v <= 0 and rem_w <= 0:
            # an overflowing (infinite) total never becomes the incumbent
            if cur < best[0] or (
                cur == best[0] and best[1] is not None and tuple(counts) < best[1]
            ):
                best[0] = cur
                best[1] = tuple(counts)
            return
        if i == n:
            return
        floor = max(
            rate_v[i] * rem_v if rem_v > 0 else 0.0,
            rate_w[i] * rem_w if rem_w > 0 else 0.0,
        )
        if cur + floor > best[0]:
            return
        # beyond max(ceil by volume, ceil by weight) further TUs of one type
        # only add cost
        hi = max(
            ceil_div(rem_v, vols[i]) if rem_v > 0 else 0,
            ceil_div(rem_w, caps[i]) if rem_w > 0 else 0,
        )
        # at the last type any count below hi leaves the demand uncovered
        for c in range(hi, -1 if i < n - 1 else hi - 1, -1):
            counts[i] = c
            dfs(i + 1, cur + c * unit_cost[i], rem_v - c * vols[i], rem_w - c * caps[i])
        counts[i] = 0

    dfs(0, 0.0, need_v, need_w)
    if best[1] is None:
        raise ValueError("no finite covering: the objective overflows for every TU count")
    return LowerBound(best[1], _objective_liters(best[1], vols, beta))


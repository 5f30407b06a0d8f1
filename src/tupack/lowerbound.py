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

    @classmethod
    def of(cls, counts: tuple[int, ...], catalog: list[TuType], beta: float) -> "LowerBound":
        """``counts`` TUs per catalog type, priced at their liters plus ``beta`` per TU."""
        volume_cm3 = sum(c * t.volume_cm3 for c, t in zip(counts, catalog))
        return cls(counts, volume_cm3 / 1000.0 + beta * sum(counts))


# Most TUs a demand may need before the exact search is refused. At beta =
# 100 the search is quick at any count allowed (on a 2-vCPU VM, Python 3.11,
# about 0.5 ms at 44 TUs of the default catalog and 0.6 ms at 100), but at
# beta = 0 every type costs the same per cm^3, so the visit order prunes
# nothing, and the work grows steeply with the count: 2,376 / 31,092 /
# 221,148 recursive calls for 5 / 10 / 16 TUs of the largest default type.
# A huge finite demand would never finish. Every built-in demand needs at
# most 14.
MAX_COVER_TUS = 100


# A node's floor carries a few ulps of rounding from the float rates, and its
# cost more from a fractional 1000*beta, so a subtree holding a tie with the
# incumbent can compute as dearer. The search prunes only what is dearer by
# more than this factor, so every tie reaches the tie-break; integral costs
# below 1e12 that differ at all differ by more.
_ROUNDING_MARGIN = 1 + 1e-12


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


def solve_lower_bound(
    demand: DemandPoint, catalog: list[TuType], beta: float = 100.0
) -> LowerBound:
    """Exact optimum of the integer covering program by depth-first search.

    Visits the types in ascending order of cost per cm^3, ``(v + 1000 beta)
    / v``, ties by catalog index, so the first coverings found are near the
    optimum and prune most of the rest. Branches over per-type counts with
    two prunes: the partial objective against the incumbent, and an
    optimistic completion cost from the best cost-per-volume and
    cost-per-weight ratios among the types still to visit. The last type
    visited takes the one count that covers the rest. A node is priced from
    its integer totals, ``volume_cm3 + 1000 beta * n_tus``, so coverings with
    equal totals cost exactly the same whatever the order they were built
    in, and ties resolve to the lexicographically smallest count vector over
    catalog order.
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

    # fixed charge per TU in milli-liters, the unit of the search's costs
    per_tu = beta * 1000.0
    per_cm3 = [(v + per_tu) / v for v in vols]
    # the stable sort breaks equal rates by catalog index
    order = sorted(range(n), key=per_cm3.__getitem__)
    # per visit position j, the least cost per cm^3 and per gram of the
    # types visited from j on, the ones a completion from there may still add
    rate_v = _suffix_min([per_cm3[i] for i in order])
    rate_w = _suffix_min([(vols[i] + per_tu) / caps[i] for i in order])

    best: list = [float("inf"), None]
    counts = [0] * n

    def ceil_div(a: int, b: int) -> int:
        return -(-a // b)

    def dfs(j: int, tus: int, rem_v: int, rem_w: int):
        # priced from integer totals, whatever order the counts came in
        cur = need_v - rem_v + per_tu * tus
        if rem_v <= 0 and rem_w <= 0:
            # an overflowing (infinite) total never becomes the incumbent
            if cur < best[0] or (
                cur == best[0] and best[1] is not None and tuple(counts) < best[1]
            ):
                best[0] = cur
                best[1] = tuple(counts)
            return
        if j == n:
            return
        floor = max(
            rate_v[j] * rem_v if rem_v > 0 else 0.0,
            rate_w[j] * rem_w if rem_w > 0 else 0.0,
        )
        if cur + floor > best[0] * _ROUNDING_MARGIN:
            return
        i = order[j]
        # beyond max(ceil by volume, ceil by weight) further TUs of one type
        # only add cost
        hi = max(
            ceil_div(rem_v, vols[i]) if rem_v > 0 else 0,
            ceil_div(rem_w, caps[i]) if rem_w > 0 else 0,
        )
        # at the last type any count below hi leaves the demand uncovered
        for c in range(hi, -1 if j < n - 1 else hi - 1, -1):
            counts[i] = c
            dfs(j + 1, tus + c, rem_v - c * vols[i], rem_w - c * caps[i])
        counts[i] = 0

    dfs(0, 0, need_v, need_w)
    if best[1] is None:
        raise ValueError("no finite covering: the objective overflows for every TU count")
    return LowerBound.of(best[1], catalog, beta)

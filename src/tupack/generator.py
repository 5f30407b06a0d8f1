"""Benchmark instance generation with known reference optima.

A demand point (total volume and weight) is first covered optimally by the
exact model in :mod:`tupack.lowerbound`; each TU of that covering is then
carved into boxes by one of three partitioning schemes. Placing the carved
boxes back at their carving coordinates reconstructs a feasible solution
whose TU multiset equals the lower bound's, certifying an achievable optimum
for the generated instance.

Scheme 1 slices the TU into horizontal layers, each layer into strips, each
strip into boxes. Scheme 2 repeatedly seeds a box at a free corner and
partitions the tunnel behind one of its faces up to the region wall. Scheme 3
uses one fixed perfect partition per catalog type.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from .geometry import (
    BoxSpec,
    LoadedTu,
    ObjectiveParams,
    Placement,
    Solution,
    TuType,
    check_nonnegative,
    fitness,
    validate_tu,
)
from .lowerbound import DemandPoint, LowerBound, solve_lower_bound


class InfeasibleBoundsError(ValueError):
    """Dimension bounds do not fit the TU being partitioned."""


class UnknownTypeError(ValueError):
    """No perfect-partition table entry for the requested TU type."""


# The six standard pallet types. Weight capacities are not standardized for
# loaded air pallets; these defaults come from scripts/calibrate_capacities.py,
# which picks the vector reproducing the most validation covering solutions.
DEFAULT_CATALOG = [
    TuType("120x80x130", 120, 80, 130, 1000),
    TuType("120x80x160", 120, 80, 160, 1000),
    TuType("120x100x130", 120, 100, 130, 1200),
    TuType("120x100x160", 120, 100, 160, 1200),
    TuType("120x120x130", 120, 120, 130, 1500),
    TuType("120x120x160", 120, 120, 160, 1500),
]

# 100 built-in (volume m^3, weight kg) demand points for batch generation
BUILTIN_DEMANDS = [
    (17, 783), (5, 1579), (13, 4289), (30, 5076), (10, 3463), (15, 3242),
    (18, 1869), (10, 1519), (30, 4329), (12, 2433), (27, 113), (19, 2268),
    (20, 2199), (11, 4103), (3, 4713), (18, 2346), (23, 3829), (3, 2062),
    (27, 4300), (16, 3941), (1, 3087), (15, 4276), (10, 3962), (12, 4268),
    (18, 4348), (20, 589), (3, 1480), (25, 4872), (3, 2655), (25, 412),
    (22, 2579), (8, 2806), (4, 366), (6, 4291), (16, 3398), (11, 3266),
    (1, 1765), (26, 2738), (24, 1525), (25, 182), (18, 3000), (7, 4081),
    (4, 566), (28, 2693), (12, 3546), (19, 3131), (29, 3708), (18, 1230),
    (28, 279), (20, 865), (23, 1069), (13, 299), (12, 919), (30, 16452),
    (14, 2617), (2, 2913), (29, 14500), (6, 1088), (1, 949), (5, 253),
    (28, 3647), (16, 11706), (25, 15575), (10, 1643), (13, 8389), (9, 5016),
    (1, 1500), (26, 11823), (2, 3193), (15, 6144), (24, 11663), (22, 3816),
    (1, 4500), (11, 8031), (25, 14057), (28, 15980), (4, 3476), (29, 1025),
    (17, 2959), (26, 1695), (26, 4933), (25, 4002), (3, 1578), (18, 4082),
    (30, 14555), (29, 14766), (4, 1417), (18, 3307), (17, 4401), (8, 1428),
    (20, 12843), (9, 4156), (15, 11353), (20, 4866), (26, 12692), (22, 11209),
    (26, 932), (14, 4888), (29, 11311), (13, 5656),
]

# one documented perfect partition per catalog type: (box dims, per-layer grid)
PERFECT_PARTITIONS = {
    "120x80x130": (40, 40, 65),
    "120x80x160": (30, 40, 40),
    "120x100x130": (40, 50, 65),
    "120x100x160": (40, 50, 40),
    "120x120x130": (60, 60, 65),
    "120x120x160": (40, 40, 40),
}

# uniform box weight density for generated instances (kg per m^3)
DEFAULT_DENSITY = 107.0


@dataclass(frozen=True)
class PartitionBounds:
    """Per-axis dimension bounds for randomly carved boxes."""

    x_lb: int = 20
    x_ub: int = 60
    y_lb: int = 20
    y_ub: int = 60
    z_lb: int = 20
    z_ub: int = 60

    def __post_init__(self):
        for lb, ub in ((self.x_lb, self.x_ub), (self.y_lb, self.y_ub), (self.z_lb, self.z_ub)):
            if not 0 < lb <= ub:
                raise ValueError("bounds must satisfy 0 < lower <= upper")

    def check(self, tut: TuType):
        if self.x_lb > tut.x or self.y_lb > tut.y or self.z_lb > tut.z:
            raise InfeasibleBoundsError(
                f"lower bounds exceed TU {tut.id} dimensions"
            )


# calibrated so 100-seed average box and unique-dimension counts on the
# built-in demand table land within 25% of the published per-scheme
# statistics (scheme 2 fragments cells far more than scheme 1 at equal
# bounds, hence the per-scheme defaults)
SCHEME1_BOUNDS = PartitionBounds(35, 80, 35, 80, 35, 80)
SCHEME2_BOUNDS = PartitionBounds(25, 70, 25, 70, 25, 70)


def _cut(rng: random.Random, lb: int, ub: int, left: int) -> int:
    """One segment of a span: uniform in [lb, min(ub, left)], absorbing
    remainders too small to host another segment."""
    if left < lb:
        return left
    return rng.randint(lb, min(ub, left))


@dataclass(frozen=True, slots=True)
class CarvedBox:
    """A box cut out of a TU, remembered with its carving position."""

    w: int
    l: int
    h: int
    x: int
    y: int
    z: int


def partition_scheme1(tut: TuType, bounds: PartitionBounds, rng: random.Random) -> list[CarvedBox]:
    """Layer-based carving: Z layers, then X strips, then Y boxes.

    Every cut is uniform within the bounds; a remainder smaller than the
    lower bound is absorbed into a final undersized segment so the carving
    always tiles the TU exactly.
    """
    bounds.check(tut)
    out: list[CarvedBox] = []
    z = 0
    while z < tut.z:
        zb = _cut(rng, bounds.z_lb, bounds.z_ub, tut.z - z)
        x = 0
        while x < tut.x:
            xb = _cut(rng, bounds.x_lb, bounds.x_ub, tut.x - x)
            y = 0
            while y < tut.y:
                yb = _cut(rng, bounds.y_lb, bounds.y_ub, tut.y - y)
                out.append(CarvedBox(xb, yb, zb, x, y, z))
                y += yb
            x += xb
        z += zb
    return out


# per face (up, east, north): the tunnel axis, then the two leftover cells in
# pool order, each as (the axis it lies beyond the seed box on, the axis it is
# narrowed to the seed box on, or None); axes are 0 = x, 1 = y, 2 = z
_TUNNELS = (
    (2, ((1, 0), (0, None))),  # up: north, east
    (0, ((1, None), (2, 1))),  # east: north, top
    (1, ((0, None), (2, 0))),  # north: east, top
)


def partition_scheme2(tut: TuType, bounds: PartitionBounds, rng: random.Random) -> list[CarvedBox]:
    """Corner-seeded tunnel carving.

    A free cell, an ``(anchor, extents)`` pair, is picked at random; a seed
    box is carved at its corner, a random face (up, east, or north) is
    chosen, and the tunnel behind that face is partitioned up to the cell
    wall with cuts bounded below only. The two remaining sub-cells re-enter
    the pool, so the carving tiles the cell exactly by induction. Tunnel cuts
    have no upper bound; only the seed box dimensions respect it.
    """
    bounds.check(tut)
    lbs = (bounds.x_lb, bounds.y_lb, bounds.z_lb)
    ubs = (bounds.x_ub, bounds.y_ub, bounds.z_ub)
    out: list[CarvedBox] = []
    cells = [((0, 0, 0), (tut.x, tut.y, tut.z))]
    while cells:
        anchor, ext = cells.pop(rng.randrange(len(cells)))
        seed = [_cut(rng, lb, ub, e) for lb, ub, e in zip(lbs, ubs, ext)]
        out.append(CarvedBox(*seed, *anchor))
        axis, rest = rng.choice(_TUNNELS)
        off = seed[axis]
        while off < ext[axis]:
            size, at = list(seed), list(anchor)
            size[axis] = _cut(rng, lbs[axis], ext[axis], ext[axis] - off)
            at[axis] += off
            out.append(CarvedBox(*size, *at))
            off += size[axis]
        for beyond, narrow in rest:
            at, size = list(anchor), list(ext)
            at[beyond] += seed[beyond]
            size[beyond] -= seed[beyond]
            if narrow is not None:
                size[narrow] = seed[narrow]
            if min(size) > 0:
                cells.append((tuple(at), tuple(size)))
    return out


def partition_scheme3(tut: TuType) -> list[CarvedBox]:
    """Fixed perfect partition of a catalog type into identical boxes."""
    entry = PERFECT_PARTITIONS.get(tut.id)
    if entry is None:
        raise UnknownTypeError(f"no perfect partition for TU type {tut.id!r}")
    w, l, h = entry
    if tut.x % w or tut.y % l or tut.z % h:
        raise UnknownTypeError(f"{tut.id}: table entry does not tile the type")
    out = []
    for z in range(0, tut.z, h):
        for x in range(0, tut.x, w):
            for y in range(0, tut.y, l):
                out.append(CarvedBox(w, l, h, x, y, z))
    return out


@dataclass
class Instance:
    """A consolidation problem: boxes, TU catalog, objective, and the
    covering lower bound recorded for gap reports."""

    name: str
    boxes: list[BoxSpec]
    catalog: list[TuType] = field(default_factory=lambda: list(DEFAULT_CATALOG))
    objective: ObjectiveParams = field(default_factory=ObjectiveParams)
    lower_bound: LowerBound | None = None

    def lb_volume_liters(self) -> float | None:
        if self.lower_bound is None:
            return None
        return sum(
            c * t.volume_liters for c, t in zip(self.lower_bound.counts, self.catalog)
        )


def validate_solution(
    inst: Instance, sol: Solution, recorded_fitness: float | None = None
) -> list[str]:
    """Every problem of a solution to the instance, one message each; empty
    when it is valid.

    Checks the recorded fitness against the objective (skipped when it is
    None or NaN, or when a TU is empty), the feasibility of every TU, empty
    TUs, and the exact partition: each instance box placed once and no
    other box placed.
    """
    problems: list[str] = []
    if (recorded_fitness is not None and not math.isnan(recorded_fitness)
            and all(tu.placements for tu in sol.tus)):
        actual = fitness(sol, inst.objective)
        if abs(actual - recorded_fitness) > 1e-6 * max(1.0, abs(actual)):
            problems.append(
                f"recorded fitness {recorded_fitness} does not match recomputation {actual}"
            )
    for ti, tu in enumerate(sol.tus):
        for v in validate_tu(tu):
            problems.append(f"TU {ti}: {v.kind}: {v.detail} (boxes {', '.join(v.box_ids)})")
        if not tu.placements:
            problems.append(f"TU {ti}: empty")
    placed = Counter(sol.box_ids())
    known = {b.id for b in inst.boxes}
    for b in sorted(placed):
        if placed[b] > 1:
            problems.append(f"box {b} placed more than once")
        if b not in known:
            problems.append(f"box {b} is not in the instance")
    for b in inst.boxes:
        if b.id not in placed:
            problems.append(f"box {b.id} not placed")
    return problems


def _box_weight(volume_cm3: int, density: float) -> int:
    weight = density * volume_cm3 / 1e6
    # a finite density can still overflow the weight of a large box
    check_nonnegative(**{"box weight": weight})
    return int(weight + 0.5)


def generate_instance(
    demand: DemandPoint,
    scheme: int,
    name: str = "instance",
    catalog: list[TuType] | None = None,
    beta: float = 100.0,
    bounds: PartitionBounds | None = None,
    density: float = DEFAULT_DENSITY,
    seed: int = 0,
) -> tuple[Instance, Solution]:
    """Carve one instance and its reference optimum from a covered demand.

    Every TU of the optimal covering is partitioned by the chosen scheme;
    box weights follow one shared density. The returned solution places each
    box at its carving coordinates, so its TU multiset equals the covering's
    and it certifies the lower bound as achievable. Every input it cannot
    use (a non-finite or negative density or beta, a density that overflows
    a box weight, a beta that overflows every covering's objective, bounds
    larger than a covering type, bounds for scheme 3, a type without a
    perfect partition, a density that makes a carved TU heavier than its
    type's capacity) raises ``ValueError``.
    """
    if scheme not in (1, 2, 3):
        raise ValueError("scheme must be 1, 2 or 3")
    if scheme == 3 and bounds is not None:
        raise ValueError("scheme 3 carves a perfect partition and takes no bounds")
    check_nonnegative(density=density, beta=beta)
    if bounds is None:
        bounds = {1: SCHEME1_BOUNDS, 2: SCHEME2_BOUNDS}.get(scheme)
    catalog = list(catalog) if catalog is not None else list(DEFAULT_CATALOG)
    lb = solve_lower_bound(demand, catalog, beta)
    rng = random.Random(seed)
    boxes: list[BoxSpec] = []
    tus: list[LoadedTu] = []
    serial = 0
    for tut, count in zip(catalog, lb.counts):
        for _ in range(count):
            if scheme == 1:
                carved = partition_scheme1(tut, bounds, rng)
            elif scheme == 2:
                carved = partition_scheme2(tut, bounds, rng)
            else:
                carved = partition_scheme3(tut)
            tu = LoadedTu(tut)
            for cb in carved:
                serial += 1
                box = BoxSpec(
                    f"b{serial:04d}", cb.w, cb.l, cb.h,
                    _box_weight(cb.w * cb.l * cb.h, density),
                )
                boxes.append(box)
                tu.add(Placement(box, "wlh", cb.w, cb.l, cb.h, cb.x, cb.y, cb.z))
            if tu.total_weight > tut.q:
                # the density ignores capacities, so a carved TU can be overweight
                raise ValueError(f"a carved TU of type {tut.id} weighs {tu.total_weight} kg, "
                                 f"above its capacity {tut.q} kg; lower the density")
            tus.append(tu)
    inst = Instance(
        name, boxes, catalog,
        ObjectiveParams(beta=beta), lb,
    )
    return inst, Solution(tus)

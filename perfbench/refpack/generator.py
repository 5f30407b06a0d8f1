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

import random
from dataclasses import dataclass, field

from .geometry import BoxSpec, LoadedTu, ObjectiveParams, Placement, Solution, TuType
from .lowerbound import DemandPoint, LowerBound, solve_lower_bound


class InfeasibleBoundsError(ValueError):
    """Dimension bounds do not fit the TU being partitioned."""


class UnknownTypeError(KeyError):
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
DEFAULT_BOUNDS = PartitionBounds()


def default_bounds_for(scheme: int) -> PartitionBounds:
    return {1: SCHEME1_BOUNDS, 2: SCHEME2_BOUNDS}.get(scheme, DEFAULT_BOUNDS)


def _cut(rng: random.Random, lb: int, ub: int, left: int) -> int:
    """One segment of a span: uniform in [lb, min(ub, left)], absorbing
    remainders too small to host another segment."""
    if left < lb:
        return left
    return rng.randint(lb, min(ub, left))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class _Cell:
    """A free axis-aligned sub-cuboid, anchored at its west-south-down corner."""

    x: int
    y: int
    z: int
    ex: int  # extents
    ey: int
    ez: int


def partition_scheme2(tut: TuType, bounds: PartitionBounds, rng: random.Random) -> list[CarvedBox]:
    """Corner-seeded tunnel carving.

    A free cell is picked at random; a seed box is carved at its corner, a
    random face (up, east, or north) is chosen, and the tunnel behind that
    face is partitioned up to the cell wall with cuts bounded below only.
    The two remaining sub-cells re-enter the pool, so the carving tiles the
    cell exactly by induction. Tunnel cuts have no upper bound; only the
    seed box dimensions respect it.
    """
    bounds.check(tut)
    out: list[CarvedBox] = []
    cells = [_Cell(0, 0, 0, tut.x, tut.y, tut.z)]
    while cells:
        i = rng.randrange(len(cells))
        cell = cells.pop(i)
        xb = _cut(rng, bounds.x_lb, bounds.x_ub, cell.ex)
        yb = _cut(rng, bounds.y_lb, bounds.y_ub, cell.ey)
        zb = _cut(rng, bounds.z_lb, bounds.z_ub, cell.ez)
        out.append(CarvedBox(xb, yb, zb, cell.x, cell.y, cell.z))
        face = rng.randint(1, 3)
        if face == 1:  # tunnel up: fill the seed column to the cell ceiling
            off = zb
            while off < cell.ez:
                seg = _cut(rng, bounds.z_lb, cell.ez, cell.ez - off)
                out.append(CarvedBox(xb, yb, seg, cell.x, cell.y, cell.z + off))
                off += seg
            north = _Cell(cell.x, cell.y + yb, cell.z, xb, cell.ey - yb, cell.ez)
            east = _Cell(cell.x + xb, cell.y, cell.z, cell.ex - xb, cell.ey, cell.ez)
            rest = (north, east)
        elif face == 2:  # tunnel east
            off = xb
            while off < cell.ex:
                seg = _cut(rng, bounds.x_lb, cell.ex, cell.ex - off)
                out.append(CarvedBox(seg, yb, zb, cell.x + off, cell.y, cell.z))
                off += seg
            north = _Cell(cell.x, cell.y + yb, cell.z, cell.ex, cell.ey - yb, cell.ez)
            top = _Cell(cell.x, cell.y, cell.z + zb, cell.ex, yb, cell.ez - zb)
            rest = (north, top)
        else:  # tunnel north
            off = yb
            while off < cell.ey:
                seg = _cut(rng, bounds.y_lb, cell.ey, cell.ey - off)
                out.append(CarvedBox(xb, seg, zb, cell.x, cell.y + off, cell.z))
                off += seg
            east = _Cell(cell.x + xb, cell.y, cell.z, cell.ex - xb, cell.ey, cell.ez)
            top = _Cell(cell.x, cell.y, cell.z + zb, xb, cell.ey, cell.ez - zb)
            rest = (east, top)
        for c in rest:
            if c.ex > 0 and c.ey > 0 and c.ez > 0:
                cells.append(c)
    return out


def partition_scheme3(tut: TuType) -> list[CarvedBox]:
    """Fixed perfect partition of a catalog type into identical boxes."""
    entry = PERFECT_PARTITIONS.get(tut.id)
    if entry is None:
        raise UnknownTypeError(tut.id)
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

    def box_by_id(self, bid: str) -> BoxSpec:
        for b in self.boxes:
            if b.id == bid:
                return b
        raise KeyError(bid)

    def lb_volume_liters(self) -> float | None:
        if self.lower_bound is None:
            return None
        return sum(
            c * t.volume_liters for c, t in zip(self.lower_bound.counts, self.catalog)
        )


def _box_weight(volume_cm3: int, density: float) -> int:
    return int(density * volume_cm3 / 1e6 + 0.5)


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
    and it certifies the lower bound as achievable.
    """
    if scheme not in (1, 2, 3):
        raise ValueError("scheme must be 1, 2 or 3")
    if bounds is None:
        bounds = default_bounds_for(scheme)
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
            tus.append(tu)
    inst = Instance(
        name, boxes, catalog,
        ObjectiveParams(beta=beta), lb,
    )
    return inst, Solution(tus)

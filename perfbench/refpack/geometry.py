"""Domain types and geometric/objective primitives for transport-unit loading.

Coordinates and dimensions are integer centimeters throughout; every geometric
predicate is exact integer arithmetic. The coordinate system has its origin at
the south-west-down corner of the transport unit (TU): X grows east, Y grows
north, Z grows up. A box placement is identified by its west-south-down corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class EmptyTuError(ValueError):
    """Raised when an operation needs at least one placement in the TU."""


class BoxUnpackableError(ValueError):
    """Raised when a box fits no transport unit even when empty."""

    def __init__(self, box_id):
        super().__init__(f"box {box_id!r} fits no available transport unit type")
        self.box_id = box_id


# Axis assignment codes. Each code names which raw dimension (w/l/h) lies
# along X, Y, Z in that order. The first two are always legal (base swap),
# 'whl'/'hwl' put the raw length on Z, 'lhw'/'hlw' put the raw width on Z.
ORIENTATION_CODES = ("wlh", "lwh", "whl", "hwl", "lhw", "hlw")


@dataclass(frozen=True)
class BoxSpec:
    """A package to consolidate.

    ``txz`` allows the raw width to align with the Z axis, ``tyz`` the raw
    length. The base swap (width vs length on X/Y) is always permitted.
    Non-stackable boxes protect the whole column above their top face.
    """

    id: str
    width: int
    length: int
    height: int
    weight: int = 0
    txz: bool = False
    tyz: bool = False
    stackable: bool = True

    def __post_init__(self):
        if min(self.width, self.length, self.height) <= 0:
            raise ValueError(f"box {self.id!r}: dimensions must be positive")
        if self.weight < 0:
            raise ValueError(f"box {self.id!r}: weight must be non-negative")

    @property
    def volume(self) -> int:
        """Volume in cubic centimeters."""
        return self.width * self.length * self.height


@dataclass(frozen=True)
class Orientation:
    """One axis assignment of a box: extents along X, Y, Z."""

    code: str
    w: int
    l: int
    h: int


def _extents(box: BoxSpec, code: str) -> tuple[int, int, int]:
    dims = {"w": box.width, "l": box.length, "h": box.height}
    return dims[code[0]], dims[code[1]], dims[code[2]]


@lru_cache(maxsize=4096)
def enumerate_orientations(box: BoxSpec) -> tuple[Orientation, ...]:
    """All allowed axis assignments of ``box``, deduplicated by extent triple.

    Codes are filtered by the rotation flags: assignments placing the raw
    width on Z require ``txz``, the raw length on Z requires ``tyz``. Order
    follows ORIENTATION_CODES; duplicates keep the earliest code.
    """
    out: list[Orientation] = []
    seen: set[tuple[int, int, int]] = set()
    for code in ORIENTATION_CODES:
        on_z = code[2]
        if on_z == "w" and not box.txz:
            continue
        if on_z == "l" and not box.tyz:
            continue
        ext = _extents(box, code)
        if ext in seen:
            continue
        seen.add(ext)
        out.append(Orientation(code, *ext))
    return tuple(out)


@dataclass(frozen=True)
class TuType:
    """A transport-unit type: base footprint, height limit, weight capacity."""

    id: str
    x: int  # width (cm)
    y: int  # length (cm)
    z: int  # maximum load height (cm)
    q: int  # weight capacity (kg)

    def __post_init__(self):
        if min(self.x, self.y, self.z, self.q) <= 0:
            raise ValueError(f"TU type {self.id!r}: dims and capacity must be positive")

    @property
    def volume_cm3(self) -> int:
        return self.x * self.y * self.z

    @property
    def volume_liters(self) -> float:
        return self.volume_cm3 / 1000.0


@dataclass(frozen=True)
class Placement:
    """A box fixed in a TU: resolved orientation extents plus the anchor corner."""

    box: BoxSpec
    code: str
    w: int
    l: int
    h: int
    x: int
    y: int
    z: int

    @classmethod
    def of(cls, box: BoxSpec, orientation: Orientation, x: int, y: int, z: int) -> "Placement":
        return cls(box, orientation.code, orientation.w, orientation.l, orientation.h, x, y, z)

    @property
    def top(self) -> int:
        return self.z + self.h


def boxes_overlap(a: Placement, b: Placement) -> bool:
    """True iff the two boxes penetrate each other (open-interval intersection).

    Face or edge contact is not an overlap: all three comparisons are strict.
    """
    return (
        max(a.x, b.x) < min(a.x + a.w, b.x + b.w)
        and max(a.y, b.y) < min(a.y + a.l, b.y + b.l)
        and max(a.z, b.z) < min(a.z + a.h, b.z + b.h)
    )


def xy_overlap(a: Placement, b: Placement) -> bool:
    """Strict overlap of the two base rectangles, ignoring height."""
    return (
        max(a.x, b.x) < min(a.x + a.w, b.x + b.w)
        and max(a.y, b.y) < min(a.y + a.l, b.y + b.l)
    )


def within_bounds(p: Placement, tut: TuType) -> bool:
    """True iff the placed box lies fully inside the TU cuboid."""
    return (
        0 <= p.x and p.x + p.w <= tut.x
        and 0 <= p.y and p.y + p.l <= tut.y
        and 0 <= p.z and p.z + p.h <= tut.z
    )


def stacking_violation(below: Placement, above: Placement) -> bool:
    """True iff ``above`` intrudes into the protected column of a non-stackable box.

    The protected region is the open column over the base rectangle of
    ``below`` starting at its top face.
    """
    if below.box.stackable:
        return False
    return xy_overlap(below, above) and above.z + above.h > below.top


@dataclass(frozen=True)
class Violation:
    """One feasibility defect of a loaded TU."""

    kind: str  # orientation | weight | bounds | overlap | stacking
    box_ids: tuple[str, ...]
    detail: str


class LoadedTu:
    """A transport unit with its current load and extreme-point list.

    The EP list is owned by the constructive packer; it is stored here so the
    local searches can keep packing into a TU without rebuilding state. Cached
    numpy views of the placement geometry back the packer's vectorized
    feasibility checks and are rebuilt lazily after each mutation.
    """

    __slots__ = ("tu_type", "placements", "eps", "total_weight", "_geom", "_ep_geom")

    def __init__(self, tu_type: TuType, placements=None, eps=None):
        self.tu_type = tu_type
        self.placements: list[Placement] = list(placements or [])
        self.eps = list(eps or [])
        self.total_weight = sum(p.box.weight for p in self.placements)
        self._geom = None
        self._ep_geom = None

    @property
    def nbox(self) -> int:
        return len(self.placements)

    def clone(self) -> "LoadedTu":
        return LoadedTu(self.tu_type, self.placements, self.eps)

    def invalidate(self):
        self._geom = None
        self._ep_geom = None

    def add(self, placement: Placement):
        self.placements.append(placement)
        self.total_weight += placement.box.weight
        self._geom = None

    def remove_at(self, index: int) -> Placement:
        p = self.placements.pop(index)
        self.total_weight -= p.box.weight
        self.invalidate()
        return p

    def geometry(self):
        """(x, y, z, w, l, h) int64 arrays plus a non-stackable mask."""
        if self._geom is None:
            ps = self.placements
            arr = np.array(
                [(p.x, p.y, p.z, p.w, p.l, p.h) for p in ps], dtype=np.int64
            ).reshape(len(ps), 6)
            nonstack = np.array([not p.box.stackable for p in ps], dtype=bool)
            self._geom = (
                arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4], arr[:, 5],
                nonstack,
            )
        return self._geom

    def ep_geometry(self):
        """(x, y, z, rx, ry, rz) int64 arrays of the current EP list."""
        if self._ep_geom is None:
            arr = np.array(
                [(e.x, e.y, e.z, e.rx, e.ry, e.rz) for e in self.eps], dtype=np.int64
            ).reshape(len(self.eps), 6)
            self._ep_geom = (
                arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3], arr[:, 4], arr[:, 5]
            )
        return self._ep_geom

    def boxes_volume(self) -> int:
        return sum(p.box.volume for p in self.placements)

    def height(self) -> int:
        """Top of the highest placed box, 0 when empty."""
        return max((p.top for p in self.placements), default=0)

    def lateral_slack(self) -> int:
        """Smaller of the unused strips beyond the load's bounding extent on X and Y."""
        if not self.placements:
            return min(self.tu_type.x, self.tu_type.y)
        reach_x = max(p.x + p.w for p in self.placements)
        reach_y = max(p.y + p.l for p in self.placements)
        return min(self.tu_type.x - reach_x, self.tu_type.y - reach_y)

    def __repr__(self):
        return f"LoadedTu({self.tu_type.id}, nbox={self.nbox}, weight={self.total_weight})"


def validate_tu(tu: LoadedTu) -> list[Violation]:
    """Check all five feasibility families; violations are data, not errors.

    Families: legal orientation per rotation flags, weight capacity, TU
    boundaries, pairwise overlap, and stackability (no box may enter the
    column above a non-stackable box).
    """
    out: list[Violation] = []
    tut = tu.tu_type

    for p in tu.placements:
        allowed = {o.code for o in enumerate_orientations(p.box)}
        ext_ok = any(
            (o.w, o.l, o.h) == (p.w, p.l, p.h) for o in enumerate_orientations(p.box)
        )
        if p.code not in allowed or not ext_ok:
            out.append(Violation("orientation", (p.box.id,), f"illegal orientation {p.code}"))
        if not within_bounds(p, tut):
            out.append(Violation("bounds", (p.box.id,), f"box exceeds TU {tut.id} bounds"))

    if tu.total_weight > tut.q:
        ids = tuple(p.box.id for p in tu.placements)
        out.append(Violation("weight", ids, f"load {tu.total_weight} kg > capacity {tut.q} kg"))

    n = len(tu.placements)
    for i in range(n):
        a = tu.placements[i]
        for j in range(i + 1, n):
            b = tu.placements[j]
            if boxes_overlap(a, b):
                out.append(Violation("overlap", (a.box.id, b.box.id), "boxes penetrate"))
            if stacking_violation(a, b):
                out.append(Violation("stacking", (a.box.id, b.box.id),
                                     f"space above non-stackable {a.box.id} not empty"))
            elif stacking_violation(b, a):
                out.append(Violation("stacking", (b.box.id, a.box.id),
                                     f"space above non-stackable {b.box.id} not empty"))
    return out


@dataclass(frozen=True)
class CgReport:
    """Center of gravity of a loaded TU plus its normalized centering measures.

    ``mx``/``my`` measure how far the CG projection sits from the base center
    (0 = dead center, 1 = on the border); ``mz`` is the relative CG height.
    ``mxy`` is their sum, 0 iff the projection hits the base center exactly.
    """

    cg: tuple[float, float, float]
    mx: float
    my: float
    mz: float

    @property
    def mxy(self) -> float:
        return self.mx + self.my


def center_of_gravity(tu: LoadedTu) -> CgReport:
    """Weighted mean of the box centers under homogeneous per-box density.

    A TU whose boxes all weigh zero falls back to volume-weighted centers so
    the centering measures stay defined for weightless fixtures.
    """
    if not tu.placements:
        raise EmptyTuError("center of gravity of an empty TU is undefined")
    if tu.total_weight > 0:
        weights = [p.box.weight for p in tu.placements]
    else:
        weights = [p.box.volume for p in tu.placements]
    total = sum(weights)
    sx = sy = sz = 0.0
    for p, wgt in zip(tu.placements, weights):
        sx += (p.x + p.w / 2.0) * wgt
        sy += (p.y + p.l / 2.0) * wgt
        sz += (p.z + p.h / 2.0) * wgt
    cg = (sx / total, sy / total, sz / total)
    tut = tu.tu_type
    mx = abs(2.0 * cg[0] - tut.x) / tut.x
    my = abs(2.0 * cg[1] - tut.y) / tut.y
    mz = abs(cg[2] / tut.z)
    return CgReport(cg, mx, my, mz)


@dataclass(frozen=True)
class ObjectiveParams:
    """Weights of the solution objective.

    ``theta`` offsets the centering product so the CG term stays commensurate
    with TU volumes; ``beta`` is the fixed per-TU cost. Both are expressed in
    liters, the unit used for TU volumes in the objective.
    """

    alpha: float = 1.0
    theta: float = 100.0
    beta: float = 100.0

    def __post_init__(self):
        if self.alpha < 0 or self.theta < 0 or self.beta < 0:
            raise ValueError("objective parameters must be non-negative")


DEFAULT_OBJECTIVE = ObjectiveParams()


def tu_objective_term(tu: LoadedTu, params: ObjectiveParams) -> float:
    """One TU's contribution: volume (liters) plus the weighted CG term."""
    if not tu.placements:
        raise EmptyTuError("objective term of an empty TU is undefined")
    cg = center_of_gravity(tu)
    return tu.tu_type.volume_liters + params.alpha * (cg.mxy * cg.mz + params.theta)


@dataclass
class Solution:
    """A consolidation: the loaded TUs plus any boxes that could not be placed."""

    tus: list[LoadedTu] = field(default_factory=list)
    unplaced: list[str] = field(default_factory=list)

    def fitness(self, params: ObjectiveParams = DEFAULT_OBJECTIVE) -> float:
        return fitness(self, params)

    def clone(self) -> "Solution":
        return Solution([tu.clone() for tu in self.tus], list(self.unplaced))

    def total_volume_liters(self) -> float:
        return sum(tu.tu_type.volume_liters for tu in self.tus)

    def type_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for tu in self.tus:
            counts[tu.tu_type.id] = counts.get(tu.tu_type.id, 0) + 1
        return counts

    def box_ids(self) -> list[str]:
        return [p.box.id for tu in self.tus for p in tu.placements]


def fitness(sol: Solution, params: ObjectiveParams = DEFAULT_OBJECTIVE) -> float:
    """Objective value: sum of per-TU terms plus the per-TU fixed cost.

    Invariant under reordering of TUs and of placements within a TU.
    """
    total = 0.0
    for tu in sol.tus:
        total += tu_objective_term(tu, params)
    return total + params.beta * len(sol.tus)


def fill_rate(tu: LoadedTu) -> float:
    """Placed-box volume as a percentage of the TU maximum volume."""
    if not tu.placements:
        return 0.0
    return 100.0 * tu.boxes_volume() / tu.tu_type.volume_cm3


# Air freight converts every cubic meter into 167 kg of taxable weight.
KG_PER_M3 = 167


def volumetric_weight(volume_liters: float) -> int:
    """Volume-equivalent weight in kg, rounded half-up to the nearest kg."""
    if volume_liters < 0:
        raise ValueError("volume must be non-negative")
    raw = volume_liters / 1000.0 * KG_PER_M3
    return int(raw + 0.5)


def taxable_weight(real_kg: float, volume_liters: float) -> int:
    """Chargeable weight: the larger of real and volumetric weight."""
    return max(int(real_kg + 0.5), volumetric_weight(volume_liters))


def shipment_cost(taxable_kg: float, rate_per_kg: float) -> float:
    """Freight charge for a taxable weight at a unitary rate."""
    return taxable_kg * rate_per_kg

"""Domain types and geometric/objective primitives for transport-unit loading.

Coordinates and dimensions are integer centimeters throughout; every geometric
predicate is exact integer arithmetic. The coordinate system has its origin at
the south-west-down corner of the transport unit (TU): X grows east, Y grows
north, Z grows up. A box placement is identified by its west-south-down corner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class EmptyTuError(ValueError):
    """Raised when an operation needs at least one placement in the TU."""


def check_nonnegative(**values: float):
    """Raise ``ValueError`` naming the first value that is not a finite
    number >= 0 (NaN and infinities fail)."""
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


# The largest pricing constant or objective weight accepted. With every one
# at most this, no price of int64 coordinates (below 2**63) and no objective
# term or rebuild budget comes near float overflow, so each stays finite.
MAX_COST_CONSTANT = 1e12


class BoxUnpackableError(ValueError):
    """Raised when a box fits no transport unit even when empty."""

    def __init__(self, box_id):
        super().__init__(f"box {box_id!r} fits no available transport unit type")
        self.box_id = box_id

    def __reduce__(self):
        # rebuilt from the box id, not the message, so it crosses a process pool
        return type(self), (self.box_id,)


# Axis assignment codes. Each code names which raw dimension (w/l/h) lies
# along X, Y, Z in that order. The first two are always legal (base swap),
# 'whl'/'hwl' put the raw length on Z, 'lhw'/'hlw' put the raw width on Z.
ORIENTATION_CODES = ("wlh", "lwh", "whl", "hwl", "lhw", "hlw")


@dataclass(frozen=True, slots=True)
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

    @property
    def shape(self) -> tuple[int, int, int, bool, bool, bool]:
        """Everything packing reads of the box but its id and weight: the
        raw extents, the rotation flags and stackability."""
        return (self.width, self.length, self.height, self.txz, self.tyz, self.stackable)


@dataclass(frozen=True, slots=True)
class Orientation:
    """One axis assignment of a box: extents along X, Y, Z."""

    code: str
    w: int
    l: int
    h: int


def extents(box: BoxSpec, code: str) -> tuple[int, int, int]:
    """The box's extents along X, Y, Z under orientation ``code``."""
    dims = {"w": box.width, "l": box.length, "h": box.height}
    return dims[code[0]], dims[code[1]], dims[code[2]]


def orientation_allowed(box: BoxSpec, code: str) -> bool:
    """Whether the rotation flags permit ``code``: the raw width on Z needs
    ``txz``, the raw length on Z needs ``tyz``."""
    return {"w": box.txz, "l": box.tyz, "h": True}[code[2]]


def enumerate_orientations(box: BoxSpec) -> tuple[Orientation, ...]:
    """All allowed axis assignments of ``box``, deduplicated by extent triple.

    Codes are filtered by the rotation flags: assignments placing the raw
    width on Z require ``txz``, the raw length on Z requires ``tyz``. Order
    follows ORIENTATION_CODES; duplicates keep the earliest code. The
    packer caches the answer per ``BoxSpec.shape``.
    """
    out: list[Orientation] = []
    seen: set[tuple[int, int, int]] = set()
    for code in ORIENTATION_CODES:
        if not orientation_allowed(box, code):
            continue
        ext = extents(box, code)
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


@dataclass(frozen=True, slots=True)
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
    """A transport unit with its current load: the TU type, the placements
    in loading order and their total weight. Pure data; the packer's
    ``PackedTu`` adds the state its kernels need."""

    __slots__ = ("tu_type", "placements", "total_weight")

    def __init__(self, tu_type: TuType, placements=()):
        self.tu_type = tu_type
        self.placements: list[Placement] = list(placements)
        self.total_weight = sum(p.box.weight for p in self.placements)

    @property
    def nbox(self) -> int:
        return len(self.placements)

    def clone(self) -> "LoadedTu":
        return LoadedTu(self.tu_type, self.placements)

    def add(self, placement: Placement):
        self.placements.append(placement)
        self.total_weight += placement.box.weight

    def remove_at(self, index: int) -> Placement:
        p = self.placements.pop(index)
        self.total_weight -= p.box.weight
        return p

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
        if not (p.code in ORIENTATION_CODES and orientation_allowed(p.box, p.code)
                and extents(p.box, p.code) == (p.w, p.l, p.h)):
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
        check_nonnegative(alpha=self.alpha, theta=self.theta, beta=self.beta)
        if max(self.alpha, self.theta, self.beta, self.alpha * self.theta) > MAX_COST_CONSTANT:
            raise ValueError(f"objective weights alpha, theta, beta and alpha*theta must be "
                             f"at most {MAX_COST_CONSTANT:g}")


DEFAULT_OBJECTIVE = ObjectiveParams()


def tu_objective_term(tu: LoadedTu, params: ObjectiveParams) -> float:
    """One TU's contribution: volume (liters) plus the weighted CG term;
    ``center_of_gravity`` raises ``EmptyTuError`` for an empty TU."""
    cg = center_of_gravity(tu)
    return tu.tu_type.volume_liters + params.alpha * (cg.mxy * cg.mz + params.theta)


@dataclass
class Solution:
    """A consolidation: the loaded TUs."""

    tus: list[LoadedTu] = field(default_factory=list)

    def clone(self) -> "Solution":
        return Solution([tu.clone() for tu in self.tus])

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
    return 100.0 * sum(p.box.volume for p in tu.placements) / tu.tu_type.volume_cm3


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

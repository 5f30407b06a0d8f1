"""Extreme-point constructive packing of boxes onto transport units.

Boxes are inserted one at a time at candidate anchor positions (extreme
points). Each EP carries residual maxima per axis: the largest extent a box
anchored there may have before hitting the TU wall or the first obstructing
box along that axis ray. Residuals are a necessary but not sufficient fit
condition, so every candidate also passes an exact overlap check against the
boxes already loaded.

One array kernel does the work: a single ray function, a single measure of
covers and residuals, a single fit test and a single pricing formula, each
vectorized over many points or candidates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import (
    MAX_COST_CONSTANT,
    BoxSpec,
    LoadedTu,
    Orientation,
    Placement,
    TuType,
    check_nonnegative,
    enumerate_orientations,
)


class ExtremePoint(NamedTuple):
    """Candidate anchor with residual maxima along each axis: one row of a
    TU's EP array, with names."""

    x: int
    y: int
    z: int
    rx: int
    ry: int
    rz: int


@dataclass(frozen=True)
class CostParams:
    """Constants of the placement pricing formula.

    ``big_n`` scales the EP level term (lower EPs strongly preferred) and
    ``big_m`` the resulting box top (flat layouts preferred); ``theta``
    weights the residual-slack reward and ``lam`` the modulo term that favors
    positions partitioning the remaining span into whole box widths.
    """

    big_n: float = 10_000.0
    big_m: float = 1_000.0
    theta: float = 0.01
    lam: float = 1.0

    def __post_init__(self):
        check_nonnegative(big_n=self.big_n, theta=self.theta, lam=self.lam)
        if not self.big_n > self.big_m > 1:
            raise ValueError("pricing constants must satisfy big_n > big_m > 1")
        if max(self.big_n, self.big_m, self.big_n * self.theta, self.lam) > MAX_COST_CONSTANT:
            raise ValueError(f"pricing constants big_n, big_m, big_n*theta and lam must be at "
                             f"most {MAX_COST_CONSTANT:g}")


@dataclass(frozen=True)
class SortParams:
    """Cluster counts of the insertion-order sort: weight (n) then base area (m)."""

    n: int = 4
    m: int = 4

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("cluster counts must be at least 1")


DEFAULT_COST = CostParams()
DEFAULT_SORT = SortParams()


@dataclass
class PackResult:
    """Outcome of a constructive pack: filled TUs plus boxes that fit nowhere."""

    tus: list[PackedTu]
    unplaced: list[BoxSpec]


def min_height_orientation(box: BoxSpec) -> Orientation:
    """The allowed orientation with the smallest Z extent (ties: code order)."""
    return min(_oriented(box.shape)[0], key=lambda o: o.h)


def sort_boxes(boxes: list[BoxSpec], tut: TuType, sp: SortParams = DEFAULT_SORT) -> list[BoxSpec]:
    """Insertion order: heavy clusters first, then large-base, then tall.

    Each box is first rotated to its minimum-height orientation; it falls in
    one of ``n`` weight clusters of width Q/n and one of ``m`` base-area
    clusters of width X*Y/m. One stable sort orders the boxes by decreasing
    weight cluster, then base-area cluster, then height, so input order breaks
    the ties. Boxes heavier than the capacity land in the top weight cluster.
    """
    q = tut.q
    base_cap = tut.x * tut.y

    def key(box: BoxSpec) -> tuple[int, int, int]:
        o = min_height_orientation(box)
        wi = (box.weight * sp.n + q - 1) // q if box.weight > 0 else 1
        bj = (o.w * o.l * sp.m + base_cap - 1) // base_cap
        return -min(max(wi, 1), sp.n), -min(max(bj, 1), sp.m), -o.h

    return sorted(boxes, key=key)


# ---------------------------------------------------------------------------
# Rays, residuals and EP bookkeeping
#
# A TU's EPs are one read-only int64 (E, 6) array of rows (x, y, z, rx, ry,
# rz). Its load is one int64 (6, P) corner array, a column (x, y, z, x', y',
# z') per box, and a bool (P,) non-stackable mask; ``PackedTu.corners`` holds
# the lower and upper corner rows as (3, P) views, one row per axis, so the
# long box axis is the inner one in every (3, points, boxes) comparison.
# Every change builds new arrays, because ``PackedTu.clone`` shares them. All
# spans are half-open, so faces that merely touch neither cover nor block.

# Reductions are called on their ufuncs directly: ndarray.all, .any, .min
# and .max add a Python-level wrapper call to every kernel step.
_all, _any = np.logical_and.reduce, np.logical_or.reduce


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _ray(lo: np.ndarray, hi: np.ndarray, p: np.ndarray, axes: np.ndarray, own: np.ndarray):
    """Per point (columns of ``p``, one row per axis), the coordinate reached
    going from it toward the origin on its own axis (``axes``, one per point;
    ``own`` is ``_AXES == axes`` as a (3, points, 1) mask): the nearest far
    face of a box whose cross-section covers the point, or the TU wall at 0."""
    p = p[:, :, None]
    # a box is hit when it ends at or before the point on the ray's axis and
    # its spans on the two other axes cover the point (hi <= p gives lo <= p)
    short = (p < hi[:, None]) != own
    hit = _all((lo[:, None] <= p) & short, axis=0)
    return np.maximum.reduce(hi[axes], axis=1, where=hit, initial=0)


_AXES = np.arange(3)[:, None]
# per axis, the two other axes
_OTHER_1, _OTHER_2 = np.array([1, 0, 0]), np.array([2, 2, 1])


def _measure(lo, hi, pts: np.ndarray, dims: np.ndarray):
    """Which points (rows of ``pts``) the boxes (columns of ``lo``/``hi``)
    cover, and each point's residuals: the distance to the nearest box face
    or TU wall ahead on each axis ray. A point inside the walls has room on
    every axis: a blocking box starts beyond it."""
    p, lo = pts.T[:, :, None], lo[:, None]
    start = lo <= p
    inside = start & (p < hi[:, None])
    others = inside.take(_OTHER_1, axis=0) & inside.take(_OTHER_2, axis=0)
    covered = _any(inside[0] & others[0], axis=1)
    # a box blocks the ray on an axis when its spans on the two other axes
    # cover the point and it starts beyond the point there, others > start
    # (one that starts at the point covers it, and a covered point's
    # residuals are moot)
    reach = np.minimum.reduce(np.where(others > start, lo, dims[:, None, None]), axis=2)
    return covered, reach.T - pts


def _unseen(pts: np.ndarray, seeds: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The points inside the TU's walls that repeat neither a seed nor an
    earlier point, in order. Points are told apart by their cell numbers in
    the TU's ``_frame``, kept in a set: O(points + seeds). A point on or
    beyond a wall has no room there, so it is dropped unnumbered."""
    dims, scale = frame
    seen = set((seeds @ scale).tolist())
    keep = []
    for i, (cell, inside) in enumerate(zip((pts @ scale).tolist(),
                                           _all(pts < dims, axis=1).tolist())):
        if inside and cell not in seen:
            seen.add(cell)
            keep.append(i)
    return pts[keep]


# Each rule's starting point as picks from a box's (x, y, z, x', y', z')
# corners: rule 1 the east-south-down corner, rule 2 the west-north-down
# corner, rules 3-5 the top corner.
_START = np.array([[3, 1, 2], [0, 4, 2], [0, 1, 5], [0, 1, 5], [0, 1, 5]]).T
# The rays, as the (rule, axis) of each coordinate they set. Pass one drops
# rules 1-2 down, takes rule 4 south and rule 5 west; pass two takes rules 1
# and 2 south and west from the points they dropped to.
_PASSES = ((np.array([0, 1, 3, 4]), np.array([2, 2, 1, 0])), (np.array([0, 1]), np.array([1, 0])))
_TOP_RULES = np.array([False, False, True, True, True])
# the rules a stackable (True) or non-stackable (False) box keeps, as one row
_RULES_OF = {s: _frozen((_TOP_RULES <= s)[None]) for s in (False, True)}


@lru_cache(maxsize=16)
def _rays_of(n: int):
    """Per ``_PASSES`` pass over ``n`` boxes: its rules and axes, and each
    ray's axis with its ``_ray`` mask, rule-major. ``update_eps`` always
    asks for one box, so that entry stays cached."""
    out = []
    for rules, axes in _PASSES:
        each = _frozen(axes.repeat(n))
        out.append((rules, axes, each, _frozen((_AXES == each)[:, :, None])))
    return tuple(out)


def _candidate_points(lo, hi, rules: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """The up-to-five anchor points each box (columns of the corner array
    ``boxes``) contributes, as (N, 3) rows, box by box and rule by rule;
    ``rules`` (boxes, 5) says which rules each box keeps.

    Rule 1 projects the east-south-down corner down then south; rule 2 the
    west-north-down corner down then west. Rules 3-5 apply only to stackable
    boxes: the top corner itself plus its south and west projections. Rays
    run against the whole load (``lo``/``hi``) in two ``_ray`` passes.
    """
    n = boxes.shape[1]
    pts = boxes[_START]  # (axis, rule, box)
    for rule, axes, each, own in _rays_of(n):
        reach = _ray(lo, hi, pts[:, rule].reshape(3, -1), each, own)
        pts[axes, rule] = reach.reshape(-1, n)
    return pts.transpose(2, 1, 0)[rules]


@lru_cache(maxsize=64)
def _frame(x: int, y: int, z: int) -> np.ndarray:
    """The dimensions of a TU (X, Y, Z), and the weights that number the
    cells of the TU with its walls: a point (x, y, z) inside or on a wall
    is cell x(Y+1)(Z+1) + y(Z+1) + z. Keyed on the dimensions, which hash
    in C, not on the ``TuType``."""
    return _frozen(np.array(((x, y, z), ((y + 1) * (z + 1), z + 1, 1)), dtype=np.int64))


def update_eps(tu: PackedTu, placed: Placement):
    """Refresh the EP array after ``PackedTu.add`` added ``placed`` as the
    TU's last placement: the surviving old EPs, then the new box's projection
    points, in that order.

    Between re-seeds a TU's load only grows, so against the whole load an
    old EP's residual on each axis is the smaller of its old one and the
    distance to the new box, and it dies exactly when the new box covers it.
    The old EPs are therefore cut against the new box alone (the
    residual-space update of Crainic, Perboli & Tadei); an uncovered one
    keeps room, because each cut is a gap to a box that starts beyond it or
    a wall distance. Only the new points are measured against the whole
    load, after dropping those on or beyond a wall and those that repeat an
    earlier one or an old EP point; each survivor that no box covers has room.
    """
    lo, hi, _ = tu.corners
    box, tut = tu.layout[:, -1:], tu.tu_type
    frame, eps = _frame(tut.x, tut.y, tut.z), tu.eps
    covered, cut = _measure(box[:3], box[3:], eps[:, :3], frame[0])
    cand = _candidate_points(lo, hi, _RULES_OF[placed.box.stackable], box)
    new = _unseen(cand, eps[:, :3], frame)
    fresh, resid = _measure(lo, hi, new, frame[0])
    rows = np.concatenate((eps, np.concatenate((new, resid), axis=1)))
    np.minimum(rows[:len(eps), 3:], cut, out=rows[:len(eps), 3:])
    tu.eps = _frozen(rows[~np.concatenate((covered, fresh))])


_ORIGIN = _frozen(np.zeros((1, 3), dtype=np.int64))


def eps_of_layout(tu: PackedTu) -> np.ndarray:
    """The EP array derived from a layout alone, with no construction history:
    the origin, then every box's projection points, all measured against the
    whole load like ``update_eps``'s new points. An empty TU yields the
    single origin EP."""
    if not tu.placements:
        return _origin_eps(tu.tu_type)
    lo, hi, nonstack = tu.corners
    tut = tu.tu_type
    frame = _frame(tut.x, tut.y, tut.z)
    cand = _candidate_points(lo, hi, _TOP_RULES <= ~nonstack[:, None], tu.layout)
    pts = np.concatenate((_ORIGIN, _unseen(cand, _ORIGIN, frame)))
    covered, resid = _measure(lo, hi, pts, frame[0])
    return _frozen(np.concatenate((pts, resid), axis=1)[~covered])


def _origin_eps(tut: TuType) -> np.ndarray:
    return _frozen(np.array([[0, 0, 0, tut.x, tut.y, tut.z]], dtype=np.int64))


class PackedTu(LoadedTu):
    """A TU the packer loads, with the EP array and the layout of its load
    (``layout`` and its ``corners``). ``add`` (``update_eps``) keeps the EPs
    in step with the layout; ``remove_at`` only marks them stale, and
    ``eps`` derives a stale TU's array from the layout (``eps_of_layout``)
    on its first read, so a removal whose EPs are never read costs no
    derivation. All arrays are read-only and replaced, never edited, so
    clones share them, TUs of one layout in a pack share them (``take``),
    and empty TUs share one empty layout. ``PackedTu(tut, placements)``
    starts stale when it has placements."""

    __slots__ = ("_eps", "layout", "corners")

    def __init__(self, tu_type: TuType, placements=()):
        super().__init__(tu_type, placements)
        self.layout, self.corners = _layout(self.placements)
        self._eps = None if self.placements else _origin_eps(tu_type)

    @property
    def eps(self) -> np.ndarray:
        if self._eps is None:
            self._eps = eps_of_layout(self)
        return self._eps

    @eps.setter
    def eps(self, eps: np.ndarray):
        self._eps = eps

    def clone(self) -> "PackedTu":
        """A twin sharing every array; a stale TU derives its EPs first, so
        the two never derive the same layout twice."""
        twin = PackedTu.__new__(PackedTu)
        twin.tu_type, twin.placements = self.tu_type, list(self.placements)
        twin.total_weight, twin._eps = self.total_weight, self.eps
        twin.layout, twin.corners = self.layout, self.corners
        return twin

    def add(self, placement: Placement):
        self.eps  # a stale TU derives its EPs from the layout before it grows
        super().add(placement)
        p = placement
        column = ((p.x,), (p.y,), (p.z,), (p.x + p.w,), (p.y + p.l,), (p.z + p.h,))
        self.layout, self.corners = _with_corners(
            np.concatenate((self.layout, column), axis=1),
            np.concatenate((self.corners[2], (not p.box.stackable,))))
        update_eps(self, placement)

    def take(self, placement: Placement, node: "_Node"):
        """``add`` the placement, taking the arrays ``add`` would build from
        the pack's node of this TU's layout plus the placement."""
        super().add(placement)
        self._eps, self.layout, self.corners = node.eps, node.layout, node.corners

    def remove_at(self, index: int) -> Placement:
        """Take out a placement; the EPs go stale until next read."""
        p = super().remove_at(index)
        self.layout, self.corners = _layout(self.placements)
        self._eps = None
        return p


def _with_corners(layout: np.ndarray, nonstack: np.ndarray):
    """A layout and its ``corners``: lower and upper corner rows, and the
    non-stackable mask, all read-only."""
    layout = _frozen(layout)
    return layout, (layout[:3], layout[3:], _frozen(nonstack))


_EMPTY_LAYOUT = _with_corners(np.zeros((6, 0), dtype=np.int64), np.zeros(0, dtype=bool))


def _layout(placements: list[Placement]):
    """The (6, P) corner array of a load and its ``corners``; every empty
    load shares one read-only value."""
    if not placements:
        return _EMPTY_LAYOUT
    layout = np.array([(p.x, p.y, p.z, p.x + p.w, p.y + p.l, p.z + p.h) for p in placements],
                      dtype=np.int64).T.copy()
    return _with_corners(layout, np.array([not p.box.stackable for p in placements]))


# ---------------------------------------------------------------------------
# Fit test and pricing

@lru_cache(maxsize=4096)
def _oriented(shape: tuple) -> tuple[tuple[Orientation, ...], np.ndarray]:
    """The allowed orientations of every box of this ``BoxSpec.shape``
    (``enumerate_orientations``), and their (O, 3) extents. Keyed on the
    shape, a tuple that hashes and compares in C and that boxes alike but
    for id and weight share; a ``BoxSpec`` key would run its dataclass
    ``__hash__`` and ``__eq__`` on every lookup."""
    oris = enumerate_orientations(BoxSpec("", *shape[:3], 0, *shape[3:]))
    return oris, _frozen(np.array([(o.w, o.l, o.h) for o in oris], dtype=np.int64))


def _room(ep: np.ndarray, ext: np.ndarray):
    """The residual test: whether each extent fits within the EP's residual
    maxima. ``ep`` holds (x, y, z, rx, ry, rz) and ``ext`` (w, l, h) along
    their first axis, as arrays that broadcast."""
    return _all(ext <= ep[3:], axis=0)


def _fits(tu: PackedTu, anchors: np.ndarray, ext: np.ndarray, stackable: bool) -> np.ndarray:
    """Per candidate (rows of ``anchors`` and ``ext``), whether the oriented
    box sits there without overlapping a loaded box, without intruding above
    a non-stackable one, and, when it is itself non-stackable, without a
    loaded box above it. Residuals are checked separately by ``_room``."""
    lo, hi, nonstack = tu.corners
    a = anchors.T[:, :, None]
    top = a + ext.T[:, :, None]
    apart = (lo[:, None] < top) & (a < hi[:, None])
    bad = apart[2]
    if nonstack.any():
        bad = bad | (nonstack & (top[2] > hi[2]))
    if not stackable:
        bad = bad | (hi[2] > top[2])
    return ~_any(apart[0] & apart[1] & bad, axis=1)


def _ep_part(ep, cp: CostParams):
    """The part of a price that depends on the EP alone."""
    x, y, z, rx, ry, _ = ep
    return (cp.big_n + cp.big_m) * z + x + y - cp.big_n * cp.theta * (rx + ry)


def _box_part(ext, cp: CostParams):
    """The part of a price that depends on the orientation alone."""
    w, l, h = ext
    return cp.big_m * h + cp.big_n * cp.theta * (w + l)


def _price(ep, ext, nbox: int, cp: CostParams, ep_part=None, box_part=None):
    """The pricing formula: the EP part, plus the orientation part, plus the
    modulo term, less nbox, summed in that order (``_floor`` relies on it).
    ``ep`` unpacks to (x, y, z, rx, ry, rz) and ``ext`` to (w, l, h), as
    scalars or broadcastable arrays; the parts, when given, are ``_ep_part``
    of ``ep`` and ``_box_part`` of ``ext``, computed already."""
    rx, ry, w, l = ep[3], ep[4], ext[0], ext[1]
    if ep_part is None:
        ep_part = _ep_part(ep, cp)
    if box_part is None:
        box_part = _box_part(ext, cp)
    return (ep_part + box_part) + cp.lam * ((rx % w) + (ry % l)) - nbox


def can_fit(tu: PackedTu, ep, ob: Orientation, box: BoxSpec | None = None) -> bool:
    """Whether an oriented box can sit at this EP (an ``ExtremePoint`` or a row
    of ``tu.eps``).

    Stage one compares extents against the EP residual maxima; stage two
    checks exact overlap and stackability against every loaded box. A box
    within residuals still overlaps whenever an obstruction sits off the
    EP's axis rays, so stage two is never skipped.
    """
    ext = np.array((ob.w, ob.l, ob.h))
    if not _room(np.asarray(ep), ext):
        return False
    stackable = box.stackable if box is not None else True
    return bool(_fits(tu, np.array([ep[:3]]), ext[None], stackable)[0])


def placement_cost(ep, ob: Orientation, nbox: int, cp: CostParams = DEFAULT_COST) -> float:
    """Price of anchoring an oriented box at an EP (lower is better).

    Prefers low, western-southern anchors, low resulting tops, snug use of
    the residual span, positions whose remainder divides into whole box
    extents, and fuller TUs.
    """
    return float(_price(ep, (ob.w, ob.l, ob.h), nbox, cp))


def best_spot(tu: PackedTu, box: BoxSpec, cp: CostParams = DEFAULT_COST, *,
              ep_part: np.ndarray | None = None, box_part: np.ndarray | None = None):
    """Cheapest feasible (EP, orientation) of a box in one TU, or None.

    Every (EP, orientation) pair that passes the residual test is priced at
    once and ranked by (cost, EP index, orientation index): a stable sort of
    the EP-major cost grid gives exactly that order, and its rank 0 is the
    grid's ``argmin``, the first least cost. That candidate is fit-tested
    alone; only when it fails are the others sorted and fit-tested in rank
    order (``_fitting``), and the first that fits wins. Weight capacity is
    respected. ``ep_part`` (per EP) and ``box_part`` (per orientation) are
    the price parts when a caller has them already (``_cheapest``, from the
    pack memo); otherwise ``_price`` computes them.
    """
    eps = tu.eps
    if not len(eps) or tu.total_weight + box.weight > tu.tu_type.q:
        return None
    oris, ext = _oriented(box.shape)
    # (EP, orientation) grids
    cols, ocols = eps.T[:, :, None], ext.T[:, None]
    room = _room(cols, ocols)
    n = np.count_nonzero(room)
    if not n:
        return None
    if ep_part is not None:
        ep_part = ep_part[:, None]
    cost = np.where(room, _price(cols, ocols, tu.nbox, cp, ep_part, box_part), np.inf).ravel()
    at = int(cost.argmin())
    ep_idx, oi = divmod(at, len(ext))
    if not _fits(tu, eps[ep_idx:ep_idx + 1, :3], ext[oi:oi + 1], box.stackable)[0]:
        at = _fitting(tu, eps, ext, np.argsort(cost, kind="stable")[1:n], box.stackable)
        if at is None:
            return None
        ep_idx, oi = divmod(at, len(ext))
    return float(cost[at]), ep_idx, oris[oi]


def _fitting(tu: PackedTu, eps: np.ndarray, ext: np.ndarray, rank: np.ndarray, stackable: bool):
    """The first candidate in ``rank`` that fits, or None when none does.

    Candidates are flat indices into the EP-major grid, in rank order from
    ``best_spot``'s rank 1 on (rank 0 is tested before the sort); they are
    tested in growing blocks, so an early hit costs one small test.
    """
    start, size = 0, 4
    while start < len(rank):
        block = rank[start:start + size]
        ep_idx, oi = np.divmod(block, len(ext))
        fits = _fits(tu, eps[ep_idx, :3], ext[oi], stackable)
        if fits.any():
            return int(block[fits.argmax()])
        start, size = start + size, size * 4
    return None


def place_box(tu: PackedTu, box: BoxSpec, ob: Orientation, ep) -> Placement:
    """Anchor the box at the EP (a row of ``tu.eps`` or an ``ExtremePoint``);
    ``tu.add`` refreshes the TU's EP array."""
    p = Placement.of(box, ob, int(ep[0]), int(ep[1]), int(ep[2]))
    tu.add(p)
    return p


def place_best(tu: PackedTu, box: BoxSpec, cp: CostParams = DEFAULT_COST) -> Placement | None:
    """Place the box at its ``best_spot`` in the TU; None, with the TU's
    load untouched, when it fits nowhere. The twin of ``PackedTu.remove_at``:
    its ``best_spot`` reads the EPs, so it derives them when a removal left
    them stale."""
    spot = best_spot(tu, box, cp)
    if spot is None:
        return None
    _, ep_idx, ob = spot
    return place_box(tu, box, ob, tu.eps[ep_idx])


def fits_empty(box: BoxSpec, tut: TuType) -> bool:
    """Whether the box fits an empty TU of this type in some orientation."""
    if box.weight > tut.q:
        return False
    return any(
        o.w <= tut.x and o.l <= tut.y and o.h <= tut.z
        for o in _oriented(box.shape)[0]
    )


# ---------------------------------------------------------------------------
# Price floor
#
# ``_price`` is (EP part + orientation part) + modulo term - nbox, and the
# modulo term is never negative. Float rounding to nearest is monotone, so
# (least EP part + least orientation part) - nbox, computed with the same
# parts in the same order, is at most the computed price of every (EP,
# orientation) that passes ``_room``, bit for bit. A layout's floor takes the
# least EP part over the EPs whose residuals reach the box's smallest extent
# on every axis.

class _Node:
    """A layout in ``pack_3dbp``'s trie: one sequence of placements, held by
    every TU of the pack whose load it is. It keeps the arrays of that load
    (``PackedTu.take`` hands them to a TU that reaches it), the
    ``best_spot`` answer per box shape and the EP parts of the prices, and
    its ``children``: the layouts one placement further, keyed by that
    placement's orientation code, anchor and box shape.

    The EPs and corners are a function of the placements. Past the weight
    check, which ``_cheapest`` makes per TU before it reads a node, a
    ``best_spot`` answer is a function of those arrays, the box count, the
    box shape and the pricing constants, so every TU at the node reads it."""

    __slots__ = ("eps", "layout", "corners", "spots", "ep_part", "children")

    def __init__(self, tu: PackedTu):
        self.eps, self.layout, self.corners = tu.eps, tu.layout, tu.corners
        self.spots: dict = {}
        self.ep_part: np.ndarray | None = None
        self.children: dict = {}


def _cheapest(tus: list[PackedTu], nodes: list[_Node], box: BoxSpec, shape: tuple,
              cp: CostParams):
    """The box's cheapest spot over the open TUs as (cost, TU index, EP
    index, orientation), ties to the lowest TU index; None when none has one.

    A TU's ``best_spot`` answer depends on the box only through its
    ``shape``, so the answers of the TUs' nodes are read first. Of the TUs
    that share a node only the first can win a tie, so ``best_spot`` runs
    on that one alone, and on the other nodes' first TUs in order of their
    price floors; a TU is skipped when its (floor, TU index) is above the
    best (cost, TU index) so far, which it then can never beat. A TU with
    no EP that reaches the box's smallest extents gets None without a call.
    The weight check stays per TU. This is the one place a pack reads or
    fills a node's ``spots``, a fresh TU's root node included.
    """
    best, missing = None, {}
    for ti, tu in enumerate(tus):
        if tu.total_weight + box.weight > tu.tu_type.q:
            continue
        node = nodes[ti]
        spots = node.spots
        if shape not in spots:
            missing.setdefault(node, ti)
        elif (spot := spots[shape]) is not None and (best is None or spot[0] < best[0]):
            best = (spot[0], ti, spot[1], spot[2])
    if not missing:
        return best
    if best is None and len(missing) == 1:
        order, box_part = [(None, ti, node) for node, ti in missing.items()], None
    else:
        ext = _oriented(shape)[1]
        low, box_part = ext.min(axis=0), _box_part(ext.T, cp)
        least = float(box_part.min())
        order = []
        for node, ti in missing.items():
            floor = _floor(node, low, least, cp)
            if floor is None:
                node.spots[shape] = None
            else:
                order.append((floor, ti, node))
        order.sort()  # (floor, TU index) pairs are distinct: nodes never compare
    for floor, ti, node in order:
        if best is not None and (floor, ti) > best[:2]:
            continue
        spot = node.spots[shape] = best_spot(tus[ti], box, cp, ep_part=node.ep_part,
                                             box_part=box_part)
        if spot is not None and (best is None or (spot[0], ti) < best[:2]):
            best = (spot[0], ti, spot[1], spot[2])
    return best


def _floor(node: _Node, low: np.ndarray, box_part: float, cp: CostParams):
    """The layout's price floor for a box of smallest extents ``low`` (per
    axis) and least orientation part ``box_part``; None when no EP's
    residuals reach ``low`` on every axis, so that no (EP, orientation)
    passes ``_room``. Fills in the node's EP parts."""
    if node.ep_part is None:
        node.ep_part = _ep_part(node.eps.T, cp)
    parts = node.ep_part[_all(node.eps[:, 3:] >= low, axis=1)]
    if not len(parts):
        return None
    return float(np.minimum.reduce(parts)) + box_part - node.layout.shape[1]


def pack_3dbp(
    tut: TuType,
    boxes: list[BoxSpec],
    cp: CostParams = DEFAULT_COST,
    sp: SortParams = DEFAULT_SORT,
    *,
    max_tus: int | None = None,
) -> PackResult:
    """Sorted constructive insertion into TUs of a single type.

    Each box lands at the feasible (TU, EP, orientation) triple of minimum
    price across all open TUs (``_cheapest``); when none exists a new TU is
    opened with the origin EP and ``_cheapest`` asked again, so the box lands
    at its cheapest orientation there. Boxes that cannot fit even an empty
    TU of this type are reported unplaced. Deterministic: no randomness
    anywhere in this path.

    ``max_tus`` caps the TUs this call opens: the pack stops at the first box
    that would need one more, and reports that box and every later one (in
    insertion order) unplaced. Up to that box it is the uncapped pack.

    TUs that repeat a placement sequence share its ``_Node``: every TU
    starts at one root, and a placement whose child node exists takes the
    child's arrays instead of running ``update_eps``. A child is linked into
    its parent only for a box shape that occurs more than once in the pack,
    since only such a placement can repeat; the trie lives for this call.
    """
    tus: list[PackedTu] = []
    nodes: list[_Node] = []
    unplaced: list[BoxSpec] = []
    order = sort_boxes(boxes, tut, sp)
    shapes = [box.shape for box in order]
    repeated = {shape for shape, n in Counter(shapes).items() if n > 1}
    root = _Node(PackedTu(tut))
    for i, (box, shape) in enumerate(zip(order, shapes)):
        if not fits_empty(box, tut):
            unplaced.append(box)
            continue
        best = _cheapest(tus, nodes, box, shape, cp)
        if best is None:
            if len(tus) == max_tus:
                unplaced.extend(order[i:])
                break
            tus.append(PackedTu(tut))
            nodes.append(root)
            best = _cheapest(tus, nodes, box, shape, cp)
        _, ti, ep_idx, ob = best
        tu, node = tus[ti], nodes[ti]
        x, y, z = node.eps[ep_idx, :3].tolist()
        placed = Placement.of(box, ob, x, y, z)
        key = (ob.code, x, y, z, shape)
        child = node.children.get(key)
        if child is None:
            tu.add(placed)
            child = _Node(tu)
            if shape in repeated:
                node.children[key] = child
        else:
            tu.take(placed, child)
        nodes[ti] = child
    return PackResult(tus, unplaced)

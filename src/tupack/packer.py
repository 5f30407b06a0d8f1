"""Extreme-point constructive packing of boxes onto transport units.

Boxes are inserted one at a time at candidate anchor positions (extreme
points). Each EP carries residual maxima per axis: the largest extent a box
anchored there may have before hitting the TU wall or the first obstructing
box along that axis ray. Residuals are a necessary but not sufficient fit
condition, so every candidate also passes an exact overlap check against the
boxes already loaded.

One array kernel does the work: a single ray function, a single fit test and
a single pricing formula, each vectorized over many points or candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import (
    BoxSpec,
    LoadedTu,
    Orientation,
    Placement,
    TuType,
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
        if not self.big_n > self.big_m > 1:
            raise ValueError("pricing constants must satisfy big_n > big_m > 1")
        if self.theta < 0 or self.lam < 0:
            raise ValueError("theta and lam must be non-negative")


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

    tus: list[LoadedTu]
    unplaced: list[BoxSpec]


def min_height_orientation(box: BoxSpec) -> Orientation:
    """The allowed orientation with the smallest Z extent (ties: code order)."""
    return min(enumerate_orientations(box), key=lambda o: o.h)


def sort_boxes(boxes: list[BoxSpec], tut: TuType, sp: SortParams = DEFAULT_SORT) -> list[BoxSpec]:
    """Insertion order: heavy clusters first, then large-base, then tall.

    Each box is first rotated to its minimum-height orientation; boxes are
    bucketed into ``n`` weight clusters of width Q/n and, within those, into
    ``m`` base-area clusters of width X*Y/m. Buckets are emitted heaviest and
    largest first, internally sorted by decreasing height, stable on input
    order. Boxes heavier than the capacity land in the top weight cluster.
    """
    q = tut.q
    base_cap = tut.x * tut.y
    buckets: dict[tuple[int, int], list[tuple[int, BoxSpec]]] = {}
    for box in boxes:
        o = min_height_orientation(box)
        wi = (box.weight * sp.n + q - 1) // q if box.weight > 0 else 1
        wi = min(max(wi, 1), sp.n)
        area = o.w * o.l
        bj = (area * sp.m + base_cap - 1) // base_cap
        bj = min(max(bj, 1), sp.m)
        buckets.setdefault((wi, bj), []).append((o.h, box))
    ordered: list[BoxSpec] = []
    for i in range(sp.n, 0, -1):
        for j in range(sp.m, 0, -1):
            group = buckets.get((i, j))
            if not group:
                continue
            group.sort(key=lambda t: -t[0])  # stable: input order breaks height ties
            ordered.extend(box for _, box in group)
    return ordered


# ---------------------------------------------------------------------------
# Rays, residuals and EP bookkeeping
#
# A TU's EPs are one read-only int64 (E, 6) array of rows (x, y, z, rx, ry,
# rz). Every change builds a new array, because ``LoadedTu.clone`` shares it.
# Placements are read from ``LoadedTu.geometry`` as (3, P) lower and upper
# corner arrays, one row per axis, so the long box axis is the inner one in
# every (3, points, boxes) comparison. All spans are half-open, so faces
# that merely touch neither cover nor block.

def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _ray(lo: np.ndarray, hi: np.ndarray, pts: np.ndarray, axis: int) -> np.ndarray:
    """Per point, the coordinate reached going from it toward the origin on
    ``axis``: the nearest far face of a box whose cross-section covers the
    point, or the TU wall at 0."""
    p = pts.T[:, :, None]
    inside = (lo[:, None] <= p) & (p < hi[:, None])
    inside[axis] = hi[axis] <= p[axis]
    hit = inside[0] & inside[1] & inside[2]
    return np.where(hit, hi[axis], 0).max(axis=1, initial=0)


# per axis, the two other axes
_OTHER_1, _OTHER_2 = np.array([1, 0, 0]), np.array([2, 2, 1])


def _live(lo, hi, pts: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """The EP array of candidate points measured against the whole load.

    Keeps the first occurrence of each point inside the TU (coordinates are
    never negative), in order, and of those the points that no box covers
    and that have room on every axis. A residual is the distance to the
    nearest box face or TU wall ahead on that axis ray.
    """
    pts = pts[(pts < dims).all(axis=1)]
    _, first = np.unique(pts @ (dims[1] * dims[2], dims[2], 1), return_index=True)
    pts = pts[np.sort(first)]
    p = pts.T[:, :, None]
    inside = (lo[:, None] <= p) & (p < hi[:, None])
    # a box blocks the ray on an axis when it starts at or beyond the point
    # there and its spans on the two other axes cover the point
    others = inside[_OTHER_1] & inside[_OTHER_2]
    covered = (inside[0] & others[0]).any(axis=1)
    reach = np.where((lo[:, None] >= p) & others, lo[:, None], dims[:, None, None]).min(axis=2)
    resid = reach.T - pts
    keep = ~covered & (resid > 0).all(axis=1)
    return np.concatenate((pts[keep], resid[keep]), axis=1)


def _candidate_points(lo, hi, stackable: np.ndarray, blo, bhi) -> np.ndarray:
    """The up-to-five anchor points each box (columns of ``blo``/``bhi``)
    contributes, as (N, 3) rows, box by box and rule by rule.

    Rule 1 projects the east-south-down corner down then south; rule 2 the
    west-north-down corner down then west. Rules 3-5 apply only to stackable
    boxes: the top corner itself plus its south and west projections. Rays
    run against the whole load (``lo``/``hi``).
    """
    n = blo.shape[1]
    pts = np.repeat(blo.T[:, None], 5, axis=1)  # (box, rule, axis)
    pts[:, 0, 0] = bhi[0]  # rule 1 starts at the east-south-down corner
    pts[:, 1, 1] = bhi[1]  # rule 2 at the west-north-down corner
    pts[:, 2:, 2] = bhi[2][:, None]  # rules 3-5 at the top corner
    # rules 1-2 drop down; then rules 1 and 4 go south, rules 2 and 5 go west
    pts[:, :2, 2] = _ray(lo, hi, pts[:, :2].reshape(-1, 3), 2).reshape(n, 2)
    pts[:, (0, 3), 1] = _ray(lo, hi, pts[:, (0, 3)].reshape(-1, 3), 1).reshape(n, 2)
    pts[:, (1, 4), 0] = _ray(lo, hi, pts[:, (1, 4)].reshape(-1, 3), 0).reshape(n, 2)
    rules = np.ones((n, 5), dtype=bool)
    rules[:, 2:] = stackable[:, None]
    return pts[rules]


@lru_cache(maxsize=64)
def _dims(tut: TuType) -> np.ndarray:
    return _frozen(np.array((tut.x, tut.y, tut.z), dtype=np.int64))


def update_eps(tu: LoadedTu, placed: Placement):
    """Refresh the EP array after an insertion: the old EP points, then the
    new box's projection points, re-measured against the whole load.

    Loads only grow between re-seeds, so an old EP's new residual is the
    smaller of its old one and the distance to the new box, and it dies when
    the new box covers it; measuring against the whole load gives exactly
    that (the residual-space update of Crainic, Perboli & Tadei).
    """
    lo, hi, _ = tu.geometry()
    box = np.array([[placed.x, placed.y, placed.z, placed.w, placed.l, placed.h]]).T
    blo, bhi = box[:3], box[:3] + box[3:]
    cand = _candidate_points(lo, hi, np.array([placed.box.stackable]), blo, bhi)
    tu.eps = _frozen(_live(lo, hi, np.concatenate((tu.eps[:, :3], cand)), _dims(tu.tu_type)))


def eps_of_layout(tu: LoadedTu) -> np.ndarray:
    """The EP array derived from a layout alone, with no construction history:
    the origin, then every box's projection points, measured like
    ``update_eps``. An empty TU yields the single origin EP."""
    if not tu.placements:
        return _origin_eps(tu.tu_type)
    lo, hi, nonstack = tu.geometry()
    origin = np.zeros((1, 3), dtype=np.int64)
    pts = np.concatenate((origin, _candidate_points(lo, hi, ~nonstack, lo, hi)))
    return _frozen(_live(lo, hi, pts, _dims(tu.tu_type)))


def _origin_eps(tut: TuType) -> np.ndarray:
    return _frozen(np.array([[0, 0, 0, tut.x, tut.y, tut.z]], dtype=np.int64))


def fresh_tu(tut: TuType) -> LoadedTu:
    """An empty TU whose EP array holds only the origin."""
    return LoadedTu(tut, eps=_origin_eps(tut))


# ---------------------------------------------------------------------------
# Fit test and pricing

@lru_cache(maxsize=4096)
def _extents(box: BoxSpec) -> np.ndarray:
    """(O, 3) extents of the box's allowed orientations, in enumeration order."""
    return _frozen(np.array([(o.w, o.l, o.h) for o in enumerate_orientations(box)], dtype=np.int64))


def _room(ep, ext):
    """The residual test: whether each extent fits within the EP's residual
    maxima. ``ep`` unpacks to (x, y, z, rx, ry, rz) and ``ext`` to (w, l, h),
    as scalars or broadcastable arrays."""
    _, _, _, rx, ry, rz = ep
    w, l, h = ext
    return (w <= rx) & (l <= ry) & (h <= rz)


def _fits(tu: LoadedTu, anchors: np.ndarray, ext: np.ndarray, stackable: bool) -> np.ndarray:
    """Per candidate (rows of ``anchors`` and ``ext``), whether the oriented
    box sits there without overlapping a loaded box, without intruding above
    a non-stackable one, and, when it is itself non-stackable, without a
    loaded box above it. Residuals are checked separately by ``_room``."""
    lo, hi, nonstack = tu.geometry()
    a = anchors.T[:, :, None]
    top = a + ext.T[:, :, None]
    apart = (lo[:, None] < top) & (a < hi[:, None])
    bad = apart[2]
    if nonstack.any():
        bad = bad | (nonstack & (top[2] > hi[2]))
    if not stackable:
        bad = bad | (hi[2] > top[2])
    return ~(apart[0] & apart[1] & bad).any(axis=1)


def _price(ep, ext, nbox: int, cp: CostParams):
    """The pricing formula. ``ep`` unpacks to (x, y, z, rx, ry, rz) and
    ``ext`` to (w, l, h), as scalars or broadcastable arrays."""
    x, y, z, rx, ry, rz = ep
    w, l, h = ext
    return (
        cp.big_n * z + x + y
        + cp.big_m * (z + h)
        - cp.big_n * cp.theta * ((rx - w) + (ry - l))
        + cp.lam * ((rx % w) + (ry % l))
        - nbox
    )


def can_fit(tu: LoadedTu, ep, ob: Orientation, box: BoxSpec | None = None) -> bool:
    """Whether an oriented box can sit at this EP (an ``ExtremePoint`` or a row
    of ``tu.eps``).

    Stage one compares extents against the EP residual maxima; stage two
    checks exact overlap and stackability against every loaded box. A box
    within residuals still overlaps whenever an obstruction sits off the
    EP's axis rays, so stage two is never skipped.
    """
    ext = (ob.w, ob.l, ob.h)
    if not _room(ep, ext):
        return False
    if not tu.placements:
        return True
    stackable = box.stackable if box is not None else True
    return bool(_fits(tu, np.array([ep[:3]]), np.array([ext]), stackable)[0])


def placement_cost(ep, ob: Orientation, nbox: int, cp: CostParams = DEFAULT_COST) -> float:
    """Price of anchoring an oriented box at an EP (lower is better).

    Prefers low, western-southern anchors, low resulting tops, snug use of
    the residual span, positions whose remainder divides into whole box
    extents, and fuller TUs.
    """
    return float(_price(ep, (ob.w, ob.l, ob.h), nbox, cp))


def best_spot(tu: LoadedTu, box: BoxSpec, cp: CostParams = DEFAULT_COST):
    """Cheapest feasible (EP, orientation) of a box in one TU, or None.

    Every (EP, orientation) pair that passes the residual test is priced at
    once and ranked by (cost, EP index, orientation index): a stable sort of
    the EP-major cost grid gives exactly that order. The ranked candidates
    are then fit-tested in order, and the first that fits wins. Weight
    capacity is respected.
    """
    eps = tu.eps
    if not len(eps) or tu.total_weight + box.weight > tu.tu_type.q:
        return None
    ext = _extents(box)
    # (orientation, EP) grids, transposed to EP-major before ranking
    cols, ocols = np.ascontiguousarray(eps.T)[:, None], ext.T[:, :, None]
    room = _room(cols, ocols)
    n = np.count_nonzero(room)
    if not n:
        return None
    cost = np.where(room, _price(cols, ocols, tu.nbox, cp), np.inf).T.ravel()
    rank = np.argsort(cost, kind="stable")[:n]
    if tu.placements:
        rank = _fitting(tu, eps, ext, rank, box.stackable)
        if not len(rank):
            return None
    ep_idx, oi = divmod(int(rank[0]), len(ext))
    return float(cost[rank[0]]), ep_idx, enumerate_orientations(box)[oi]


def _fitting(tu: LoadedTu, eps: np.ndarray, ext: np.ndarray, rank: np.ndarray, stackable: bool):
    """``rank`` from its first candidate that fits on (empty when none does).

    Candidates are flat indices into the EP-major grid; they are tested in
    growing blocks, so an early hit costs one small test.
    """
    start, size = 0, 4
    while start < len(rank):
        block = rank[start:start + size]
        fits = _fits(tu, eps[block // len(ext), :3], ext[block % len(ext)], stackable)
        if fits.any():
            return rank[start + int(fits.argmax()):]
        start, size = start + size, size * 4
    return rank[:0]


def place_box(tu: LoadedTu, box: BoxSpec, ob: Orientation, ep) -> Placement:
    """Anchor the box at the EP (a row of ``tu.eps`` or an ``ExtremePoint``)
    and refresh the TU's EP array."""
    p = Placement.of(box, ob, int(ep[0]), int(ep[1]), int(ep[2]))
    tu.add(p)
    update_eps(tu, p)
    return p


def remove_box(tu: LoadedTu, index: int) -> Placement:
    """Take out the placement at ``index`` and re-seed the TU's EP array
    from the remaining layout; the twin of ``place_box``."""
    p = tu.remove_at(index)
    tu.eps = eps_of_layout(tu)
    return p


def fits_empty(box: BoxSpec, tut: TuType) -> bool:
    """Whether the box fits an empty TU of this type in some orientation."""
    if box.weight > tut.q:
        return False
    return any(
        o.w <= tut.x and o.l <= tut.y and o.h <= tut.z
        for o in enumerate_orientations(box)
    )


def pack_3dbp(
    tut: TuType,
    boxes: list[BoxSpec],
    cp: CostParams = DEFAULT_COST,
    sp: SortParams = DEFAULT_SORT,
    open_tus: list[LoadedTu] | None = None,
    max_tus: int | None = None,
) -> PackResult:
    """Sorted constructive insertion into TUs of a single type.

    Each box lands at the feasible (TU, EP, orientation) triple of minimum
    price across all open TUs; when none exists a new TU is opened with the
    origin EP and the box placed at its cheapest orientation there. Boxes
    that cannot fit even an empty TU of this type are reported unplaced.
    ``open_tus`` lets a caller resume packing into existing TUs; they are
    mutated in place. Deterministic: no randomness anywhere in this path.

    ``max_tus`` caps the TUs this call opens: the pack stops at the first box
    that would need one more, and reports that box and every later one (in
    insertion order) unplaced. Up to that box it is the uncapped pack.

    A TU's ``best_spot`` answer depends on the box only through its shape
    (extents, rotation flags, stackability), so it is kept per TU and shape
    and reused until a box is placed in that TU. The weight check stays per
    box.
    """
    tus: list[LoadedTu] = list(open_tus) if open_tus else []
    spots: list[dict] = [{} for _ in tus]
    unplaced: list[BoxSpec] = []
    limit = len(tus) + max_tus if max_tus is not None else None
    order = sort_boxes(boxes, tut, sp)
    for i, box in enumerate(order):
        if not fits_empty(box, tut):
            unplaced.append(box)
            continue
        shape = (box.width, box.length, box.height, box.txz, box.tyz, box.stackable)
        best = None
        for ti, tu in enumerate(tus):
            if tu.total_weight + box.weight > tu.tu_type.q:
                continue
            memo = spots[ti]
            if shape not in memo:
                memo[shape] = best_spot(tu, box, cp)
            spot = memo[shape]
            if spot is None:
                continue
            cost, ep_idx, ob = spot
            if best is None or cost < best[0]:
                best = (cost, ti, ep_idx, ob)
        if best is None:
            if len(tus) == limit:
                unplaced.extend(order[i:])
                break
            tu = fresh_tu(tut)
            tus.append(tu)
            spots.append({})
            _, ep_idx, ob = best_spot(tu, box, cp)
        else:
            _, ti, ep_idx, ob = best
            tu = tus[ti]
            spots[ti].clear()
        place_box(tu, box, ob, tu.eps[ep_idx])
    return PackResult(tus, unplaced)

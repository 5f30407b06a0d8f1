"""Extreme-point constructive packing of boxes onto transport units.

Boxes are inserted one at a time at candidate anchor positions (extreme
points). Each EP carries residual maxima per axis: the largest extent a box
anchored there may have before hitting the TU wall or the first obstructing
box along that axis ray. Residuals are a necessary but not sufficient fit
condition, so every candidate also passes an exact overlap check against the
boxes already loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    BoxSpec,
    LoadedTu,
    Orientation,
    Placement,
    TuType,
    enumerate_orientations,
)


@dataclass(frozen=True)
class ExtremePoint:
    """Candidate anchor with residual maxima along each axis."""

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
# Residual rays and EP bookkeeping

def _drop_down(x: int, y: int, z: int, tu: LoadedTu) -> int:
    """Z of the first top face (or the floor) below the point on its XY column."""
    if not tu.placements:
        return 0
    px, py, pz, pw, pl, ph, _ = tu.geometry()
    tops = pz + ph
    hit = (tops <= z) & (px <= x) & (x < px + pw) & (py <= y) & (y < py + pl)
    return int(tops[hit].max()) if hit.any() else 0


def _project_south(x: int, y: int, z: int, tu: LoadedTu) -> int:
    """Y of the first north face (or the south wall) hit going south."""
    if not tu.placements:
        return 0
    px, py, pz, pw, pl, ph, _ = tu.geometry()
    norths = py + pl
    hit = (norths <= y) & (px <= x) & (x < px + pw) & (pz <= z) & (z < pz + ph)
    return int(norths[hit].max()) if hit.any() else 0


def _project_west(x: int, y: int, z: int, tu: LoadedTu) -> int:
    """X of the first east face (or the west wall) hit going west."""
    if not tu.placements:
        return 0
    px, py, pz, pw, pl, ph, _ = tu.geometry()
    easts = px + pw
    hit = (easts <= x) & (py <= y) & (y < py + pl) & (pz <= z) & (z < pz + ph)
    return int(easts[hit].max()) if hit.any() else 0


def _candidate_points(p: Placement, tu: LoadedTu) -> list[tuple[int, int, int]]:
    """The up-to-five anchor points a placed box contributes.

    Rule 1 projects the east-south-down corner down then south; rule 2 the
    west-north-down corner down then west. Rules 3-5 apply only to stackable
    boxes: the top corner itself plus its south and west projections.
    """
    pts = []
    ex, ny, tz = p.x + p.w, p.y + p.l, p.z + p.h

    zz = _drop_down(ex, p.y, p.z, tu)
    pts.append((ex, _project_south(ex, p.y, zz, tu), zz))

    zz = _drop_down(p.x, ny, p.z, tu)
    pts.append((_project_west(p.x, ny, zz, tu), ny, zz))

    if p.box.stackable:
        pts.append((p.x, p.y, tz))
        pts.append((p.x, _project_south(p.x, p.y, tz, tu), tz))
        pts.append((_project_west(p.x, p.y, tz, tu), p.y, tz))
    return pts


def _build_eps(tu: LoadedTu, points) -> list[ExtremePoint]:
    """Filter candidate points into live EPs with freshly computed residuals.

    Drops points outside the open TU interior, points swallowed by a box's
    anchor region, and points whose residual vanished on any axis; duplicate
    coordinates keep their first occurrence. A residual is the distance to
    the first obstruction along the axis ray: a box obstructs +X iff it
    starts at or beyond the point and its Y and Z spans cover it (half-open,
    so a face merely touching the ray line does not block). All points are
    measured in one vectorized pass against the placement arrays.
    """
    tut = tu.tu_type
    seen: set[tuple[int, int, int]] = set()
    pts: list[tuple[int, int, int]] = []
    for p in points:
        if p in seen:
            continue
        seen.add(p)
        if 0 <= p[0] < tut.x and 0 <= p[1] < tut.y and 0 <= p[2] < tut.z:
            pts.append(p)
    if not pts:
        return []
    if not tu.placements:
        return [
            ExtremePoint(x, y, z, tut.x - x, tut.y - y, tut.z - z) for (x, y, z) in pts
        ]
    px, py, pz, pw, pl, ph, _ = tu.geometry()
    pt = np.array(pts, dtype=np.int64)
    xs, ys, zs = pt[:, 0:1], pt[:, 1:2], pt[:, 2:3]
    cov_x = (px[None, :] <= xs) & (xs < (px + pw)[None, :])
    cov_y = (py[None, :] <= ys) & (ys < (py + pl)[None, :])
    cov_z = (pz[None, :] <= zs) & (zs < (pz + ph)[None, :])
    covered = (cov_x & cov_y & cov_z).any(axis=1)
    rx = np.where((px[None, :] >= xs) & cov_y & cov_z, px[None, :], tut.x).min(axis=1) - pt[:, 0]
    ry = np.where((py[None, :] >= ys) & cov_x & cov_z, py[None, :], tut.y).min(axis=1) - pt[:, 1]
    rz = np.where((pz[None, :] >= zs) & cov_x & cov_y, pz[None, :], tut.z).min(axis=1) - pt[:, 2]
    keep = ~covered & (rx > 0) & (ry > 0) & (rz > 0)
    return [
        ExtremePoint(pts[i][0], pts[i][1], pts[i][2], int(rx[i]), int(ry[i]), int(rz[i]))
        for i in np.nonzero(keep)[0]
    ]


def update_eps(tu: LoadedTu, placed: Placement):
    """Refresh the EP list after an insertion.

    The consumed EP disappears (it is now covered by the box), the new box
    contributes its projection points, and every surviving EP gets its
    residuals recomputed against the enlarged load.
    """
    points = [(e.x, e.y, e.z) for e in tu.eps]
    points.extend(_candidate_points(placed, tu))
    tu.eps = _build_eps(tu, points)
    tu._ep_geom = None


def eps_of_layout(tu: LoadedTu) -> list[ExtremePoint]:
    """The EP set derived from a layout alone, with no construction history.

    Used to re-seed a TU after a local-search removal: the origin plus every
    box's projection points, filtered and measured exactly like the
    incremental update. An empty TU yields the single origin EP.
    """
    points: list[tuple[int, int, int]] = [(0, 0, 0)]
    for p in tu.placements:
        points.extend(_candidate_points(p, tu))
    return _build_eps(tu, points)


def fresh_tu(tut: TuType) -> LoadedTu:
    """An empty TU whose EP list holds only the origin."""
    tu = LoadedTu(tut)
    tu.eps = [ExtremePoint(0, 0, 0, tut.x, tut.y, tut.z)]
    return tu


# ---------------------------------------------------------------------------
# Fit test and pricing

def can_fit(tu: LoadedTu, ep: ExtremePoint, ob: Orientation, box: BoxSpec | None = None) -> bool:
    """Whether an oriented box can sit at this EP.

    Stage one compares extents against the EP residual maxima; stage two
    checks exact overlap and stackability against every loaded box. A box
    within residuals still overlaps whenever an obstruction sits off the
    EP's axis rays, so stage two is never skipped.
    """
    if ob.w > ep.rx or ob.l > ep.ry or ob.h > ep.rz:
        return False
    if not tu.placements:
        return True
    stackable = box.stackable if box is not None else True
    px, py, pz, pw, pl, ph, nonstack = tu.geometry()
    x0, y0, z0 = ep.x, ep.y, ep.z
    ox = (np.maximum(px, x0) < np.minimum(px + pw, x0 + ob.w))
    oy = (np.maximum(py, y0) < np.minimum(py + pl, y0 + ob.l))
    if bool((ox & oy & (np.maximum(pz, z0) < np.minimum(pz + ph, z0 + ob.h))).any()):
        return False
    xy = ox & oy
    # intruding above a non-stackable box, or pre-existing boxes above a
    # non-stackable candidate
    if bool((xy & nonstack & (z0 + ob.h > pz + ph)).any()):
        return False
    if not stackable and bool((xy & (pz + ph > z0 + ob.h)).any()):
        return False
    return True


def placement_cost(ep: ExtremePoint, ob: Orientation, nbox: int, cp: CostParams = DEFAULT_COST) -> float:
    """Price of anchoring an oriented box at an EP (lower is better).

    Prefers low, western-southern anchors, low resulting tops, snug use of
    the residual span, positions whose remainder divides into whole box
    extents, and fuller TUs.
    """
    return (
        cp.big_n * ep.z + ep.x + ep.y
        + cp.big_m * (ep.z + ob.h)
        - cp.big_n * cp.theta * ((ep.rx - ob.w) + (ep.ry - ob.l))
        + cp.lam * ((ep.rx % ob.w) + (ep.ry % ob.l))
        - nbox
    )


def best_spot(tu: LoadedTu, box: BoxSpec, cp: CostParams = DEFAULT_COST):
    """Cheapest feasible (EP, orientation) of a box in one TU, or None.

    Vectorized over the EP list per orientation; ties resolve to the lowest
    cost, then the earliest EP in list order, then the earliest orientation
    code. Weight capacity is respected.
    """
    if not tu.eps or tu.total_weight + box.weight > tu.tu_type.q:
        return None
    ex, ey, ez, erx, ery, erz = tu.ep_geometry()
    nbox = tu.nbox
    have_load = bool(tu.placements)
    if have_load:
        px, py, pz, pw, pl, ph, nonstack = tu.geometry()
        any_nonstack = bool(nonstack.any())
    best = None
    for oi, ob in enumerate(enumerate_orientations(box)):
        mask = (ob.w <= erx) & (ob.l <= ery) & (ob.h <= erz)
        if not mask.any():
            continue
        idx = np.nonzero(mask)[0]
        if have_load:
            cx, cy, cz = ex[idx], ey[idx], ez[idx]
            ox = np.maximum(px[None, :], cx[:, None]) < np.minimum(
                (px + pw)[None, :], (cx + ob.w)[:, None])
            oy = np.maximum(py[None, :], cy[:, None]) < np.minimum(
                (py + pl)[None, :], (cy + ob.l)[:, None])
            xy = ox & oy
            oz = np.maximum(pz[None, :], cz[:, None]) < np.minimum(
                (pz + ph)[None, :], (cz + ob.h)[:, None])
            bad = (xy & oz).any(axis=1)
            if any_nonstack:
                bad |= (xy & nonstack[None, :]
                        & ((cz + ob.h)[:, None] > (pz + ph)[None, :])).any(axis=1)
            if not box.stackable:
                bad |= (xy & ((pz + ph)[None, :] > (cz + ob.h)[:, None])).any(axis=1)
            idx = idx[~bad]
            if idx.size == 0:
                continue
        costs = (
            cp.big_n * ez[idx] + ex[idx] + ey[idx]
            + cp.big_m * (ez[idx] + ob.h)
            - cp.big_n * cp.theta * ((erx[idx] - ob.w) + (ery[idx] - ob.l))
            + cp.lam * ((erx[idx] % ob.w) + (ery[idx] % ob.l))
            - nbox
        )
        k = int(np.argmin(costs))  # first minimum = lowest EP index
        cand = (float(costs[k]), int(idx[k]), oi)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    cost, ep_idx, oi = best
    return cost, ep_idx, enumerate_orientations(box)[oi]


def place_box(tu: LoadedTu, box: BoxSpec, ob: Orientation, ep: ExtremePoint) -> Placement:
    """Anchor the box at the EP and refresh the TU's EP list."""
    p = Placement.of(box, ob, ep.x, ep.y, ep.z)
    tu.add(p)
    update_eps(tu, p)
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
) -> PackResult:
    """Sorted constructive insertion into TUs of a single type.

    Each box lands at the feasible (TU, EP, orientation) triple of minimum
    price across all open TUs; when none exists a new TU is opened with the
    origin EP and the box placed at its cheapest orientation there. Boxes
    that cannot fit even an empty TU of this type are reported unplaced.
    ``open_tus`` lets a caller resume packing into existing TUs; they are
    mutated in place. Deterministic: no randomness anywhere in this path.
    """
    tus: list[LoadedTu] = list(open_tus) if open_tus else []
    unplaced: list[BoxSpec] = []
    for box in sort_boxes(boxes, tut, sp):
        if not fits_empty(box, tut):
            unplaced.append(box)
            continue
        best = None
        for ti, tu in enumerate(tus):
            spot = best_spot(tu, box, cp)
            if spot is None:
                continue
            cost, ep_idx, ob = spot
            if best is None or (cost, ti) < (best[0], best[1]):
                best = (cost, ti, ep_idx, tu, ob)
        if best is None:
            tu = fresh_tu(tut)
            tus.append(tu)
            cost, ep_idx, ob = best_spot(tu, box, cp)
            place_box(tu, box, ob, tu.eps[ep_idx])
        else:
            _, _, ep_idx, tu, ob = best
            place_box(tu, box, ob, tu.eps[ep_idx])
    return PackResult(tus, unplaced)

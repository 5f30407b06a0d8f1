from __future__ import annotations

import random
from dataclasses import replace

import pytest

from tupack.geometry import (
    BoxSpec,
    LoadedTu,
    Placement,
    TuType,
    enumerate_orientations,
    fill_rate,
    validate_tu,
)
from tupack.packer import (
    CostParams,
    ExtremePoint,
    SortParams,
    best_spot,
    can_fit,
    eps_of_layout,
    fits_empty,
    fresh_tu,
    pack_3dbp,
    place_box,
    placement_cost,
    remove_box,
    sort_boxes,
)

from conftest import EURO_PALLET, WORKED_EXAMPLE_EPS, ep_list

T_120_80_160 = TuType("120x80x160", 120, 80, 160, 1000)


def free_box(bid, w, l, h, weight=0, stackable=True):
    return BoxSpec(bid, w, l, h, weight, txz=True, tyz=True, stackable=stackable)


# ---------------------------------------------------------------------------
# sorting

def test_sort_single_box_min_height_rotation():
    box = free_box("a", 30, 40, 60)
    out = sort_boxes([box], EURO_PALLET)
    assert out == [box]
    from tupack.packer import min_height_orientation

    assert min_height_orientation(box).h == 30


def test_sort_larger_base_first_on_equal_weight():
    a = BoxSpec("small", 40, 30, 10, 50)   # base 1200
    b = BoxSpec("large", 80, 60, 10, 50)   # base 4800
    out = sort_boxes([a, b], EURO_PALLET, SortParams(4, 4))
    assert [x.id for x in out] == ["large", "small"]


def test_sort_weight_then_base_clusters():
    heavy = BoxSpec("heavy", 40, 25, 10, 900)       # base 1000
    light_big = BoxSpec("light_big", 100, 90, 10, 100)  # base 9000
    light_small = BoxSpec("light_small", 10, 10, 10, 100)
    tut = TuType("t", 120, 80, 160, 1000)  # base cap 9600
    out = sort_boxes([light_small, light_big, heavy], tut, SortParams(2, 2))
    assert [x.id for x in out] == ["heavy", "light_big", "light_small"]


def test_sort_decreasing_height_within_cluster():
    a = BoxSpec("short", 30, 30, 20, 10)
    b = BoxSpec("tall", 30, 30, 90, 10)
    out = sort_boxes([a, b], EURO_PALLET)
    assert [x.id for x in out] == ["tall", "short"]


def test_sort_stable_on_ties():
    boxes = [BoxSpec(f"b{i}", 30, 30, 30, 10) for i in range(5)]
    out = sort_boxes(boxes, EURO_PALLET)
    assert [x.id for x in out] == [f"b{i}" for i in range(5)]


def test_sort_overweight_box_lands_in_top_cluster():
    bulky = BoxSpec("bulky", 30, 30, 30, 5000)  # above capacity
    mid = BoxSpec("mid", 30, 30, 30, 600)
    out = sort_boxes([mid, bulky], EURO_PALLET, SortParams(4, 4))
    assert out[0].id == "bulky"


# ---------------------------------------------------------------------------
# worked example: EP list reconstruction and selection

def test_worked_example_ep_table(worked_example_tu):
    got = {(e.x, e.y, e.z): (e.rx, e.ry, e.rz) for e in ep_list(worked_example_tu.eps)}
    assert got == WORKED_EXAMPLE_EPS


def test_worked_example_no_fit_at_narrow_ep(worked_example_tu):
    tu = worked_example_tu
    ep9 = next(e for e in ep_list(tu.eps) if (e.x, e.y, e.z) == (110, 40, 0))
    box = free_box("n", 30, 40, 20)
    assert all(not can_fit(tu, ep9, o, box) for o in enumerate_orientations(box))


def test_worked_example_argmin_selection(worked_example_tu):
    tu = worked_example_tu
    box = free_box("n", 30, 40, 20)
    cost, ep_idx, ob = best_spot(tu, box)
    ep = ep_list(tu.eps)[ep_idx]
    assert (ep.x, ep.y, ep.z) == (0, 60, 0)
    assert (ob.w, ob.l, ob.h) == (40, 20, 30)


def test_worked_example_floor_ep_beats_raised_eps(worked_example_tu):
    tu = worked_example_tu
    box = free_box("n", 30, 40, 20)
    ep3 = next(e for e in ep_list(tu.eps) if (e.x, e.y, e.z) == (0, 60, 0))
    best_at = {}
    for e in ep_list(tu.eps):
        feasible = [
            placement_cost(e, o, tu.nbox)
            for o in enumerate_orientations(box)
            if can_fit(tu, e, o, box)
        ]
        if feasible:
            best_at[(e.x, e.y, e.z)] = min(feasible)
    assert set(best_at) == set(WORKED_EXAMPLE_EPS) - {(110, 40, 0)}
    assert min(best_at, key=best_at.get) == (0, 60, 0)
    assert best_at[(0, 60, 0)] == min(
        placement_cost(ep3, o, tu.nbox)
        for o in enumerate_orientations(box)
        if can_fit(tu, ep3, o, box)
    )


# ---------------------------------------------------------------------------
# can_fit against the fit-check walkthrough

def _fit_check_tu():
    tu = LoadedTu(TuType("p", 120, 80, 100, 1000))
    b1 = free_box("b1", 30, 30, 30)
    b2 = free_box("b2", 40, 40, 40)
    tu.add(Placement(b1, "wlh", 30, 30, 30, 0, 0, 0))
    tu.add(Placement(b2, "wlh", 40, 40, 40, 15, 30, 0))
    tu.eps = eps_of_layout(tu)
    return tu


def test_fit_check_residuals_at_top_of_first_box():
    tu = _fit_check_tu()
    ep = next(e for e in ep_list(tu.eps) if (e.x, e.y, e.z) == (0, 0, 30))
    assert (ep.rx, ep.ry, ep.rz) == (120, 80, 70)


def test_fit_check_residual_pass_overlap_reject():
    tu = _fit_check_tu()
    ep = next(e for e in ep_list(tu.eps) if (e.x, e.y, e.z) == (0, 0, 30))
    b3 = free_box("b3", 60, 60, 20)
    o = next(x for x in enumerate_orientations(b3) if (x.w, x.l, x.h) == (60, 60, 20))
    assert o.w <= ep.rx and o.l <= ep.ry and o.h <= ep.rz
    assert not can_fit(tu, ep, o, b3)


def test_can_fit_walkthrough_insertion(worked_example_tu):
    tu = worked_example_tu
    ep3 = next(e for e in ep_list(tu.eps) if (e.x, e.y, e.z) == (0, 60, 0))
    box = free_box("n", 30, 40, 20)
    o = next(x for x in enumerate_orientations(box) if (x.w, x.l, x.h) == (40, 20, 30))
    assert can_fit(tu, ep3, o, box)


def test_can_fit_rejects_stacking_intrusion():
    tu = fresh_tu(EURO_PALLET)
    base = free_box("base", 40, 40, 20, stackable=False)
    o = enumerate_orientations(base)[0]
    from tupack.packer import place_box

    place_box(tu, base, o, tu.eps[0])
    # EPs above the non-stackable box are never generated, so aim at a side
    # EP and try a box wide enough to overhang the protected column
    side = next(e for e in ep_list(tu.eps) if (e.x, e.y, e.z) == (40, 0, 0))
    tall = free_box("tall", 60, 30, 40)
    for ob in enumerate_orientations(tall):
        if ob.w > 20:
            continue
    wide = BoxSpec("wide", 60, 30, 5, txz=False, tyz=False)
    # placing at (40,0,0) keeps it off the column: allowed
    ob = enumerate_orientations(wide)[0]
    assert can_fit(tu, side, ob, wide)


# ---------------------------------------------------------------------------
# EP generation

def test_first_stackable_box_spawns_three_eps():
    tu = fresh_tu(T_120_80_160)
    box = free_box("a", 40, 30, 20)
    from tupack.packer import place_box

    ob = enumerate_orientations(box)[0]
    place_box(tu, box, ob, tu.eps[0])
    assert {(e.x, e.y, e.z) for e in ep_list(tu.eps)} == {(40, 0, 0), (0, 30, 0), (0, 0, 20)}


def test_first_non_stackable_box_spawns_two_eps():
    tu = fresh_tu(T_120_80_160)
    box = BoxSpec("a", 40, 30, 20, stackable=False)
    from tupack.packer import place_box

    ob = enumerate_orientations(box)[0]
    place_box(tu, box, ob, tu.eps[0])
    assert {(e.x, e.y, e.z) for e in ep_list(tu.eps)} == {(40, 0, 0), (0, 30, 0)}


def test_ep_projection_onto_neighbor_faces():
    # a second box behind and above the first projects its points onto the
    # first box's faces rather than the walls
    tu = fresh_tu(T_120_80_160)
    from tupack.packer import place_box

    a = free_box("a", 60, 40, 20)
    place_box(tu, a, enumerate_orientations(a)[0], tu.eps[0])
    ep_top = next(e for e in ep_list(tu.eps) if (e.x, e.y, e.z) == (0, 0, 20))
    b = free_box("b", 30, 30, 30)
    ob = next(o for o in enumerate_orientations(b) if (o.w, o.l, o.h) == (30, 30, 30))
    place_box(tu, b, ob, ep_top)
    pts = {(e.x, e.y, e.z) for e in ep_list(tu.eps)}
    # rule 1 corner (30,0,20) sits on a's top face, not the floor
    assert (30, 0, 20) in pts
    # rule 2 corner (0,30,20) likewise
    assert (0, 30, 20) in pts
    # rule 3 top corner of b
    assert (0, 0, 50) in pts


def test_interior_box_contributes_five_eps():
    # a box with free space on all relevant sides yields all five rule
    # points: two floor projections and the top corner with its two
    tu = LoadedTu(T_120_80_160)
    box = free_box("mid", 40, 30, 30)
    tu.add(Placement(box, "wlh", 40, 30, 30, 40, 40, 0))
    pts = {(e.x, e.y, e.z) for e in ep_list(eps_of_layout(tu))}
    expected = {(80, 0, 0), (0, 70, 0), (40, 40, 30), (40, 0, 30), (0, 40, 30)}
    assert expected <= pts
    assert pts == expected | {(0, 0, 0)}


def test_ep_growth_bound():
    rng = random.Random(11)
    boxes = [
        free_box(f"b{i}", rng.randint(10, 50), rng.randint(10, 50), rng.randint(10, 50))
        for i in range(30)
    ]
    res = pack_3dbp(T_120_80_160, boxes)
    for tu in res.tus:
        assert len(tu.eps) <= 1 + 4 * len(tu.placements)


def test_ep_residual_soundness():
    rng = random.Random(13)
    boxes = [
        free_box(f"b{i}", rng.randint(10, 50), rng.randint(10, 50), rng.randint(10, 50))
        for i in range(25)
    ]
    res = pack_3dbp(T_120_80_160, boxes)
    for tu in res.tus:
        for e in ep_list(tu.eps):
            assert e.rx <= tu.tu_type.x - e.x
            assert e.ry <= tu.tu_type.y - e.y
            assert e.rz <= tu.tu_type.z - e.z
            assert e.rx > 0 and e.ry > 0 and e.rz > 0


# ---------------------------------------------------------------------------
# pricing

def test_cost_at_origin_of_empty_tu():
    tut = T_120_80_160
    ep = ExtremePoint(0, 0, 0, tut.x, tut.y, tut.z)
    ob = enumerate_orientations(BoxSpec("b", 40, 30, 20))[0]
    cp = CostParams()
    expected = (
        cp.big_m * ob.h
        - cp.big_n * cp.theta * ((tut.x - ob.w) + (tut.y - ob.l))
        + cp.lam * ((tut.x % ob.w) + (tut.y % ob.l))
    )
    assert placement_cost(ep, ob, 0, cp) == expected


def test_cost_perfect_partition_modulo_term():
    # 120 mod 40 == 0 and 80 mod 30 == 20: orientation (40, 30) on a fresh
    # 120x80 base leaves remainder 20, the swapped one leaves 0 + 0
    ep = ExtremePoint(0, 0, 0, 120, 80, 160)
    box = BoxSpec("b", 40, 30, 20)
    o1, o2 = enumerate_orientations(box)
    cp = CostParams(lam=1.0)
    assert (o1.w, o1.l) == (40, 30)
    mod1 = (120 % 40) + (80 % 30)
    mod2 = (120 % 30) + (80 % 40)
    assert mod1 == 20 and mod2 == 0
    c1 = placement_cost(ep, o1, 0, cp)
    c2 = placement_cost(ep, o2, 0, cp)
    assert c1 - c2 == pytest.approx(mod1 - mod2)


def test_cost_nbox_preference():
    ep = ExtremePoint(0, 0, 0, 120, 80, 160)
    ob = enumerate_orientations(BoxSpec("b", 40, 30, 20))[0]
    assert placement_cost(ep, ob, 5) < placement_cost(ep, ob, 0)


# ---------------------------------------------------------------------------
# pack_3dbp

def test_pack_single_box():
    res = pack_3dbp(T_120_80_160, [free_box("a", 40, 30, 20)])
    assert len(res.tus) == 1
    assert res.unplaced == []
    p = res.tus[0].placements[0]
    assert (p.x, p.y, p.z) == (0, 0, 0)


def test_pack_32_perfect_boxes_single_full_tu():
    boxes = [BoxSpec(f"b{i}", 40, 30, 40, 1) for i in range(32)]
    res = pack_3dbp(T_120_80_160, boxes)
    assert len(res.tus) == 1
    assert fill_rate(res.tus[0]) == 100.0
    assert validate_tu(res.tus[0]) == []


def test_pack_12_boxes_two_low_pallets():
    boxes = [BoxSpec(f"b{i}", 60, 40, 60, 1) for i in range(12)]
    res = pack_3dbp(T_120_80_160, boxes)
    assert len(res.tus) == 2
    assert sum(tu.nbox for tu in res.tus) == 12
    for tu in res.tus:
        assert validate_tu(tu) == []


def test_pack_feasible_by_construction():
    rng = random.Random(99)
    boxes = [
        free_box(f"b{i}", rng.randint(5, 70), rng.randint(5, 70), rng.randint(5, 70),
                 weight=rng.randint(0, 40), stackable=rng.random() < 0.8)
        for i in range(60)
    ]
    res = pack_3dbp(T_120_80_160, boxes)
    assert res.unplaced == []
    placed = [p.box.id for tu in res.tus for p in tu.placements]
    assert sorted(placed) == sorted(b.id for b in boxes)
    for tu in res.tus:
        assert validate_tu(tu) == []


def test_pack_respects_weight_capacity():
    tut = TuType("t", 120, 80, 160, 100)
    boxes = [BoxSpec(f"b{i}", 40, 30, 40, 60) for i in range(4)]
    res = pack_3dbp(tut, boxes)
    assert len(res.tus) == 4  # only one 60 kg box per 100 kg TU
    for tu in res.tus:
        assert tu.total_weight <= 100
        assert validate_tu(tu) == []


def test_pack_reports_unpackable():
    res = pack_3dbp(T_120_80_160, [BoxSpec("giant", 200, 200, 200)])
    assert res.tus == []
    assert [b.id for b in res.unplaced] == ["giant"]
    res = pack_3dbp(T_120_80_160, [BoxSpec("lead", 10, 10, 10, 5000)])
    assert [b.id for b in res.unplaced] == ["lead"]


def test_pack_deterministic():
    rng = random.Random(5)
    boxes = [
        free_box(f"b{i}", rng.randint(10, 60), rng.randint(10, 60), rng.randint(10, 60))
        for i in range(40)
    ]
    r1 = pack_3dbp(T_120_80_160, list(boxes))
    r2 = pack_3dbp(T_120_80_160, list(boxes))
    lay1 = [[(p.box.id, p.code, p.x, p.y, p.z) for p in tu.placements] for tu in r1.tus]
    lay2 = [[(p.box.id, p.code, p.x, p.y, p.z) for p in tu.placements] for tu in r2.tus]
    assert lay1 == lay2


def test_pack_prefers_fuller_tu_on_cost_ties():
    # two open TUs, identical geometry, one fuller: NBOX term must pull the
    # next box into the fuller one
    from tupack.packer import place_box

    a = fresh_tu(T_120_80_160)
    b = fresh_tu(T_120_80_160)
    bx = BoxSpec("x", 40, 40, 40)
    place_box(a, bx, enumerate_orientations(bx)[0], a.eps[0])
    place_box(b, bx, enumerate_orientations(bx)[0], b.eps[0])
    bx2 = BoxSpec("y", 40, 40, 40)
    place_box(a, bx2, enumerate_orientations(bx2)[0], a.eps[0])
    res = pack_3dbp(T_120_80_160, [BoxSpec("z", 40, 40, 40)], open_tus=[b, a])
    assert a.nbox == 3 and b.nbox == 1


# ---------------------------------------------------------------------------
# kernel oracles on random packs with rotation flags, non-stackable boxes,
# weights that hit the capacity, and repeated box shapes

def _random_boxes(rng, n):
    """Boxes drawn half from a small pool of shapes (so shapes repeat under
    other ids and weights) and half fresh."""
    def shape():
        return (rng.randint(8, 60), rng.randint(8, 60), rng.randint(8, 60),
                rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.75)
    pool = [shape() for _ in range(rng.randint(2, 6))]
    # same extents, other rotation flags and stackability
    w, l, h, txz, tyz, stackable = pool[0]
    pool += [(w, l, h, not txz, tyz, stackable), (w, l, h, txz, tyz, not stackable)]
    boxes = []
    for i in range(n):
        w, l, h, txz, tyz, stackable = rng.choice(pool) if rng.random() < 0.5 else shape()
        boxes.append(BoxSpec(f"b{i}", w, l, h, rng.randint(0, 150), txz, tyz, stackable))
    return boxes


def _ref_ray(tu, pt, axis):
    """Coordinate reached from ``pt`` going toward the origin on ``axis``."""
    reach = 0
    for p in tu.placements:
        lo, hi = (p.x, p.y, p.z), (p.x + p.w, p.y + p.l, p.z + p.h)
        if hi[axis] <= pt[axis] and all(lo[a] <= pt[a] < hi[a] for a in range(3) if a != axis):
            reach = max(reach, hi[axis])
    return reach


def _ref_candidates(tu, p):
    """The five projection rules of one placed box, by scalar rays."""
    ex, ny, tz = p.x + p.w, p.y + p.l, p.z + p.h
    z1 = _ref_ray(tu, (ex, p.y, p.z), 2)
    z2 = _ref_ray(tu, (p.x, ny, p.z), 2)
    pts = [(ex, _ref_ray(tu, (ex, p.y, z1), 1), z1), (_ref_ray(tu, (p.x, ny, z2), 0), ny, z2)]
    if p.box.stackable:
        top = (p.x, p.y, tz)
        pts += [top, (p.x, _ref_ray(tu, top, 1), tz), (_ref_ray(tu, top, 0), p.y, tz)]
    return pts


def _ref_eps(tu, points):
    """Full re-measure of candidate points against the whole load: first
    occurrence of each point inside the TU, not covered by a box, with every
    residual (distance to the first box face or wall ahead) positive."""
    tut = tu.tu_type
    dims = (tut.x, tut.y, tut.z)
    boxes = [((p.x, p.y, p.z), (p.x + p.w, p.y + p.l, p.z + p.h)) for p in tu.placements]
    out = []
    for pt in dict.fromkeys(points):
        if not all(0 <= c < d for c, d in zip(pt, dims)):
            continue
        if any(all(lo[a] <= pt[a] < hi[a] for a in range(3)) for lo, hi in boxes):
            continue
        resid = []
        for a in range(3):
            reach = dims[a]
            for lo, hi in boxes:
                if lo[a] >= pt[a] and all(lo[b] <= pt[b] < hi[b] for b in range(3) if b != a):
                    reach = min(reach, lo[a])
            resid.append(reach - pt[a])
        if min(resid) > 0:
            out.append(ExtremePoint(*pt, *resid))
    return out


def _pack_without_memo(tut, boxes, open_tus=(), after_place=None):
    """pack_3dbp's rule spelled out: every box asks best_spot of every open TU."""
    tus, unplaced = list(open_tus), []
    for box in sort_boxes(boxes, tut):
        if not fits_empty(box, tut):
            unplaced.append(box)
            continue
        spots = [(s[0], ti, s[1], s[2]) for ti, tu in enumerate(tus)
                 if (s := best_spot(tu, box)) is not None]
        if spots:
            _, ti, ep_idx, ob = min(spots, key=lambda s: (s[0], s[1]))
            tu = tus[ti]
        else:
            tu = fresh_tu(tut)
            tus.append(tu)
            _, ep_idx, ob = best_spot(tu, box)
        before = [e[:3] for e in ep_list(tu.eps)]
        p = place_box(tu, box, ob, tu.eps[ep_idx])
        if after_place is not None:
            after_place(tu, before, p)
    return tus, unplaced


def _layout(tus):
    return [[(p.box.id, p.code, p.x, p.y, p.z) for p in tu.placements] for tu in tus]


def test_incremental_eps_equal_full_remeasure():
    checked = 0

    def check(tu, before, p):
        nonlocal checked
        assert ep_list(tu.eps) == _ref_eps(tu, before + _ref_candidates(tu, p))
        checked += 1

    for seed in range(24):
        rng = random.Random(seed)
        tus, _ = _pack_without_memo(T_120_80_160, _random_boxes(rng, 24), after_place=check)
        for tu in tus:
            if tu.nbox < 2:
                continue
            tu.remove_at(rng.randrange(tu.nbox))
            tu.eps = eps_of_layout(tu)
            layout_points = [(0, 0, 0)] + [q for p in tu.placements for q in _ref_candidates(tu, p)]
            assert ep_list(tu.eps) == _ref_eps(tu, layout_points)
        # incremental updates resumed on re-seeded TUs
        _pack_without_memo(T_120_80_160, _random_boxes(rng, 8), open_tus=tus, after_place=check)
    assert checked > 500


def test_remove_box_reseeds_from_the_layout():
    for seed in range(6):
        rng = random.Random(300 + seed)
        tus, _ = _pack_without_memo(T_120_80_160, _random_boxes(rng, 20))
        for tu in tus:
            while tu.placements:
                index = rng.randrange(tu.nbox)
                placed = tu.placements[index]
                assert remove_box(tu, index) is placed
                assert placed not in tu.placements
                points = [(0, 0, 0)] + [q for p in tu.placements for q in _ref_candidates(tu, p)]
                assert ep_list(tu.eps) == _ref_eps(tu, points)
                assert not tu.eps.flags.writeable


def test_best_spot_is_exhaustive_lexicographic_minimum():
    cases = 0
    for seed in range(12):
        rng = random.Random(100 + seed)
        states = []
        _pack_without_memo(T_120_80_160, _random_boxes(rng, 20),
                           after_place=lambda tu, before, p: states.append(tu.clone()))
        for tu in rng.sample(states, 6):
            for box in _random_boxes(rng, 4):
                oris = enumerate_orientations(box)
                feasible = []
                for i, e in enumerate(ep_list(tu.eps)):
                    for oi, o in enumerate(oris):
                        fits = can_fit(tu, e, o, box)
                        # the fit test against an independent check: residuals
                        # hold and the placed box breaks no overlap or stacking rule
                        trial = tu.clone()
                        trial.add(Placement.of(box, o, e.x, e.y, e.z))
                        clash = {v.kind for v in validate_tu(trial)} & {"overlap", "stacking"}
                        room = o.w <= e.rx and o.l <= e.ry and o.h <= e.rz
                        assert fits == (room and not clash)
                        if fits:
                            feasible.append((placement_cost(e, o, tu.nbox), i, oi))
                heavy = tu.total_weight + box.weight > tu.tu_type.q
                got = best_spot(tu, box)
                if heavy or not feasible:
                    assert got is None
                else:
                    cost, i, oi = min(feasible)
                    assert got == (cost, i, oris[oi])
                    cases += 1
    assert cases > 100


def test_pack_3dbp_equals_pack_without_memo():
    for seed in range(30):
        rng = random.Random(200 + seed)
        boxes = _random_boxes(rng, 30)
        got = pack_3dbp(T_120_80_160, boxes)
        tus, unplaced = _pack_without_memo(T_120_80_160, boxes)
        assert _layout(got.tus) == _layout(tus)
        assert got.unplaced == unplaced
        assert [ep_list(tu.eps) for tu in got.tus] == [ep_list(tu.eps) for tu in tus]
        # resuming into open TUs keeps the equivalence
        more = _random_boxes(rng, 10)
        resumed = pack_3dbp(T_120_80_160, more, open_tus=[tu.clone() for tu in got.tus])
        tus, _ = _pack_without_memo(T_120_80_160, more, open_tus=[tu.clone() for tu in tus])
        assert _layout(resumed.tus) == _layout(tus)


def test_pack_3dbp_max_tus_stops_at_the_tu_past_the_cap():
    """Within the cap the capped pack is the uncapped one; past it, the pack
    stops at the first box that needs one more TU and reports that box and
    every later box unplaced, fresh and when resuming into open TUs."""
    equal = cut = 0
    for seed in range(20):
        rng = random.Random(300 + seed)
        boxes = _random_boxes(rng, 40)
        more = [replace(b, id="m" + b.id) for b in _random_boxes(rng, 30)]
        start = pack_3dbp(T_120_80_160, boxes[:15]).tus
        for todo, open_tus in ((boxes, []), (more, start)):
            full = pack_3dbp(T_120_80_160, todo, open_tus=[tu.clone() for tu in open_tus])
            opened = len(full.tus) - len(open_tus)
            order = sort_boxes(todo, T_120_80_160)
            for k in range(opened + 2):
                got = pack_3dbp(T_120_80_160, todo, open_tus=[tu.clone() for tu in open_tus],
                                max_tus=k)
                if opened <= k:
                    assert _layout(got.tus) == _layout(full.tus)
                    assert got.unplaced == full.unplaced == []
                    equal += 1
                    continue
                assert len(got.tus) - len(open_tus) == k
                assert got.unplaced
                placed = sum(tu.nbox for tu in got.tus) - sum(tu.nbox for tu in open_tus)
                assert got.unplaced == order[placed:]
                # each TU holds a prefix of what the uncapped pack puts there
                for mine, theirs in zip(_layout(got.tus), _layout(full.tus)):
                    assert mine == theirs[:len(mine)]
                cut += 1
    assert equal > 40 and cut > 40


def test_clone_shares_nothing_mutable():
    res = pack_3dbp(T_120_80_160, _random_boxes(random.Random(7), 12))
    tu = res.tus[0]
    eps, geom, layout = tu.eps, tu.geometry(), _layout([tu])
    twin = tu.clone()
    box = BoxSpec("extra", 10, 10, 10)
    spot = best_spot(twin, box)
    place_box(twin, box, spot[2], twin.eps[spot[1]])
    assert tu.eps is eps and not tu.eps.flags.writeable
    assert tu.geometry() is geom and _layout([tu]) == layout
    assert twin.nbox == tu.nbox + 1

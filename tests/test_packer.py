from __future__ import annotations

import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tupack import packer
from tupack.fileio import dump_solution, parse_solution
from tupack.generator import DEFAULT_CATALOG, Instance, generate_instance
from tupack.geometry import (
    BoxSpec,
    LoadedTu,
    Placement,
    Solution,
    TuType,
    enumerate_orientations,
    fill_rate,
    validate_tu,
)
from tupack.lowerbound import DemandPoint
from tupack.packer import (
    DEFAULT_COST,
    MAX_COST_CONSTANT,
    CostParams,
    ExtremePoint,
    PackedTu,
    SortParams,
    best_spot,
    can_fit,
    eps_of_layout,
    fits_empty,
    pack_3dbp,
    place_best,
    place_box,
    placement_cost,
    sort_boxes,
)
from tupack.packer import (
    _box_part,
    _cheapest,
    _eps_of,
    _floor,
    _frame,
    _measure,
    _price,
    _room,
    _Node,
    _oriented,
    _unseen,
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


def reference_sort_boxes(boxes, tut, sp=SortParams()):
    """The insertion order built bucket by bucket: boxes go into (weight
    cluster, base-area cluster) buckets, emitted in decreasing key order,
    each sorted by decreasing height, stable on input order."""
    from tupack.packer import min_height_orientation

    q, base_cap = tut.q, tut.x * tut.y
    buckets = {}
    for box in boxes:
        o = min_height_orientation(box)
        wi = (box.weight * sp.n + q - 1) // q if box.weight > 0 else 1
        wi = min(max(wi, 1), sp.n)
        bj = (o.w * o.l * sp.m + base_cap - 1) // base_cap
        bj = min(max(bj, 1), sp.m)
        buckets.setdefault((wi, bj), []).append((o.h, box))
    ordered = []
    for key in sorted(buckets, reverse=True):
        group = buckets[key]
        group.sort(key=lambda t: -t[0])
        ordered.extend(box for _, box in group)
    return ordered


@pytest.mark.parametrize("seed", range(6))
def test_sort_matches_the_bucketed_reference(seed):
    """Random TU types and boxes, with zero and over-capacity weights,
    rotation and stackability flags, repeated shapes (so ties are common)
    and cluster counts of 1-6 or 1e5."""
    rng = random.Random(seed)
    for _ in range(100):
        tut = TuType("t", rng.randint(40, 160), rng.randint(40, 160), rng.randint(40, 200),
                     rng.randint(50, 2000))
        shapes = [(rng.randint(5, 120), rng.randint(5, 120), rng.randint(5, 120))
                  for _ in range(rng.randint(1, 8))]
        boxes = []
        for i in range(rng.randint(0, 60)):
            weight = rng.choice([0, rng.randint(1, tut.q), rng.randint(tut.q, 3 * tut.q)])
            boxes.append(BoxSpec(f"b{i}", *rng.choice(shapes), weight, rng.random() < 0.5,
                                 rng.random() < 0.5, rng.random() < 0.75))
        huge = 100_000
        sp = rng.choice([SortParams(rng.randint(1, 6), rng.randint(1, 6)),
                         SortParams(huge, huge)])
        assert sort_boxes(boxes, tut, sp) == reference_sort_boxes(boxes, tut, sp)


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
    b1 = free_box("b1", 30, 30, 30)
    b2 = free_box("b2", 40, 40, 40)
    return PackedTu(TuType("p", 120, 80, 100, 1000), [
        Placement(b1, "wlh", 30, 30, 30, 0, 0, 0), Placement(b2, "wlh", 40, 40, 40, 15, 30, 0)])


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
    tu = PackedTu(EURO_PALLET)
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
    tu = PackedTu(T_120_80_160)
    box = free_box("a", 40, 30, 20)
    from tupack.packer import place_box

    ob = enumerate_orientations(box)[0]
    place_box(tu, box, ob, tu.eps[0])
    assert {(e.x, e.y, e.z) for e in ep_list(tu.eps)} == {(40, 0, 0), (0, 30, 0), (0, 0, 20)}


def test_first_non_stackable_box_spawns_two_eps():
    tu = PackedTu(T_120_80_160)
    box = BoxSpec("a", 40, 30, 20, stackable=False)
    from tupack.packer import place_box

    ob = enumerate_orientations(box)[0]
    place_box(tu, box, ob, tu.eps[0])
    assert {(e.x, e.y, e.z) for e in ep_list(tu.eps)} == {(40, 0, 0), (0, 30, 0)}


def test_ep_projection_onto_neighbor_faces():
    # a second box behind and above the first projects its points onto the
    # first box's faces rather than the walls
    tu = PackedTu(T_120_80_160)
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
    box = free_box("mid", 40, 30, 30)
    tu = PackedTu(T_120_80_160, [Placement(box, "wlh", 40, 30, 30, 40, 40, 0)])
    pts = {(e.x, e.y, e.z) for e in ep_list(tu.eps)}
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


# Pricing constants: whole numbers (small ones with theta and lam at 0 make
# cost ties between TUs common) or not, theta and lam down to 0, big_m up
# against big_n, and big_n, big_n*theta and lam up to MAX_COST_CONSTANT.
_constant = st.one_of(st.integers(3, 12), st.integers(3, 10**6), st.floats(3.0, 1e6),
                      st.floats(3.0, MAX_COST_CONSTANT), st.just(MAX_COST_CONSTANT)).map(float)


@st.composite
def _cost_params(draw):
    big_n = draw(_constant)
    big_m = draw(st.one_of(st.floats(1.0, big_n, exclude_min=True, exclude_max=True),
                           st.just(big_n - 1.0), st.just(float(int(big_n) // 2 + 1))))
    # the largest theta whose big_n*theta, rounded, is within the cap
    top = math.nextafter(MAX_COST_CONSTANT / big_n, 0.0)
    theta = draw(st.one_of(st.sampled_from([0.0, 0.01, 0.5, 1.0]), st.floats(0.0, 2.0),
                           st.floats(0.0, top)))
    lam = draw(st.one_of(st.sampled_from([0.0, 1.0, 3.0]), st.floats(0.0, 10.0),
                         st.floats(0.0, MAX_COST_CONSTANT), st.just(MAX_COST_CONSTANT)))
    return CostParams(big_n, big_m, min(theta, top), lam)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cp=_cost_params(), seed=st.integers(0, 2**16))
def test_cost_is_the_expanded_formula(cp, seed):
    """placement_cost is the README's formula
    N*z + x + y + M*(z+h) - N*theta*((rx-w)+(ry-l)) + lambda*((rx mod w)+(ry mod l)) - NBOX
    up to float rounding (the code sums the same terms in another order),
    for any constants CostParams admits."""
    rng = random.Random(seed)
    w, l, h = (rng.randint(1, 60) for _ in range(3))
    x, y, z = (rng.randint(0, 200) for _ in range(3))
    rx, ry, rz = rng.randint(w, 250), rng.randint(l, 250), rng.randint(h, 250)
    nbox = rng.randint(0, 50)
    n, m, nt = cp.big_n, cp.big_m, cp.big_n * cp.theta
    terms = (n * z, x, y, m * (z + h), -nt * ((rx - w) + (ry - l)),
             cp.lam * ((rx % w) + (ry % l)), -nbox)
    # every product and partial sum on either side is at most ``size``, and
    # each of their few roundings is within 2**-53 of it
    size = sum(abs(t) for t in terms) + nt * (w + l)
    ob = enumerate_orientations(BoxSpec("b", w, l, h, txz=False, tyz=False))[0]
    got = placement_cost(ExtremePoint(x, y, z, rx, ry, rz), ob, nbox, cp)
    assert got == pytest.approx(math.fsum(terms), rel=0, abs=size * 1e-14)


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
    # two open TUs whose cheapest spots for the next box price the same but
    # for the NBOX term: it must pull the box into the fuller one, although
    # that one comes later
    a = PackedTu(T_120_80_160)
    b = PackedTu(T_120_80_160)
    bx = BoxSpec("x", 40, 40, 40)
    place_box(a, bx, enumerate_orientations(bx)[0], a.eps[0])
    place_box(b, bx, enumerate_orientations(bx)[0], b.eps[0])
    bx2 = BoxSpec("y", 40, 40, 40)
    place_box(a, bx2, enumerate_orientations(bx2)[0], a.eps[0])
    z = BoxSpec("z", 40, 40, 40)
    assert best_spot(a, z)[0] == best_spot(b, z)[0] - 1
    assert _cheapest([b, a], [_Node(b), _Node(a)], z, z.shape, DEFAULT_COST)[1] == 1


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


def _pack_without_memo(tut, boxes, open_tus=(), after_place=None, cp=DEFAULT_COST):
    """pack_3dbp's rule spelled out: every box asks best_spot of every open
    TU, and the lowest (cost, TU index) wins."""
    tus, unplaced = list(open_tus), []
    for box in sort_boxes(boxes, tut):
        if not fits_empty(box, tut):
            unplaced.append(box)
            continue
        spots = [(s[0], ti, s[1], s[2]) for ti, tu in enumerate(tus)
                 if (s := best_spot(tu, box, cp)) is not None]
        if spots:
            _, ti, ep_idx, ob = min(spots, key=lambda s: (s[0], s[1]))
            tu = tus[ti]
        else:
            tu = PackedTu(tut)
            tus.append(tu)
            _, ep_idx, ob = best_spot(tu, box, cp)
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
            layout_points = [(0, 0, 0)] + [q for p in tu.placements for q in _ref_candidates(tu, p)]
            assert ep_list(tu.eps) == _ref_eps(tu, layout_points)
        # incremental updates resumed on re-seeded TUs
        _pack_without_memo(T_120_80_160, _random_boxes(rng, 8), open_tus=tus, after_place=check)
    assert checked > 500


def _anchored_spot(tu, box, pick):
    """Where a test places the box: the cheapest spot when ``pick`` is None,
    else flush on EP number ``pick`` (modulo the EP count) in the first
    orientation that fits there; None when the choice finds no room."""
    if pick is None:
        spot = best_spot(tu, box)
        return None if spot is None else (tu.eps[spot[1]], spot[2])
    eps = ep_list(tu.eps)
    if not eps:
        return None
    ep = eps[pick % len(eps)]
    fitting = [o for o in enumerate_orientations(box) if can_fit(tu, ep, o, box)]
    return (ep, fitting[0]) if fitting else None


_small_box = st.tuples(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10),
                       st.booleans(), st.booleans(), st.booleans())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(dims=st.tuples(st.integers(2, 30), st.integers(2, 30), st.integers(2, 60)),
       steps=st.lists(st.tuples(_small_box, st.none() | st.integers(0, 63)),
                      min_size=5, max_size=40))
def test_every_insertion_equals_the_full_remeasure(dims, steps):
    """After every ``place_box`` the EP array is the pure-Python re-measure of
    the old EP points plus the new box's projection points, against the
    whole load: in narrow and tall TUs whose walls stop the projections,
    with boxes anchored flush on any EP (so new points land on old ones),
    non-stackable boxes and rotation flags."""
    tu = PackedTu(TuType("small", *dims, 10**6))
    for i, ((w, l, h, txz, tyz, stackable), pick) in enumerate(steps):
        box = BoxSpec(f"b{i}", w, l, h, 0, txz, tyz, stackable)
        spot = _anchored_spot(tu, box, pick)
        if spot is None:
            continue
        before = [e[:3] for e in ep_list(tu.eps)]
        p = place_box(tu, box, spot[1], spot[0])
        assert ep_list(tu.eps) == _ref_eps(tu, before + _ref_candidates(tu, p))


# TU types whose sides box extents often divide, so loads reach the walls
_WALLED = [TuType("cube", 60, 60, 60, 10**6), TuType("long", 100, 40, 50, 10**6),
           TuType("tall", 30, 50, 120, 10**6)]


def _walled_box(tut):
    def side(d):
        return st.sampled_from((d // 2, d // 3, d // 5)) | st.integers(1, d // 2)
    return st.tuples(side(tut.x), side(tut.y), side(tut.z),
                     st.booleans(), st.booleans(), st.booleans())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tut=st.sampled_from(_WALLED), data=st.data())
def test_in_order_derivation_equals_the_add_chain(tut, data):
    """A load added box by box to an empty TU, as ``_eps_of`` derives it
    in insertion order in one step, has the EP array its ``add`` chain
    built, row for row, after every box: in TUs of three
    types, with rotation flags, non-stackable boxes, boxes whose extents
    divide the TU's so that loads touch the walls, and boxes anchored at the
    cheapest spot or flush on any EP."""
    steps = data.draw(st.lists(st.tuples(_walled_box(tut), st.none() | st.integers(0, 63)),
                               min_size=1, max_size=14))
    tu = PackedTu(tut)
    for i, ((w, l, h, txz, tyz, stackable), pick) in enumerate(steps):
        box = BoxSpec(f"b{i}", w, l, h, 0, txz, tyz, stackable)
        spot = _anchored_spot(tu, box, pick)
        if spot is None:
            continue
        place_box(tu, box, spot[1], spot[0])
        derived = _eps_of(PackedTu(tut, tu.placements), True)
        assert derived.tolist() == tu.eps.tolist() and not derived.flags.writeable


def test_remove_at_reseeds_from_the_layout():
    for seed in range(6):
        rng = random.Random(300 + seed)
        tus, _ = _pack_without_memo(T_120_80_160, _random_boxes(rng, 20))
        for tu in tus:
            while tu.placements:
                index = rng.randrange(tu.nbox)
                placed = tu.placements[index]
                assert tu.remove_at(index) is placed
                assert placed not in tu.placements
                points = [(0, 0, 0)] + [q for p in tu.placements for q in _ref_candidates(tu, p)]
                assert ep_list(tu.eps) == _ref_eps(tu, points)
                assert not tu.eps.flags.writeable


def _layout_points(tu):
    """The points ``eps_of_layout`` measures: the origin, then every box's
    projection points."""
    return [(0, 0, 0)] + [q for p in tu.placements for q in _ref_candidates(tu, p)]


_lazy_op = st.one_of(st.tuples(st.just("remove"), st.integers(0, 63)),
                     st.tuples(st.just("place"), _small_box, st.booleans()),
                     st.tuples(st.just("clone")))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16),
       ops=st.lists(st.tuples(st.integers(0, 15), _lazy_op), min_size=5, max_size=30))
def test_stale_eps_are_derived_once_on_read(seed, ops):
    """Random packs rebuilt from their placements (stale), then random
    ``remove_at`` (stale again), placing and ``clone`` steps: every TU's EPs
    equal the pure-Python re-measure of its history, from its layout's
    points since its last re-seed on; a stale TU's clone shares its derived
    array; and ``eps_of_layout`` runs once per stale state read, never for
    a state left unread or read twice. A box lands by ``place_best`` or
    flush on the first reference EP that holds it, found without reading
    the TU's EPs, so that ``add`` meets them stale."""
    tus = [PackedTu(tu.tu_type, tu.placements)
           for tu in pack_3dbp(T_SMALL, _random_boxes(random.Random(seed), 20)).tus]
    points = [None] * len(tus)  # per TU its EP points, None while stale
    derivations = 0
    with mock.patch.object(packer, "eps_of_layout", wraps=eps_of_layout) as derive:
        for step, (pick, (op, *arg)) in enumerate(ops):
            i = pick % len(tus)
            tu, stale = tus[i], points[i] is None
            if op == "remove":
                if tu.nbox:
                    tu.remove_at(arg[0] % tu.nbox)
                    points[i] = None
                continue
            ref = _ref_eps(tu, _layout_points(tu) if stale else points[i])
            before = [e[:3] for e in ref]
            if op == "clone":
                derivations += stale
                twin = tu.clone()
                assert twin.eps is tu.eps
                tus.append(twin)
                points[i] = before
                points.append(list(before))
                continue
            (w, l, h, txz, tyz, stackable), best = arg
            box = BoxSpec(f"s{step}", w, l, h, 0, txz, tyz, stackable)
            if best:
                placed = place_best(tu, box)
            else:
                spot = next(((e, o) for e in ref for o in enumerate_orientations(box)
                             if can_fit(tu, e, o, box)), None)
                placed = spot and place_box(tu, box, spot[1], spot[0])
            if best or placed:
                derivations += stale
                points[i] = before if placed is None else before + _ref_candidates(tu, placed)
        assert derive.call_count == derivations
        derivations += sum(pts is None for pts in points)
        for tu, pts in zip(tus, points):
            assert ep_list(tu.eps) == _ref_eps(tu, _layout_points(tu) if pts is None else pts)
            assert not tu.eps.flags.writeable
        assert derive.call_count == derivations


def test_place_best_lands_at_best_spot_or_leaves_the_tu_untouched():
    tu = pack_3dbp(T_120_80_160, _random_boxes(random.Random(7), 12)).tus[0]
    placements, weight, eps = list(tu.placements), tu.total_weight, tu.eps
    assert place_best(tu, free_box("whole", 120, 80, 160, weight=5)) is None
    assert tu.placements == placements and tu.total_weight == weight and tu.eps is eps
    box = free_box("small", 10, 10, 10, weight=5)
    twin = tu.clone()
    _, ep_idx, ob = best_spot(twin, box)
    assert place_best(tu, box) == place_box(twin, box, ob, twin.eps[ep_idx])
    assert ep_list(tu.eps) == ep_list(twin.eps) and tu.total_weight == weight + 5


def test_best_spot_is_exhaustive_lexicographic_minimum(monkeypatch):
    """``best_spot`` against every (EP, orientation) pair fit-tested one by
    one, on states where the cheapest candidate often fails, so that the
    rank-1-on fallback (``_fitting``) runs many times."""
    fallbacks = 0

    def counted(*args):
        nonlocal fallbacks
        fallbacks += 1
        return fitting(*args)

    fitting = packer._fitting
    monkeypatch.setattr(packer, "_fitting", counted)
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
                        trial = LoadedTu(tu.tu_type, tu.placements + [Placement.of(box, o, *e[:3])])
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
    assert cases > 100 and fallbacks >= 20


def test_best_spot_falls_back_when_the_cheapest_candidate_overlaps():
    """A post off the origin's axis rays leaves the origin its whole
    residuals, so a slab there passes the residual test at the least price
    (rank 0) but overlaps the post; ``best_spot`` lands it at rank 1, the
    lower of the two EPs the post's floor projections give at the next
    price."""
    tut = TuType("cube", 100, 100, 100, 1000)
    post = BoxSpec("post", 20, 20, 10)
    tu = PackedTu(tut, [Placement.of(post, enumerate_orientations(post)[0], 20, 20, 0)])
    slab = BoxSpec("slab", 50, 50, 5)
    ob, = enumerate_orientations(slab)
    eps = ep_list(tu.eps)
    # (cost, EP index) of the EPs whose residuals hold the slab
    ranked = sorted((placement_cost(e, ob, tu.nbox), i) for i, e in enumerate(eps)
                    if ob.w <= e.rx and ob.l <= e.ry and ob.h <= e.rz)
    assert eps[ranked[0][1]] == ExtremePoint(0, 0, 0, 100, 100, 100)
    assert not can_fit(tu, eps[ranked[0][1]], ob, slab)
    assert ranked[1][0] == ranked[2][0] and can_fit(tu, eps[ranked[1][1]], ob, slab)
    assert best_spot(tu, slab) == (ranked[1][0], ranked[1][1], ob)


def test_pack_3dbp_equals_pack_without_memo():
    for seed in range(30):
        rng = random.Random(200 + seed)
        boxes = _random_boxes(rng, 30)
        got = pack_3dbp(T_120_80_160, boxes)
        tus, unplaced = _pack_without_memo(T_120_80_160, boxes)
        assert _layout(got.tus) == _layout(tus)
        assert got.unplaced == unplaced
        assert [ep_list(tu.eps) for tu in got.tus] == [ep_list(tu.eps) for tu in tus]


# A low-capacity TU small against the test boxes, so packs keep many TUs open.
T_SMALL = TuType("90x70x80", 90, 70, 80, 600)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(cp=_cost_params(), seed=st.integers(0, 2**16))
def test_floor_skip_keeps_the_pack(cp, seed):
    """pack_3dbp, which skips best_spot calls on price floors, packs exactly
    like the reference that asks every TU, for any pricing constants, and
    capped one TU short."""
    rng = random.Random(seed)
    boxes = _random_boxes(rng, 30)
    got = pack_3dbp(T_SMALL, boxes, cp)
    tus, unplaced = _pack_without_memo(T_SMALL, boxes, cp=cp)
    assert _layout(got.tus) == _layout(tus) and got.unplaced == unplaced == []
    assert [ep_list(tu.eps) for tu in got.tus] == [ep_list(tu.eps) for tu in tus]
    capped = pack_3dbp(T_SMALL, boxes, cp, max_tus=len(tus) - 1)
    placed = sum(tu.nbox for tu in capped.tus)
    assert capped.unplaced == sort_boxes(boxes, T_SMALL)[placed:]
    assert _layout(capped.tus) == [lay[:len(mine)] for mine, lay in
                                   zip(_layout(capped.tus), _layout(tus))]


def test_cost_ties_between_tus_go_to_the_lowest_index():
    """With big_n 3, big_m 2 and theta and lam at 0 every price is a small
    whole number, so two TUs often offer the same cost; the floor skip
    must still hand each tie to the lowest TU index, as the reference does."""
    cp = CostParams(3.0, 2.0, 0.0, 0.0)
    for seed in range(100):
        boxes = _random_boxes(random.Random(seed), 30)
        tus, _ = _pack_without_memo(T_SMALL, boxes, cp=cp)
        assert _layout(pack_3dbp(T_SMALL, boxes, cp).tus) == _layout(tus)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(cp=_cost_params(), seed=st.integers(0, 2**16))
def test_floor_is_below_every_room_passing_price(cp, seed):
    """A TU's floor, with no margin for rounding, is at most the price of
    every (EP, orientation) that passes the residual test, priced as
    best_spot prices it; and when no EP reaches the box's smallest extents,
    none passes and best_spot finds no spot. Fresh TUs are included: with
    lam = 0 the origin's price can equal the floor."""
    rng = random.Random(seed)
    states = [PackedTu(T_SMALL)]
    _pack_without_memo(T_SMALL, _random_boxes(rng, 20), cp=cp,
                       after_place=lambda tu, before, p: states.append(tu.clone()))
    for tu in states:
        for box in _random_boxes(rng, 3):
            ext = _oriented(box.shape)[1]
            floor = _floor(_Node(tu), ext.min(axis=0), float(_box_part(ext.T, cp).min()), cp)
            cols, ocols = tu.eps.T[:, None], ext.T[:, :, None]
            room = _room(cols, ocols)
            if floor is None:
                assert not room.any()
                assert best_spot(tu, box, cp) is None
            else:
                assert (floor <= _price(cols, ocols, tu.nbox, cp)[room]).all()


def test_pack_3dbp_max_tus_stops_at_the_tu_past_the_cap():
    """Within the cap the capped pack is the uncapped one; past it, the pack
    stops at the first box that needs one more TU and reports that box and
    every later box unplaced."""
    equal = cut = 0
    for seed in range(20):
        boxes = _random_boxes(random.Random(300 + seed), 40)
        full = pack_3dbp(T_120_80_160, boxes)
        order = sort_boxes(boxes, T_120_80_160)
        for k in range(len(full.tus) + 2):
            got = pack_3dbp(T_120_80_160, boxes, max_tus=k)
            if len(full.tus) <= k:
                assert _layout(got.tus) == _layout(full.tus)
                assert got.unplaced == full.unplaced == []
                equal += 1
                continue
            assert len(got.tus) == k
            assert got.unplaced == order[sum(tu.nbox for tu in got.tus):]
            # each TU holds a prefix of what the uncapped pack puts there
            for mine, theirs in zip(_layout(got.tus), _layout(full.tus)):
                assert mine == theirs[:len(mine)]
            cut += 1
    assert equal == 40 and cut > 40


# Boxes drawn from 2-4 shapes, so packs repeat placement sequences and their
# TUs share layout nodes: copies of a shape differ in weight, and the pool
# holds a shape that differs from another only in stackability and one that
# matches another only under rotation, with other rotation flags.
_dim = st.integers(15, 45)


@st.composite
def _few_shapes(draw):
    w, l, h = draw(_dim), draw(_dim), draw(_dim)
    txz, tyz, stackable = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    pool = [(w, l, h, txz, tyz, stackable), (w, l, h, txz, tyz, not stackable),
            (h, l, w, not txz, True, stackable)]
    pool += draw(st.lists(st.tuples(_dim, _dim, _dim, st.booleans(), st.booleans(),
                                    st.booleans()), max_size=1))
    pool = draw(st.permutations(pool))[:draw(st.integers(2, len(pool)))]
    n = draw(st.integers(2, 60))
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(0, 60)),
                          min_size=n, max_size=n))
    return [BoxSpec(f"b{i}", *shape[:3], weight, *shape[3:])
            for i, (shape, weight) in enumerate(picks)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(boxes=_few_shapes(), cp=st.just(DEFAULT_COST) | _cost_params(), cut=st.integers(1, 3),
       tut=st.sampled_from([T_SMALL, TuType("narrow", 60, 50, 100, 400)]))
def test_pack_3dbp_with_shared_layouts_equals_pack_without_memo(boxes, cp, cut, tut):
    """Packs whose TUs repeat placement sequences, and so share layout nodes
    (EPs, layout arrays and ``best_spot`` answers), pack exactly like the
    reference that asks every TU, uncapped and capped."""
    got = pack_3dbp(tut, boxes, cp)
    tus, unplaced = _pack_without_memo(tut, boxes, cp=cp)
    assert _layout(got.tus) == _layout(tus) and got.unplaced == unplaced
    assert [ep_list(tu.eps) for tu in got.tus] == [ep_list(tu.eps) for tu in tus]
    assert [tu.total_weight for tu in got.tus] == [tu.total_weight for tu in tus]
    for tu in got.tus:
        _corners_are_the_layouts(tu)
    if len(tus) > cut:
        capped = pack_3dbp(tut, boxes, cp, max_tus=len(tus) - cut)
        # every box fits an empty TU of either type
        assert capped.unplaced == sort_boxes(boxes, tut)[sum(tu.nbox for tu in capped.tus):]
        assert _layout(capped.tus) == [lay[:len(mine)] for mine, lay in
                                       zip(_layout(capped.tus), _layout(tus))]


# (scheme, demand, seed, type, best_spot calls, update_eps calls): a
# scheme-3 consignment of two box shapes whose four TUs mostly repeat one
# layout, so 48 of 84 placements take a trie node's arrays, and a scheme-2
# one of 107 boxes in 105 shapes, where nothing repeats
_KERNEL_WORK = [
    (3, (7, 300), 0, "120x100x160", 38, 36),
    (2, (3, 400), 1, "120x80x160", 150, 107),
]


@pytest.mark.parametrize("scheme, demand, seed, tut_id, spots, updates", _KERNEL_WORK)
def test_pack_kernel_work_is_pinned(monkeypatch, scheme, demand, seed, tut_id, spots, updates):
    """The ``best_spot`` and ``update_eps`` calls of two small packs, counted
    through the module globals the packer calls them by. A pack that asks
    the kernels for more work than these packs needed fails here."""
    inst, _ = generate_instance(DemandPoint(*demand), scheme, seed=seed)
    calls = Counter()
    for name in ("best_spot", "update_eps"):
        def counted(*args, _kernel=getattr(packer, name), _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(packer, name, counted)
    tut = next(t for t in DEFAULT_CATALOG if t.id == tut_id)
    assert sum(tu.nbox for tu in pack_3dbp(tut, inst.boxes).tus) == len(inst.boxes)
    assert (calls["best_spot"], calls["update_eps"]) == (spots, updates)


# ---------------------------------------------------------------------------
# the decision store: a pack replays what earlier packs of its type and
# constants decided along its own (shape, weight) sequence

def _box_lists(rng, n):
    """``n`` box lists for ``T_SMALL``, each the one before with up to three
    boxes given another weight, swapped for a new box or dropped, up to two
    boxes added, and the input reordered (shuffled or rotated). Shapes come
    from a small pool and weights from a few values, so identical shapes
    carry different weights and a reordered input can still keep the sorted
    (shape, weight) sequence; the pool holds a non-stackable shape and one
    taller than the TU, and about one box in twenty is heavier than its
    capacity."""
    def shape():
        return (rng.randint(15, 45), rng.randint(15, 45), rng.randint(15, 45),
                rng.random() < 0.5, rng.random() < 0.5, rng.random() < 0.75)

    pool = [shape() for _ in range(rng.randint(1, 3))]
    pool += [shape()[:5] + (False,), (20, 20, 100, False, False, True)]

    def box(bid, shape=None):
        weight = rng.choice((10, 160, 290, 470)) if rng.random() < 0.95 else T_SMALL.q + 1
        shape = shape or rng.choice(pool)
        return BoxSpec(bid, *shape[:3], weight, *shape[3:])

    lists = [[box(f"a{i}") for i in range(rng.randint(1, 30))]]
    while len(lists) < n:
        b = list(lists[-1])
        for k, i in enumerate(rng.sample(range(len(b)), min(len(b), rng.randint(0, 3)))):
            b[i] = rng.choice([box(f"w{len(lists)}.{k}", b[i].shape), box(f"s{len(lists)}.{k}"),
                               None])
        b = [x for x in b if x is not None] + [box(f"n{len(lists)}.{k}")
                                               for k in range(rng.randint(0, 2))]
        if rng.random() < 0.5:
            rng.shuffle(b)
        else:
            k = rng.randrange(len(b) + 1)
            b = b[k:] + b[:k]
        lists.append(b)
    return lists


def _best_spot_calls(*args, **kwargs):
    """A pack and the ``best_spot`` calls it made."""
    with mock.patch.object(packer, "best_spot", wraps=packer.best_spot) as spy:
        result = pack_3dbp(*args, **kwargs)
    return result, spy.call_count


def _same_pack(got, want):
    assert _layout(got.tus) == _layout(want.tus) and got.unplaced == want.unplaced
    assert [ep_list(tu.eps) for tu in got.tus] == [ep_list(tu.eps) for tu in want.tus]
    assert [tu.total_weight for tu in got.tus] == [tu.total_weight for tu in want.tus]


_OTHER_COST = CostParams(3.0, 2.0, 0.0, 0.0)
_STORE_KEYS = [(tut, cp) for tut in (T_SMALL, TuType("narrow", 60, 50, 100, 400))
               for cp in (DEFAULT_COST, _OTHER_COST)]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16))
def test_packs_sharing_a_store_equal_their_cold_packs(seed):
    """Box lists that share most of their boxes, each packed three times,
    under two types, two sets of pricing constants and tighter and looser
    caps, all with one store: every pack is the cold pack of its boxes, in
    TUs, placements, anchors, orientations, EPs, weights and unplaced
    boxes."""
    rng = random.Random(seed)
    store = {}
    for boxes in _box_lists(rng, 3):
        for _ in range(3):
            tut, cp = rng.choice(_STORE_KEYS)
            cap = rng.choice((None, 1, 2, 3))
            got = pack_3dbp(tut, boxes, cp, max_tus=cap, decisions=store)
            _same_pack(got, pack_3dbp(tut, boxes, cp, max_tus=cap))


def test_decisions_is_keyword_only():
    """perfbench's probe of ``pack_3dbp`` reads positional argument 4 as the
    ``open_tus`` the function once took, so ``decisions`` must never be
    one."""
    with pytest.raises(TypeError):
        pack_3dbp(T_SMALL, _random_boxes(random.Random(1), 5), DEFAULT_COST, SortParams(), {})


def _store_instance():
    """A scheme-2 consignment of 107 boxes and the type it packs into three
    TUs."""
    inst, _ = generate_instance(DemandPoint(3, 400), 2, seed=1)
    return inst.boxes, next(t for t in DEFAULT_CATALOG if t.id == "120x80x160")


def test_a_pack_replayed_whole_makes_no_ep_update(monkeypatch):
    """A box list packed again with a store that holds its pack, at the
    same cap or a tighter one, replays every decision: no ``best_spot``, no
    ``update_eps`` and no EP derivation. It is the cold pack: a full pack's
    repeat is cut by the tighter cap, and a cut pack's repeat at its own
    cap is cut where the recorded cut is."""
    boxes, tut = _store_instance()
    full, capped = pack_3dbp(tut, boxes), pack_3dbp(tut, boxes, max_tus=1)
    assert len(full.tus) == 3 and capped.unplaced
    whole, cut = {}, {}
    pack_3dbp(tut, boxes, decisions=whole)
    pack_3dbp(tut, boxes, max_tus=1, decisions=cut)
    calls = Counter()
    for name in ("best_spot", "update_eps", "_eps_of"):
        def counted(*args, _kernel=getattr(packer, name), _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(packer, name, counted)
    repeats = [pack_3dbp(tut, boxes, decisions=whole),
               pack_3dbp(tut, boxes, max_tus=1, decisions=whole),
               pack_3dbp(tut, boxes, max_tus=1, decisions=cut)]
    assert calls == {}
    monkeypatch.undo()
    for got, want in zip(repeats, (full, capped, capped)):
        _same_pack(got, want)


def test_a_looser_cap_continues_live_from_a_recorded_cut():
    """A pack cut at cap 1 records the cut. Its repeat with no cap replays
    the decisions up to the cut and makes the rest live, so the two ask
    ``best_spot`` as often as one cold pack; it is the cold pack, and it
    records the live decisions in place of the cut, so a third pack replays
    them all. With one more box, which sorts in late, the decisions before
    it are replayed."""
    boxes, tut = _store_instance()
    cold, cold_calls = _best_spot_calls(tut, boxes)
    store = {}
    cut, cut_calls = _best_spot_calls(tut, boxes, max_tus=1, decisions=store)
    assert len(cut.tus) == 1 and cut.unplaced
    looser, looser_calls = _best_spot_calls(tut, boxes, decisions=store)
    _same_pack(looser, cold)
    again, again_calls = _best_spot_calls(tut, boxes, decisions=store)
    _same_pack(again, cold)
    assert (cut_calls, looser_calls, again_calls, cold_calls) == (6, 144, 0, 150)
    more = boxes + [BoxSpec("extra", 12, 10, 8, 1)]
    cold, cold_calls = _best_spot_calls(tut, more)
    warm, warm_calls = _best_spot_calls(tut, more, decisions=store)
    _same_pack(warm, cold)
    assert (warm_calls, cold_calls) == (12, 151)


def test_a_replayed_tu_derives_its_eps_in_order_on_first_read(monkeypatch):
    """The TUs of a pack replayed whole come back stale. The first read
    derives the cold pack's EP array row for row, in insertion order and
    not through ``eps_of_layout``. After ``remove_at`` the history is gone,
    and the array derives as ``eps_of_layout`` does, which for some of
    these loads differs from the in-order array."""
    boxes, tut = _store_instance()
    store = {}
    cold = pack_3dbp(tut, boxes, decisions=store)
    laid_out = []
    monkeypatch.setattr(packer, "eps_of_layout",
                        lambda tu, _derive=packer.eps_of_layout: laid_out.append(tu) or _derive(tu))
    replayed = pack_3dbp(tut, boxes, decisions=store).tus
    assert all(tu._eps is None for tu in replayed)
    assert [tu.eps.tolist() for tu in replayed] == [tu.eps.tolist() for tu in cold.tus]
    assert laid_out == []
    differ = 0
    for index in (0, 5, -1):
        for tu in pack_3dbp(tut, boxes, decisions=store).tus:
            tu.remove_at(index)
            in_order = _eps_of(tu, True).tolist()
            assert tu.eps.tolist() == _eps_of(tu, False).tolist()
            differ += tu.eps.tolist() != in_order
    assert len(laid_out) == 9 and differ > 0


def test_a_clone_of_a_replayed_tu_derives_once_and_shares(monkeypatch):
    """A replayed TU's ``clone`` derives the in-order EPs once, and the TU
    and its twin share that array."""
    boxes, tut = _store_instance()
    store = {}
    pack_3dbp(tut, boxes, decisions=store)
    tu = pack_3dbp(tut, boxes, decisions=store).tus[0]
    derived = []
    monkeypatch.setattr(packer, "_eps_of",
                        lambda tu, in_order, _derive=packer._eps_of:
                        derived.append(in_order) or _derive(tu, in_order))
    twin = tu.clone()
    assert derived == [True] and twin.eps is tu.eps
    assert twin.eps.tolist() == _eps_of(tu, True).tolist()


def _twin_tus():
    """Three TUs of one pack that share one layout node: two layers of six
    boxes each, 20 cm below the roof, and different weights."""
    boxes = [BoxSpec(f"b{i}", 30, 35, 30, i) for i in range(36)]
    tus = pack_3dbp(T_SMALL, boxes).tus
    assert len(tus) == 3 and len({tu.total_weight for tu in tus}) == 3
    assert tus[0].eps is tus[1].eps is tus[2].eps and tus[0].layout is tus[2].layout
    return tus


def test_tus_of_one_layout_stay_independent():
    """A TU that shares its layout node with others keeps its own placements
    and weight, and the others keep theirs, after one of them gets ``add``
    or ``remove_at``."""
    a, b, c = _twin_tus()
    placements, weights = [list(tu.placements) for tu in (b, c)], (b.total_weight, c.total_weight)
    eps, layout = b.eps, b.layout
    assert place_best(a, free_box("small", 10, 10, 10, weight=7)) is not None
    b.remove_at(3)
    assert a.nbox == 13 and b.nbox == 11 and c.placements == placements[1]
    assert b.placements == placements[0][:3] + placements[0][4:]
    assert b.total_weight == weights[0] - placements[0][3].box.weight
    assert c.total_weight == weights[1] and c.eps is eps and c.layout is layout
    for tu in (a, c):
        alone = PackedTu(T_SMALL)
        for p in tu.placements:
            alone.add(p)
        assert ep_list(tu.eps) == ep_list(alone.eps)
    assert ep_list(b.eps) == ep_list(eps_of_layout(b))
    for tu in (a, b, c):
        _corners_are_the_layouts(tu)


def test_layout_arrays_refuse_writes():
    """The EPs, the layout and its corners are read-only on packed TUs, on
    their clones and after ``add`` and ``remove_at``, since clones and TUs of
    one layout share them."""
    a, b, _ = _twin_tus()
    twin = a.clone()
    place_best(twin, free_box("small", 10, 10, 10))
    b.remove_at(0)
    for tu in (a, b, twin, PackedTu(T_SMALL, a.placements)):
        for arr in (tu.eps, tu.layout, *tu.corners):
            with pytest.raises(ValueError, match="read-only"):
                arr[..., 0] = 1


def test_clone_shares_nothing_mutable():
    res = pack_3dbp(T_120_80_160, _random_boxes(random.Random(7), 12))
    tu = res.tus[0]
    eps, geom, layout = tu.eps, tu.corners, _layout([tu])
    twin = tu.clone()
    box = BoxSpec("extra", 10, 10, 10)
    spot = best_spot(twin, box)
    place_box(twin, box, spot[2], twin.eps[spot[1]])
    assert tu.eps is eps and not tu.eps.flags.writeable
    assert tu.corners is geom and _layout([tu]) == layout
    assert isinstance(twin, PackedTu) and twin.nbox == tu.nbox + 1


def test_packed_tu_from_placements_derives_the_layout_eps(monkeypatch):
    """``PackedTu(tut, placements)`` holds exactly ``eps_of_layout``'s array,
    and an empty one holds the origin EP without calling it."""
    for seed in range(6):
        for tu in pack_3dbp(T_120_80_160, _random_boxes(random.Random(400 + seed), 20)).tus:
            rebuilt = PackedTu(tu.tu_type, tu.placements)
            assert rebuilt.eps.tolist() == eps_of_layout(tu).tolist()
            assert not rebuilt.eps.flags.writeable
    monkeypatch.setattr("tupack.packer.eps_of_layout", None)
    assert ep_list(PackedTu(T_120_80_160).eps) == [ExtremePoint(0, 0, 0, 120, 80, 160)]


def test_tu_rebuilt_from_a_parsed_solution_takes_a_small_box():
    """A parsed TU is plain data; rebuilt as a ``PackedTu`` it has the EPs of
    its layout and lands a 1 cm box."""
    boxes = _random_boxes(random.Random(5), 12)
    inst = Instance("p", boxes, [T_120_80_160])
    sol = Solution(pack_3dbp(T_120_80_160, boxes).tus)
    parsed, _, _ = parse_solution(dump_solution(sol, inst.name, inst.objective), inst)
    tu = parsed.tus[0]
    assert type(tu) is LoadedTu
    rebuilt = PackedTu(tu.tu_type, tu.placements)
    assert place_best(rebuilt, free_box("cm", 1, 1, 1)) is not None
    assert validate_tu(rebuilt) == []


def test_plain_loaded_tu_has_no_eps_for_the_packer():
    """The packer never reads an empty EP array off a plain ``LoadedTu`` and
    answers "fits nowhere": it fails loudly instead."""
    tu = LoadedTu(T_120_80_160)
    assert not hasattr(tu, "eps")
    box = free_box("cm", 1, 1, 1)
    with pytest.raises(AttributeError):
        best_spot(tu, box)
    with pytest.raises(AttributeError):
        place_best(tu, box)


def test_empty_tus_share_one_read_only_layout():
    a, b = PackedTu(T_120_80_160), PackedTu(T_SMALL)
    assert a.layout is b.layout and a.corners is b.corners
    assert a.layout.shape == (6, 0) and a.corners[2].shape == (0,)
    assert not any(arr.flags.writeable for arr in (a.layout, *a.corners))
    place_best(a, free_box("one", 10, 20, 30))
    assert a.layout.shape == (6, 1) and b.layout.shape == (6, 0)
    assert b.corners[2].shape == (0,) and ep_list(b.eps) == [ExtremePoint(0, 0, 0, 90, 70, 80)]
    # emptied again, a TU goes back to the shared value
    a.remove_at(0)
    assert a.layout is b.layout and a.corners is b.corners


def _ref_corners(placements):
    """A load's corner rows and non-stackable mask, from the placements."""
    lo = [[p.x for p in placements], [p.y for p in placements], [p.z for p in placements]]
    hi = [[p.x + p.w for p in placements], [p.y + p.l for p in placements],
          [p.z + p.h for p in placements]]
    return lo, hi, [not p.box.stackable for p in placements]


def _corners_are_the_layouts(tu):
    lo, hi, nonstack = tu.corners
    assert (lo.tolist(), hi.tolist(), nonstack.tolist()) == _ref_corners(tu.placements)
    assert tu.layout.tolist() == lo.tolist() + hi.tolist()
    assert lo.dtype == hi.dtype == np.int64 and nonstack.dtype == bool


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16))
def test_corners_follow_every_add_and_remove(seed):
    """After every ``add`` and ``remove_at`` of random packs with rotation
    flags and non-stackable boxes, and on a clone and its original that each
    add another box, ``corners`` are the placements' corners."""
    rng = random.Random(seed)
    tus, _ = _pack_without_memo(T_SMALL, _random_boxes(rng, 16),
                                after_place=lambda tu, before, p: _corners_are_the_layouts(tu))
    for tu in tus:
        twin = tu.clone()
        place_best(tu, free_box("a", 5, 6, 7))
        place_best(twin, free_box("b", 4, 3, 2, stackable=False))
        for one in (tu, twin):
            _corners_are_the_layouts(one)
            while one.placements:
                one.remove_at(rng.randrange(one.nbox))
                _corners_are_the_layouts(one)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cp=_cost_params(), seed=st.integers(0, 2**16))
def test_best_spot_from_the_memo_parts_equals_best_spot_alone(cp, seed):
    """``best_spot`` handed the EP parts ``_floor`` leaves in the memo and the
    orientation parts ``_cheapest`` computes returns the same cost, bit for
    bit, EP and orientation as ``best_spot`` computing them itself."""
    rng = random.Random(seed)
    states = [PackedTu(T_SMALL)]
    _pack_without_memo(T_SMALL, _random_boxes(rng, 16), cp=cp,
                       after_place=lambda tu, before, p: states.append(tu.clone()))
    for tu in states:
        for box in _random_boxes(rng, 3):
            ext, memo = _oriented(box.shape)[1], _Node(tu)
            box_part = _box_part(ext.T, cp)
            _floor(memo, ext.min(axis=0), float(box_part.min()), cp)
            given = best_spot(tu, box, cp, ep_part=memo.ep_part, box_part=box_part)
            alone = best_spot(tu, box, cp)
            assert (given is None) == (alone is None)
            if given is not None:
                assert (given[0].hex(), *given[1:]) == (alone[0].hex(), *alone[1:])


def _ref_unseen(pts, seeds, frame):
    """The comparison-matrix dedupe: a point is kept when the first of the
    seeds and points with its (wall-clamped) cell number is itself, and when
    it lies inside the walls."""
    dims, scale = frame
    seen = np.concatenate((seeds, np.minimum(pts, dims))) @ scale
    key = seen[len(seeds):]
    first = (key[:, None] == seen).argmax(axis=1) == np.arange(len(seeds), len(seen))
    return pts[first & (pts < dims).all(axis=1)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)), data=st.data())
def test_unseen_equals_the_comparison_matrix_dedupe(dims, data):
    """Points drawn from a small pool (so they repeat), on the walls and
    inside, against seeds inside the TU."""
    frame = _frame(*dims)
    inside = st.tuples(*(st.integers(0, d - 1) for d in dims))
    on_or_in = st.tuples(*(st.integers(0, d) for d in dims))
    seeds = data.draw(st.lists(inside, max_size=6))
    pool = data.draw(st.lists(on_or_in, min_size=1, max_size=8))
    pts = data.draw(st.lists(st.sampled_from(pool + seeds), min_size=1, max_size=20))
    pts, seeds = (np.array(rows, dtype=np.int64).reshape(-1, 3) for rows in (pts, seeds))
    assert _unseen(pts, seeds, frame).tolist() == _ref_unseen(pts, seeds, frame).tolist()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16))
def test_an_uncovered_old_ep_keeps_room_after_the_cut(seed):
    """Cut against the new box alone, every old EP the box does not cover
    keeps a positive residual on every axis, so ``update_eps`` needs no room
    test on the old rows."""
    import tupack.packer as packer

    real, cuts = packer.update_eps, []

    def checked_update(tu, placed):
        old, box, tut = tu.eps, tu.layout[:, -1:], tu.tu_type
        covered, cut = _measure(box[:3], box[3:], old[:, :3], _frame(tut.x, tut.y, tut.z)[0])
        cuts.append((np.minimum(old[~covered, 3:], cut[~covered]) > 0).all())
        real(tu, placed)

    packer.update_eps = checked_update
    try:
        _pack_without_memo(T_SMALL, _random_boxes(random.Random(seed), 16))
    finally:
        packer.update_eps = real
    assert cuts and all(cuts)

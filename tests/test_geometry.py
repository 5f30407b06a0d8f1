from __future__ import annotations

import random

import pytest

from tupack.geometry import (
    MAX_COST_CONSTANT,
    ORIENTATION_CODES,
    BoxSpec,
    EmptyTuError,
    LoadedTu,
    ObjectiveParams,
    Placement,
    Solution,
    TuType,
    boxes_overlap,
    center_of_gravity,
    extents,
    enumerate_orientations,
    fill_rate,
    fitness,
    shipment_cost,
    taxable_weight,
    validate_tu,
    volumetric_weight,
    within_bounds,
)

T_120_80_130 = TuType("120x80x130", 120, 80, 130, 1000)
T_120_80_160 = TuType("120x80x160", 120, 80, 160, 1000)


def pl(bid, w, l, h, x, y, z, weight=0, stackable=True, txz=True, tyz=True):
    box = BoxSpec(bid, w, l, h, weight, txz=txz, tyz=tyz, stackable=stackable)
    return Placement(box, "wlh", w, l, h, x, y, z)


# ---------------------------------------------------------------------------
# orientations

def test_orientations_base_swap_only():
    box = BoxSpec("b", 30, 40, 20)
    exts = [(o.w, o.l, o.h) for o in enumerate_orientations(box)]
    assert exts == [(30, 40, 20), (40, 30, 20)]


def test_orientations_full_rotation():
    box = BoxSpec("b", 30, 40, 20, txz=True, tyz=True)
    exts = {(o.w, o.l, o.h) for o in enumerate_orientations(box)}
    # brute force: every permutation of the three dimensions
    import itertools

    assert exts == set(itertools.permutations((30, 40, 20)))
    assert len(enumerate_orientations(box)) == 6


def test_orientations_single_flag_counts():
    assert len(enumerate_orientations(BoxSpec("b", 3, 4, 5, txz=True))) == 4
    assert len(enumerate_orientations(BoxSpec("b", 3, 4, 5, tyz=True))) == 4


def test_orientations_cube_dedupes():
    box = BoxSpec("c", 10, 10, 10, txz=True, tyz=True)
    assert len(enumerate_orientations(box)) == 1


def test_orientations_height_on_z_always_present():
    box = BoxSpec("b", 3, 4, 5)
    assert all(o.h == 5 for o in enumerate_orientations(box))


def test_orientation_multiset_invariant():
    rng = random.Random(7)
    for _ in range(50):
        dims = tuple(rng.randint(1, 60) for _ in range(3))
        box = BoxSpec("b", *dims, txz=rng.random() < 0.5, tyz=rng.random() < 0.5)
        for o in enumerate_orientations(box):
            assert sorted((o.w, o.l, o.h)) == sorted(dims)


# ---------------------------------------------------------------------------
# overlap

def test_overlap_published_negative_case():
    # the two seed boxes of the fit-check walkthrough merely touch on Y
    a = pl("b1", 30, 30, 30, 0, 0, 0)
    b = pl("b2", 40, 40, 40, 15, 30, 0)
    assert not boxes_overlap(a, b)


def test_overlap_published_positive_case():
    b2 = pl("b2", 40, 40, 40, 15, 30, 0)
    b3 = pl("b3", 60, 60, 20, 0, 0, 30)
    assert boxes_overlap(b2, b3)
    assert boxes_overlap(b3, b2)


def test_overlap_self():
    a = pl("a", 10, 10, 10, 3, 4, 5)
    assert boxes_overlap(a, a)


def test_overlap_face_touching_is_not_overlap():
    a = pl("a", 10, 10, 10, 0, 0, 0)
    b = pl("b", 10, 10, 10, 10, 0, 0)
    assert not boxes_overlap(a, b)


def _voxel_overlap(a, b):
    # independent oracle: enumerate occupied unit cells per axis and intersect
    ax = set(range(a.x, a.x + a.w)) & set(range(b.x, b.x + b.w))
    ay = set(range(a.y, a.y + a.l)) & set(range(b.y, b.y + b.l))
    az = set(range(a.z, a.z + a.h)) & set(range(b.z, b.z + b.h))
    return bool(ax) and bool(ay) and bool(az)


def test_overlap_agrees_with_voxel_oracle():
    rng = random.Random(42)
    for _ in range(2000):
        a = pl("a", rng.randint(1, 50), rng.randint(1, 50), rng.randint(1, 50),
               rng.randint(0, 80), rng.randint(0, 80), rng.randint(0, 80))
        b = pl("b", rng.randint(1, 50), rng.randint(1, 50), rng.randint(1, 50),
               rng.randint(0, 80), rng.randint(0, 80), rng.randint(0, 80))
        assert boxes_overlap(a, b) == _voxel_overlap(a, b)
        assert boxes_overlap(a, b) == boxes_overlap(b, a)


# ---------------------------------------------------------------------------
# bounds

def test_within_bounds_exact_fill():
    assert within_bounds(pl("a", 120, 80, 130, 0, 0, 0), T_120_80_130)


def test_within_bounds_one_unit_overhang():
    assert not within_bounds(pl("a", 120, 80, 130, 1, 0, 0), T_120_80_130)


def test_within_bounds_walkthrough_insertion():
    assert within_bounds(pl("a", 40, 20, 30, 0, 60, 0), T_120_80_130)


# ---------------------------------------------------------------------------
# validate_tu

def test_validate_clean_empty_tu():
    assert validate_tu(LoadedTu(T_120_80_130)) == []


def test_validate_reports_overlap():
    tu = LoadedTu(TuType("p", 120, 80, 100, 1000))
    tu.add(pl("b2", 40, 40, 40, 15, 30, 0))
    tu.add(pl("b3", 60, 60, 20, 0, 0, 30))
    kinds = [v.kind for v in validate_tu(tu)]
    assert kinds == ["overlap"]


def test_validate_reports_weight():
    tu = LoadedTu(TuType("p", 120, 80, 130, 100))
    tu.add(pl("a", 60, 80, 50, 0, 0, 0, weight=100))
    tu.add(pl("b", 60, 80, 50, 60, 0, 0, weight=1))
    kinds = [v.kind for v in validate_tu(tu)]
    assert kinds == ["weight"]


def test_validate_reports_stacking():
    tu = LoadedTu(T_120_80_130)
    tu.add(pl("base", 40, 40, 20, 0, 0, 0, stackable=False))
    tu.add(pl("top", 40, 40, 20, 0, 0, 20))
    assert [v.kind for v in validate_tu(tu)] == ["stacking"]
    assert validate_tu(tu)[0].box_ids == ("base", "top")


def test_validate_stacking_partial_column_intrusion():
    tu = LoadedTu(T_120_80_130)
    tu.add(pl("base", 40, 40, 20, 0, 0, 0, stackable=False))
    # overhangs into the protected column from the side, higher up
    tu.add(pl("side", 40, 40, 30, 20, 0, 40))
    assert [v.kind for v in validate_tu(tu)] == ["stacking"]


def test_validate_reports_orientation():
    box = BoxSpec("b", 30, 40, 20)  # no vertical turn allowed
    tu = LoadedTu(T_120_80_130)
    tu.add(Placement(box, "lhw", 40, 20, 30, 0, 0, 0))
    assert [v.kind for v in validate_tu(tu)] == ["orientation"]


@pytest.mark.parametrize("dims", [(40, 40, 20), (40, 40, 40)])
@pytest.mark.parametrize("txz", [False, True])
@pytest.mark.parametrize("tyz", [False, True])
def test_validate_accepts_exactly_the_flag_legal_codes(dims, txz, tyz):
    # equal extents make some codes duplicates of others; each is still legal
    box = BoxSpec("b", *dims, txz=txz, tyz=tyz)
    for code in ORIENTATION_CODES:
        tu = LoadedTu(T_120_80_130)
        tu.add(Placement(box, code, *extents(box, code), 0, 0, 0))
        legal = {"w": txz, "l": tyz, "h": True}[code[2]]
        assert (validate_tu(tu) == []) is legal, code


def test_validate_reports_bounds():
    tu = LoadedTu(T_120_80_130)
    tu.add(pl("b", 40, 40, 140, 0, 0, 0))
    assert [v.kind for v in validate_tu(tu)] == ["bounds"]


# ---------------------------------------------------------------------------
# center of gravity

def test_cg_full_base_box():
    tu = LoadedTu(T_120_80_160)
    tu.add(pl("a", 120, 80, 50, 0, 0, 0, weight=10))
    rep = center_of_gravity(tu)
    assert rep.cg == (60, 40, 25)
    assert rep.mx == 0 and rep.my == 0
    assert rep.mz == 25 / 160


def test_cg_corner_box_measures():
    tu = LoadedTu(T_120_80_160)
    tu.add(pl("a", 60, 40, 50, 0, 0, 0, weight=10))
    rep = center_of_gravity(tu)
    assert rep.cg == (30, 20, 25)
    assert rep.mx == 0.5 and rep.my == 0.5
    assert rep.mxy == 1.0


def test_cg_mirrored_cubes_center():
    tu = LoadedTu(T_120_80_160)
    tu.add(pl("a", 10, 10, 10, 0, 0, 0, weight=5))
    tu.add(pl("b", 10, 10, 10, 110, 70, 0, weight=5))
    rep = center_of_gravity(tu)
    assert rep.mxy == 0


def test_cg_zero_weight_falls_back_to_volume():
    tu = LoadedTu(T_120_80_160)
    tu.add(pl("a", 120, 80, 50, 0, 0, 0, weight=0))
    rep = center_of_gravity(tu)
    assert rep.cg == (60, 40, 25)


def test_cg_empty_tu_raises():
    with pytest.raises(EmptyTuError):
        center_of_gravity(LoadedTu(T_120_80_160))


def test_cg_within_tu_cuboid():
    rng = random.Random(3)
    for _ in range(20):
        tu = LoadedTu(T_120_80_160)
        z = 0
        for i in range(rng.randint(1, 4)):
            h = rng.randint(10, 30)
            tu.add(pl(f"b{i}", rng.randint(10, 120), rng.randint(10, 80), h,
                      0, 0, z, weight=rng.randint(1, 9)))
            z += h
        rep = center_of_gravity(tu)
        assert 0 <= rep.cg[0] <= 120 and 0 <= rep.cg[1] <= 80 and 0 <= rep.cg[2] <= 160
        assert 0 <= rep.mz <= 1


# ---------------------------------------------------------------------------
# fitness

def test_fitness_empty_solution():
    assert fitness(Solution()) == 0.0


def test_fitness_single_tu_arithmetic():
    tu = LoadedTu(T_120_80_160)
    tu.add(pl("a", 120, 80, 160, 0, 0, 0, weight=10))  # centered, mxy = 0, mz = 0.5
    sol = Solution([tu])
    assert fitness(sol, ObjectiveParams(alpha=1, theta=100, beta=100)) == 1736.0


def test_fitness_two_identical_tus_doubles():
    def one():
        tu = LoadedTu(T_120_80_160)
        tu.add(pl("a", 120, 80, 160, 0, 0, 0, weight=10))
        return tu

    assert fitness(Solution([one(), one()])) == 2 * fitness(Solution([one()]))


def test_fitness_invariant_under_reordering():
    tu1 = LoadedTu(T_120_80_160)
    tu1.add(pl("a", 60, 40, 50, 0, 0, 0, weight=4))
    tu1.add(pl("b", 60, 40, 50, 60, 40, 0, weight=6))
    tu2 = LoadedTu(T_120_80_160)
    tu2.add(pl("b", 60, 40, 50, 60, 40, 0, weight=6))
    tu2.add(pl("a", 60, 40, 50, 0, 0, 0, weight=4))
    other = LoadedTu(T_120_80_130)
    other.add(pl("c", 30, 30, 30, 0, 0, 0, weight=2))
    assert fitness(Solution([tu1, other])) == fitness(Solution([other, tu2]))


def test_fitness_lower_bound_with_minimal_cg():
    params = ObjectiveParams(alpha=1, theta=100, beta=100)
    tu = LoadedTu(T_120_80_160)
    tu.add(pl("a", 60, 40, 50, 0, 0, 0, weight=4))
    sol = Solution([tu])
    floor = T_120_80_160.volume_liters + params.beta + params.alpha * params.theta
    assert fitness(sol, params) >= floor


@pytest.mark.parametrize("weights", [
    {"alpha": 1e308}, {"theta": 1e13}, {"beta": 1e308}, {"alpha": 1e7, "theta": 1e7},
])
def test_objective_weights_above_the_limit_raise(weights):
    with pytest.raises(ValueError, match="at most"):
        ObjectiveParams(**weights)


def test_objective_weights_at_the_limit_are_accepted():
    assert ObjectiveParams(MAX_COST_CONSTANT, 1.0, MAX_COST_CONSTANT).beta == MAX_COST_CONSTANT
    assert ObjectiveParams(1.0, MAX_COST_CONSTANT, 0.0).theta == MAX_COST_CONSTANT


def test_fitness_rejects_empty_tu():
    with pytest.raises(EmptyTuError):
        fitness(Solution([LoadedTu(T_120_80_160)]))


# ---------------------------------------------------------------------------
# fill rate

def test_fill_rate_full():
    tu = LoadedTu(T_120_80_160)
    for i in range(4):
        for j in range(8):
            x, y = (j % 4) * 30, (j // 4) * 40
            tu.add(pl(f"b{i}_{j}", 30, 40, 40, x, y, i * 40))
    assert len(tu.placements) == 32
    assert validate_tu(tu) == []
    assert fill_rate(tu) == 100.0


def test_fill_rate_empty():
    assert fill_rate(LoadedTu(T_120_80_160)) == 0.0


def test_fill_rate_single_box():
    tu = LoadedTu(T_120_80_160)
    tu.add(pl("a", 60, 40, 40, 0, 0, 0))
    assert fill_rate(tu) == pytest.approx(6.25)


# ---------------------------------------------------------------------------
# freight arithmetic

def test_volumetric_weight_tall_single_pallet():
    assert volumetric_weight(2784) == 465


def test_volumetric_weight_two_low_pallets():
    assert volumetric_weight(3072) == 513


def test_volumetric_weight_zero():
    assert volumetric_weight(0) == 0


def test_shipment_costs():
    assert shipment_cost(465, 2.30) == pytest.approx(1069.50)
    assert shipment_cost(513, 2.00) == pytest.approx(1026.00)
    assert shipment_cost(384, 2.00) == pytest.approx(768.00)


def test_taxable_weight_takes_max():
    assert taxable_weight(100, 2784) == 465
    assert taxable_weight(600, 2784) == 600

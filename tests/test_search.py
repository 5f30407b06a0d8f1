from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from tupack.fileio import dump_solution
from tupack.generator import DEFAULT_CATALOG, Instance, generate_instance, validate_solution
from tupack.geometry import (
    BoxSpec,
    LoadedTu,
    ObjectiveParams,
    Placement,
    Solution,
    TuType,
    fitness,
    validate_tu,
)
from tupack.lowerbound import DemandPoint
from tupack.packer import CostParams, SortParams, eps_of_layout, fits_empty, pack_3dbp
from tupack.search import (
    SearchParams,
    SolveStats,
    TypePointer,
    _destroy,
    _rebuild,
    initialize,
    ls1,
    ls2,
    move_n1,
    move_n2,
    move_n3,
    solve,
    try_swap,
)

OBJ = ObjectiveParams()
COST = CostParams()
SORT = SortParams()

T1 = TuType("120x80x130", 120, 80, 130, 1000)
T6 = TuType("120x120x160", 120, 120, 160, 1500)


def loaded(tut, rows):
    tu = LoadedTu(tut)
    for (bid, w, l, h, x, y, z, wgt) in rows:
        box = BoxSpec(bid, w, l, h, wgt)
        tu.add(Placement(box, "wlh", w, l, h, x, y, z))
    tu.eps = eps_of_layout(tu)
    return tu


def feasible(sol):
    return all(validate_tu(tu) == [] for tu in sol.tus)


# ---------------------------------------------------------------------------
# pointer and initialization

def test_pointer_sorted_by_volume():
    ptr = TypePointer(DEFAULT_CATALOG)
    vols = [t.volume_cm3 for t in ptr.types]
    assert vols == sorted(vols)
    # 120x120x130 is smaller than 120x100x160 and must come first
    ids = [t.id for t in ptr.types]
    assert ids.index("120x120x130") < ids.index("120x100x160")


def test_pointer_scan_is_circular_and_skips_current():
    ptr = TypePointer(DEFAULT_CATALOG)
    ptr.index = 4
    order = [i for i, _ in ptr.scan()]
    assert order == [5, 0, 1, 2, 3]


def test_initialize_uses_smallest_type():
    catalog = [TuType("120x120x160", 120, 120, 160, 1500), T1]
    inst = Instance("i", [BoxSpec(f"b{i}", 40, 40, 65, 5) for i in range(6)], catalog)
    ptr = TypePointer(catalog)
    sol = initialize(inst, ptr, COST, SORT)
    assert {tu.tu_type.id for tu in sol.tus} == {"120x80x130"}


def test_initialize_empty_instance():
    inst = Instance("i", [], list(DEFAULT_CATALOG))
    sol = initialize(inst, TypePointer(DEFAULT_CATALOG), COST, SORT)
    assert sol.tus == []
    assert fitness(sol) == 0.0


def test_initialize_perfect_fill():
    catalog = [TuType("120x80x160", 120, 80, 160, 1000), T6]
    boxes = [BoxSpec(f"b{i}", 40, 30, 40, 1) for i in range(32)]
    inst = Instance("i", boxes, catalog)
    sol = initialize(inst, TypePointer(catalog), COST, SORT)
    assert len(sol.tus) == 1


def test_initialize_overflows_to_larger_types():
    # a box wider than the small type's base must land on the big one
    catalog = [T1, T6]
    boxes = [BoxSpec("wide", 110, 110, 40, 5), BoxSpec("small", 30, 30, 30, 5)]
    inst = Instance("i", boxes, catalog)
    sol = initialize(inst, TypePointer(catalog), COST, SORT)
    assert feasible(sol)
    homes = {p.box.id: tu.tu_type.id for tu in sol.tus for p in tu.placements}
    assert homes["wide"] == "120x120x160"
    assert homes["small"] == "120x80x130"


def test_initialize_raises_for_unpackable_box():
    from tupack.geometry import BoxUnpackableError

    inst = Instance("i", [BoxSpec("giant", 300, 300, 300)], [T1])
    with pytest.raises(BoxUnpackableError):
        initialize(inst, TypePointer([T1]), COST, SORT)


# ---------------------------------------------------------------------------
# N1 relocation

def n1_fixture():
    # each TU has a full-footprint pedestal that cannot move (no room in the
    # other TU); only the corner box on top of A can migrate
    a = loaded(T1, [
        ("baseA", 120, 80, 100, 0, 0, 0, 500),
        ("top", 40, 40, 30, 0, 0, 100, 100),
    ])
    b = loaded(T1, [("baseB", 120, 80, 100, 0, 0, 0, 700)])
    return Solution([a, b])


def test_n1_relocates_and_improves():
    sol = n1_fixture()
    before = fitness(sol, OBJ)
    cand = move_n1(sol, random.Random(1), OBJ, COST, SearchParams(), before)
    assert cand is not None
    assert fitness(cand, OBJ) < before
    assert feasible(cand)
    assert len(cand.tus) == 2
    homes = {p.box.id: i for i, tu in enumerate(cand.tus) for p in tu.placements}
    assert homes["top"] == 1


def test_n1_single_tu_no_move():
    sol = Solution([loaded(T1, [("a", 40, 40, 40, 0, 0, 0, 10)])])
    assert move_n1(sol, random.Random(0), OBJ, COST, SearchParams(), fitness(sol)) is None


def test_n1_pool_smaller_than_three():
    # origin holds two boxes: the selection pool is just those two
    from tupack.search import _top_layer

    tu = loaded(T1, [
        ("a", 60, 80, 30, 0, 0, 0, 10),
        ("b", 60, 80, 30, 60, 0, 0, 10),
    ])
    assert _top_layer(tu) == [0, 1]


def test_top_layer_excludes_covered_boxes():
    from tupack.search import _top_layer

    tu = loaded(T1, [
        ("base", 120, 80, 20, 0, 0, 0, 10),
        ("hat", 40, 40, 20, 0, 0, 20, 5),
    ])
    assert _top_layer(tu) == [1]


def test_top_layer_matches_pairwise_definition():
    from tupack.geometry import xy_overlap
    from tupack.packer import pack_3dbp
    from tupack.search import _top_layer

    rng = random.Random(3)
    for _ in range(20):
        boxes = [BoxSpec(f"b{i}", rng.randint(10, 60), rng.randint(10, 60), rng.randint(5, 40))
                 for i in range(rng.randint(1, 40))]
        for tu in pack_3dbp(T1, boxes).tus:
            ps = tu.placements
            clear = [i for i, p in enumerate(ps)
                     if not any(j != i and xy_overlap(p, q) and q.top > p.top
                                for j, q in enumerate(ps))]
            assert _top_layer(tu) == sorted(clear, key=lambda i: (-ps[i].top, i))


# ---------------------------------------------------------------------------
# N2 swap

def test_swap_identical_boxes_keeps_fitness():
    a = loaded(T1, [("a", 40, 40, 40, 0, 0, 0, 10)])
    b = loaded(T1, [("b", 40, 40, 40, 0, 0, 0, 10)])
    sol = Solution([a, b])
    before = fitness(sol, OBJ)
    swapped = try_swap(sol, 0, 0, 1, 0, COST)
    assert swapped is not None
    assert feasible(swapped)
    assert fitness(swapped, OBJ) == pytest.approx(before)
    homes = {p.box.id: i for i, tu in enumerate(swapped.tus) for p in tu.placements}
    assert homes == {"a": 1, "b": 0}


def test_swap_infeasible_when_box_too_tall():
    # b cannot host "tall" above its pedestal: 100 + 40 > 130
    a = loaded(T1, [("tall", 40, 40, 40, 0, 0, 0, 10)])
    b = loaded(T1, [
        ("pedestal", 120, 80, 100, 0, 0, 0, 10),
        ("cap", 120, 80, 30, 0, 0, 100, 5),
    ])
    swapped = try_swap(sol := Solution([a, b]), 0, 0, 1, 1, COST)
    assert swapped is None


def test_swap_cross_fitting_boxes():
    # two full-base boxes of different heights trade TUs, each landing on
    # the floor the other vacated
    a = loaded(T1, [("slab", 120, 80, 50, 0, 0, 0, 60)])
    b = loaded(T1, [("block", 120, 80, 70, 0, 0, 0, 90)])
    swapped = try_swap(Solution([a, b]), 0, 0, 1, 0, COST)
    assert swapped is not None
    assert feasible(swapped)
    homes = {p.box.id: i for i, tu in enumerate(swapped.tus) for p in tu.placements}
    assert homes == {"slab": 1, "block": 0}
    assert all(p.z == 0 for tu in swapped.tus for p in tu.placements)


def test_n2_no_move_on_single_tu():
    sol = Solution([loaded(T1, [("a", 40, 40, 40, 0, 0, 0, 10)])])
    assert move_n2(sol, random.Random(0), OBJ, COST, SearchParams(), fitness(sol)) is None


# ---------------------------------------------------------------------------
# N3 destroy and repack

def half_full_pair():
    carve = [(x, y, z) for z in (0, 65) for x in (0, 40, 80) for y in (0, 40)]
    rows1 = [(f"a{i}", 40, 40, 65) + carve[i] + (5,) for i in range(6)]
    rows2 = [(f"b{i}", 40, 40, 65) + carve[i] + (5,) for i in range(6)]
    return Solution([loaded(T1, rows1), loaded(T1, rows2)])


def test_n3_consolidates_two_half_tus():
    sol = half_full_pair()
    ptr = TypePointer([T1])
    before = fitness(sol, OBJ)
    cand = move_n3(sol, random.Random(3), ptr, OBJ, COST, SORT, SearchParams(), before)
    assert cand is not None
    assert len(cand.tus) == 1
    assert feasible(cand)
    assert fitness(cand, OBJ) < before


def test_n3_single_tu_no_move():
    sol = Solution([loaded(T1, [("a", 40, 40, 40, 0, 0, 0, 10)])])
    ptr = TypePointer([T1])
    assert move_n3(sol, random.Random(0), ptr, OBJ, COST, SORT, SearchParams(), fitness(sol)) is None


# ---------------------------------------------------------------------------
# LS1

def test_ls1_leaves_local_optimum_alone():
    boxes = [(f"b{i}", 40, 40, 65) for i in range(12)]
    carve = [(x, y, z) for z in (0, 65) for x in (0, 40, 80) for y in (0, 40)]
    rows = [b + c + (5,) for b, c in zip(boxes, carve)]
    sol = Solution([loaded(T1, rows)])
    out = ls1(sol, SearchParams(), TypePointer([T1]), random.Random(0), OBJ, COST, SORT)
    assert out is sol


def test_ls1_consolidates_via_n3():
    sol = half_full_pair()
    out = ls1(sol, SearchParams(), TypePointer([T1]), random.Random(5), OBJ, COST, SORT)
    assert len(out.tus) == 1
    assert feasible(out)
    assert fitness(out, OBJ) < fitness(sol, OBJ)


def test_ls1_never_worsens_and_stays_feasible():
    rng = random.Random(8)
    boxes = [
        BoxSpec(f"b{i}", rng.randint(20, 60), rng.randint(20, 60), rng.randint(20, 60),
                rng.randint(1, 30), txz=True, tyz=True)
        for i in range(25)
    ]
    inst = Instance("i", boxes, list(DEFAULT_CATALOG))
    ptr = TypePointer(DEFAULT_CATALOG)
    sol = initialize(inst, ptr, COST, SORT)
    out = ls1(sol, SearchParams(seed=8), ptr, random.Random(8), OBJ, COST, SORT)
    assert fitness(out, OBJ) <= fitness(sol, OBJ)
    assert feasible(out)
    assert sorted(out.box_ids()) == sorted(b.id for b in boxes)


# ---------------------------------------------------------------------------
# LS2

def test_ls2_keeps_good_solution():
    boxes = [(f"b{i}", 40, 40, 65) for i in range(12)]
    carve = [(x, y, z) for z in (0, 65) for x in (0, 40, 80) for y in (0, 40)]
    rows = [b + c + (5,) for b, c in zip(boxes, carve)]
    sol = Solution([loaded(T1, rows)])  # 100% fill, zero slack
    ptr = TypePointer(DEFAULT_CATALOG)
    out, improved = ls2(sol, SearchParams(omega=95), ptr, random.Random(0), OBJ, COST, SORT)
    assert improved is False
    assert out is sol
    assert ptr.index == 0


def test_ls2_adopts_smaller_type():
    catalog = [T1, T6]
    tu = loaded(T6, [("big", 100, 60, 100, 0, 0, 0, 50)])
    sol = Solution([tu])
    ptr = TypePointer(catalog)
    ptr.index = 1  # as if the incumbent had been built with the big type
    out, improved = ls2(sol, SearchParams(omega=95, gamma=100), ptr, random.Random(0), OBJ, COST, SORT)
    assert improved is True
    assert [t.tu_type.id for t in out.tus] == ["120x80x130"]
    assert ptr.index == 0
    assert fitness(out, OBJ) < fitness(sol, OBJ)


def test_ls2_lateral_slack_triggers_destruction():
    # 96% fill but a 70 cm empty strip along Y: slack criterion fires alone
    tu = loaded(T1, [("slab", 120, 10, 125, 0, 0, 0, 50)])
    assert tu.lateral_slack() == 0  # reaches both walls: no slack on X
    tu2 = loaded(T1, [("post", 50, 10, 130, 0, 0, 0, 50)])
    assert tu2.lateral_slack() == 70
    sol = Solution([tu2])
    ptr = TypePointer([T1, T6])
    out, improved = ls2(sol, SearchParams(omega=0, gamma=60), ptr, random.Random(0), OBJ, COST, SORT)
    # destroyed and rebuilt with the other type is worse here, so no change
    assert improved is False


def test_ls2_scans_each_type_at_most_once():
    calls = []
    import tupack.search as search_mod

    orig = search_mod.pack_3dbp

    def spy(tut, boxes, cost, sort, open_tus=None, max_tus=None):
        calls.append(tut.id)
        return orig(tut, boxes, cost, sort, open_tus=open_tus, max_tus=max_tus)

    tu = loaded(T6, [("big", 100, 60, 100, 0, 0, 0, 50)])
    ptr = TypePointer(DEFAULT_CATALOG)
    search_mod.pack_3dbp = spy
    try:
        ls2(Solution([tu]), SearchParams(omega=5, gamma=10000), ptr,
            random.Random(0), OBJ, COST, SORT)
    finally:
        search_mod.pack_3dbp = orig
    assert len(calls) == len(set(calls))
    assert len(calls) <= len(DEFAULT_CATALOG)


# ---------------------------------------------------------------------------
# solve

def make_instance(volume, weight, scheme, seed=1, name="t"):
    inst, ref = generate_instance(DemandPoint(volume, weight), scheme, name=name, seed=seed)
    return inst, ref


def test_solve_empty_instance():
    inst = Instance("e", [], list(DEFAULT_CATALOG))
    sol = solve(inst, search=SearchParams(seed=1))
    assert sol.tus == []


def test_solve_deterministic_given_seed():
    inst, _ = make_instance(2, 800, scheme=1, seed=4)
    a = solve(inst, search=SearchParams(seed=9))
    b = solve(inst, search=SearchParams(seed=9))
    lay = lambda s: [
        (tu.tu_type.id, [(p.box.id, p.code, p.x, p.y, p.z) for p in tu.placements])
        for tu in s.tus
    ]
    assert lay(a) == lay(b)


def test_solve_seeds_differ_but_stay_feasible():
    inst, _ = make_instance(2, 800, scheme=2, seed=4)
    for seed in (1, 2):
        sol = solve(inst, search=SearchParams(seed=seed))
        assert feasible(sol)
        assert sorted(sol.box_ids()) == sorted(b.id for b in inst.boxes)


def test_solve_monotone_trajectory_and_stats():
    inst, _ = make_instance(3, 1000, scheme=3, seed=2)
    stats = SolveStats()
    sol = solve(inst, search=SearchParams(seed=3, omega=95), stats=stats)
    values = [ev.fitness for ev in stats.trace]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    assert stats.final_fitness <= stats.initial_fitness
    assert stats.final_fitness == pytest.approx(fitness(sol, OBJ))


def test_solve_scheme3_single_type_reaches_lower_bound():
    # three 120x120x130 TUs carved into identical boxes: the high-omega run
    # must rediscover the original type and count
    inst, ref = make_instance(5.616, 1200, scheme=3, seed=7)
    assert inst.lower_bound.counts == (0, 0, 0, 0, 3, 0)
    sol = solve(inst, search=SearchParams(seed=1, omega=95))
    assert feasible(sol)
    assert sol.type_counts() == {"120x120x130": 3}


def test_solve_omega95_beats_omega75_on_big_type_instance():
    inst, _ = make_instance(5.616, 1200, scheme=3, seed=7)
    lo = solve(inst, search=SearchParams(seed=1, omega=75))
    hi = solve(inst, search=SearchParams(seed=1, omega=95))
    assert len(hi.tus) < len(lo.tus)
    assert fitness(hi, OBJ) < fitness(lo, OBJ)


# ---------------------------------------------------------------------------
# solve on random instances with rotation flags and non-stackable boxes, which
# the generator never emits: the search removes, swaps and re-packs them

_flagged_box = st.tuples(
    st.integers(10, 90), st.integers(10, 90), st.integers(10, 90), st.integers(0, 400),
    st.booleans(), st.booleans(), st.booleans(),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_flagged_box, min_size=6, max_size=40), seed=st.integers(0, 9),
       omega=st.sampled_from([80.0, 95.0]))
def test_solve_on_flagged_boxes_is_valid_monotone_and_deterministic(rows, seed, omega):
    boxes = [BoxSpec(f"b{i}", *row) for i, row in enumerate(rows)]
    inst = Instance("flagged", boxes, [T1, T6])
    params = SearchParams(omega=omega, seed=seed)
    stats = SolveStats()
    sol = solve(inst, search=params, stats=stats)
    assert validate_solution(inst, sol) == []
    values = [ev.fitness for ev in stats.trace]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    again = solve(inst, search=params)
    text = dump_solution(sol, inst.name, inst.objective)
    assert dump_solution(again, inst.name, inst.objective) == text


# ---------------------------------------------------------------------------
# the rebuild cap never changes a decision of the search

_OBJECTIVES = [OBJ, ObjectiveParams(0.0, 0.0, 0.0), ObjectiveParams(1000.0, 100.0, 100.0)]


def _rebuild_uncapped(survivors, released, tut):
    """The rebuild with no cap: every released box packed with the type."""
    if any(not fits_empty(b, tut) for b in released):
        return None
    result = pack_3dbp(tut, released, COST, SORT)
    return Solution([tu.clone() for tu in survivors] + result.tus)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_flagged_box, min_size=4, max_size=40), data=st.data())
def test_capped_rebuild_makes_the_uncapped_decision(rows, data):
    boxes = [BoxSpec(f"b{i}", *row) for i, row in enumerate(rows)]
    inst = Instance("rebuild", boxes, list(DEFAULT_CATALOG))
    sol = initialize(inst, TypePointer(inst.catalog), COST, SORT)
    victims = sorted(data.draw(st.sets(st.integers(0, len(sol.tus) - 1), min_size=1)))
    tut = data.draw(st.sampled_from(DEFAULT_CATALOG))
    vset = set(victims)
    survivors = [tu for i, tu in enumerate(sol.tus) if i not in vset]
    released = [p.box for i in victims for p in sol.tus[i].placements]
    ref = _rebuild_uncapped(survivors, released, tut)
    for objective in _OBJECTIVES:
        # the incumbent is the solution itself, or sits just above the
        # uncapped candidate (where a cap one TU too tight would cut), at it,
        # or below it by a little or by enough to cut the pack
        incumbents = [fitness(sol, objective)]
        if ref is not None:
            near = fitness(ref, objective)
            incumbents += [near * (1 + 1e-12), near, near * (1 - 1e-12), near * 0.99, near * 0.8]
        for incumbent in incumbents:
            kept, freed, budget = _destroy(sol, victims, objective, incumbent)
            assert freed == released
            got = _rebuild(kept, freed, tut, COST, SORT, objective, budget)
            if ref is not None and fitness(ref, objective) < incumbent:
                assert got is not None
            if got is not None:
                assert (dump_solution(got, inst.name, objective)
                        == dump_solution(ref, inst.name, objective))

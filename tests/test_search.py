from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from tupack.fileio import dump_solution
from tupack.generator import DEFAULT_CATALOG, Instance, generate_instance, validate_solution
from tupack.geometry import (
    BoxSpec,
    ObjectiveParams,
    Placement,
    Solution,
    TuType,
    fitness,
    validate_tu,
)
from tupack.lowerbound import DemandPoint
from tupack.packer import (
    CostParams,
    PackedTu,
    SortParams,
    fits_empty,
    pack_3dbp,
    place_best,
)
from tupack.search import (
    MAX_MICRO_REPEATS,
    Run,
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
    return PackedTu(tut, [Placement(BoxSpec(bid, w, l, h, wgt), "wlh", w, l, h, x, y, z)
                          for (bid, w, l, h, x, y, z, wgt) in rows])


def feasible(sol):
    return all(validate_tu(tu) == [] for tu in sol.tus)


def _run(seed=0, pointer=None, params=None, objective=OBJ):
    """One search run with the test constants; the pointer defaults to T1 alone."""
    return Run(objective, COST, SORT, params or SearchParams(), random.Random(seed),
               pointer or TypePointer([T1]), SolveStats())


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


def test_box_unpackable_error_survives_pickling():
    """A process pool pickles a worker's exception: it comes back with its
    box id and message intact."""
    import pickle

    from tupack.geometry import BoxUnpackableError

    err = pickle.loads(pickle.dumps(BoxUnpackableError("big1")))
    assert type(err) is BoxUnpackableError and err.box_id == "big1"
    assert str(err) == "box 'big1' fits no available transport unit type"


def test_per_box_records_are_slotted_and_survive_pickling():
    """The records kept once per box, placement or orientation carry no
    per-object ``__dict__``, and a generated instance and its reference
    still cross a process pool (``batch --jobs N``) unchanged."""
    import pickle

    from tupack.generator import CarvedBox
    from tupack.geometry import Orientation

    box = BoxSpec("b", 30, 20, 10, 4)
    orientation = Orientation("wlh", 30, 20, 10)
    for record in (box, orientation, Placement.of(box, orientation, 0, 0, 0),
                   CarvedBox(30, 20, 10, 0, 0, 0)):
        assert not hasattr(record, "__dict__"), type(record).__name__

    inst, ref = generate_instance(DemandPoint(1.5, 400), 2, name="p", seed=4)
    inst2, ref2 = pickle.loads(pickle.dumps((inst, ref)))
    assert inst2 == inst
    assert [hash(b) for b in inst2.boxes] == [hash(b) for b in inst.boxes]
    assert [(tu.tu_type, tu.placements) for tu in ref2.tus] == \
        [(tu.tu_type, tu.placements) for tu in ref.tus]
    assert [hash(p) for tu in ref2.tus for p in tu.placements] == \
        [hash(p) for tu in ref.tus for p in tu.placements]


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
    cand = move_n1(sol, _run(1), before)
    assert cand is not None
    assert fitness(cand, OBJ) < before
    assert feasible(cand)
    assert len(cand.tus) == 2
    homes = {p.box.id: i for i, tu in enumerate(cand.tus) for p in tu.placements}
    assert homes["top"] == 1


def test_n1_single_tu_no_move():
    sol = Solution([loaded(T1, [("a", 40, 40, 40, 0, 0, 0, 10)])])
    assert move_n1(sol, _run(0), fitness(sol)) is None


def test_n1_never_retries_a_relocation_on_one_incumbent(monkeypatch):
    """With two TUs every drawn (origin, destination, box) is one of at most
    2 x 1 x 3 triples, while strategies 1, 3 and 4 draw micro_repeats times
    each, so 30 draws must repeat; each triple still reaches ``_relocate``
    only once."""
    tried = []

    def recording(sol, origin, dest, pick, cost):
        tried.append((origin, dest, pick))
        return None

    monkeypatch.setattr("tupack.search._relocate", recording)
    sol = Solution([
        loaded(T1, [(f"a{i}", 40, 80, 30, 40 * i, 0, 0, 10) for i in range(3)]),
        loaded(T1, [(f"b{i}", 60, 80, 30, 60 * i, 0, 0, 10) for i in range(2)]),
    ])
    assert move_n1(sol, _run(5, params=SearchParams(micro_repeats=10)), fitness(sol)) is None
    assert tried and len(tried) == len(set(tried)) <= 6


def test_micro_repeats_limit():
    assert SearchParams(micro_repeats=MAX_MICRO_REPEATS).micro_repeats == MAX_MICRO_REPEATS
    with pytest.raises(ValueError, match="micro_repeats"):
        SearchParams(micro_repeats=MAX_MICRO_REPEATS + 1)


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
            top = _top_layer(tu)
            assert top == sorted(clear, key=lambda i: (-ps[i].top, i))
            # a non-empty TU's top layer holds its highest box, so the moves
            # that draw from it never meet an empty one
            assert ps and top and ps[top[0]].top == tu.height()


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
    assert move_n2(sol, _run(0), fitness(sol)) is None


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
    cand = move_n3(sol, _run(3, ptr), before)
    assert cand is not None
    assert len(cand.tus) == 1
    assert feasible(cand)
    assert fitness(cand, OBJ) < before


def test_n3_single_tu_no_move():
    sol = Solution([loaded(T1, [("a", 40, 40, 40, 0, 0, 0, 10)])])
    ptr = TypePointer([T1])
    assert move_n3(sol, _run(0, ptr), fitness(sol)) is None


# ---------------------------------------------------------------------------
# LS1

def test_ls1_leaves_local_optimum_alone():
    boxes = [(f"b{i}", 40, 40, 65) for i in range(12)]
    carve = [(x, y, z) for z in (0, 65) for x in (0, 40, 80) for y in (0, 40)]
    rows = [b + c + (5,) for b, c in zip(boxes, carve)]
    sol = Solution([loaded(T1, rows)])
    out = ls1(sol, _run(0))
    assert out is sol


def test_ls1_consolidates_via_n3():
    sol = half_full_pair()
    out = ls1(sol, _run(5))
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
    out = ls1(sol, _run(8, ptr, SearchParams(seed=8)))
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
    out, improved = ls2(sol, _run(0, ptr, SearchParams(omega=95)))
    assert improved is False
    assert out is sol
    assert ptr.index == 0


def test_ls2_adopts_smaller_type():
    catalog = [T1, T6]
    tu = loaded(T6, [("big", 100, 60, 100, 0, 0, 0, 50)])
    sol = Solution([tu])
    ptr = TypePointer(catalog)
    ptr.index = 1  # as if the incumbent had been built with the big type
    out, improved = ls2(sol, _run(0, ptr, SearchParams(omega=95, gamma=100)))
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
    out, improved = ls2(sol, _run(0, ptr, SearchParams(omega=0, gamma=60)))
    # destroyed and rebuilt with the other type is worse here, so no change
    assert improved is False


def test_ls2_scans_each_type_at_most_once():
    calls = []
    import tupack.search as search_mod

    orig = search_mod.pack_3dbp

    def spy(tut, boxes, cost, sort, *, max_tus=None):
        calls.append(tut.id)
        return orig(tut, boxes, cost, sort, max_tus=max_tus)

    tu = loaded(T6, [("big", 100, 60, 100, 0, 0, 0, 50)])
    ptr = TypePointer(DEFAULT_CATALOG)
    search_mod.pack_3dbp = spy
    try:
        ls2(Solution([tu]), _run(0, ptr, SearchParams(omega=5, gamma=10000)))
    finally:
        search_mod.pack_3dbp = orig
    assert len(calls) == len(set(calls))
    assert len(calls) <= len(DEFAULT_CATALOG)


# ---------------------------------------------------------------------------
# solve

def make_instance(volume, weight, scheme, seed=1, name="t"):
    inst, ref = generate_instance(DemandPoint(volume, weight), scheme, name=name, seed=seed)
    return inst, ref


# sha256 of the placement lines of ``solve`` (search seed 3) on instances
# generated with seed 11, keyed by (volume m3, weight kg, scheme)
_PINNED = {
    (1.5, 300, 1): "936113b58f8ebbcd67d1672214c8fc174f6529089f269c2107908af28335d532",
    (1.5, 300, 2): "13ab52a61cd67d890e614c8e868e48c12fbd6cafa1c6dd2a8f0ccd4c3b7b56e0",
    (1.5, 300, 3): "718fa0ac3965116be217d77cc3ec0dd7897c7614e71171a69ccf5080f301b69d",
    (2.8, 1200, 1): "5b9df6b6307e2c9c8a998b80467e6518c93c3b02bae9a27fca1af9e206cd75a2",
    (2.8, 1200, 2): "c36fadba607ebcedea03a6ee384c7262e7c5ac7ae4eee67367648f96ac97f6ea",
    (2.8, 1200, 3): "85cf62bbd683c57613aef2636fc47e1110f04902b290210a3f38b7fe421a613a",
}


@pytest.mark.parametrize("volume, weight, scheme", list(_PINNED))
def test_solve_output_is_pinned(volume, weight, scheme):
    """``solve`` writes the same placements as the commit that pinned them.

    The float ``fitness`` line is left out. A speed-up leaves the digests as
    they are. A deliberate behaviour change (ROADMAP items 1, 4 and 5:
    certified bounds, volume-first rebuilds with a perturbation, a layer
    constructive) updates them and says so in CHANGES.md."""
    inst, _ = make_instance(volume, weight, scheme, seed=11, name=f"pin{scheme}")
    sol = solve(inst, search=SearchParams(seed=3))
    lines = dump_solution(sol, inst.name, inst.objective).splitlines(keepends=True)
    body = "".join(line for line in lines if not line.startswith("fitness "))
    assert hashlib.sha256(body.encode()).hexdigest() == _PINNED[volume, weight, scheme]


def test_solve_empty_instance():
    inst = Instance("e", [], list(DEFAULT_CATALOG))
    stats = SolveStats()
    sol = solve(inst, search=SearchParams(seed=1), stats=stats)
    assert sol.tus == []
    assert [(ev.phase, ev.fitness, ev.tu_count) for ev in stats.trace] == [("init", 0.0, 0)]


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


def test_stats_count_and_gain_each_accepted_step(monkeypatch):
    """Each phase's improvement count and gain, read from the trace, equal
    what its accepted steps did, and the gains add up to the solve's total
    fitness decrease."""
    import tupack.search as search

    accepted, gain = {}, {}

    def spy(fn, phase, before_of, after_of):
        def wrapper(*args):
            out = fn(*args)
            after = after_of(out)
            if after is not None:
                accepted[phase] += 1
                gain[phase] += before_of(args) - fitness(after, OBJ)
            return out
        return wrapper

    for name in ("move_n1", "move_n2", "move_n3"):
        monkeypatch.setattr(search, name, spy(getattr(search, name), "ls1",
                                              lambda args: args[-1], lambda out: out))
    monkeypatch.setattr(search, "ls2", spy(search.ls2, "ls2", lambda args: fitness(args[0], OBJ),
                                           lambda out: out[0] if out[1] else None))
    for volume, weight, seed in ((2, 500, 4), (3, 900, 5)):
        inst, _ = make_instance(volume, weight, scheme=2, seed=seed)
        accepted.update(ls1=0, ls2=0)
        gain.update(ls1=0.0, ls2=0.0)
        stats = SolveStats()
        sol = solve(inst, search=SearchParams(seed=seed, omega=95), stats=stats)
        assert accepted["ls1"] > 0 and accepted["ls2"] > 0
        for phase in ("ls1", "ls2"):
            assert stats.improvements(phase) == accepted[phase]
            assert stats.gain(phase) == pytest.approx(gain[phase])
        assert stats.final_fitness == fitness(sol, OBJ)
        assert stats.trace[-1].tu_count == len(sol.tus)
        assert stats.gain("ls1") + stats.gain("ls2") == pytest.approx(
            stats.initial_fitness - stats.final_fitness)


def test_trace_never_steers_the_search():
    """The same solve writes the same solution whether the caller keeps its
    trace, keeps it in stats that already hold another solve's trace, or
    passes none, on instances where both ls1 and ls2 accept steps."""
    for volume, weight, seed in ((2, 500, 4), (3, 900, 5)):
        inst, _ = make_instance(volume, weight, scheme=2, seed=seed)
        params = SearchParams(seed=seed, omega=95)
        kept = SolveStats()
        texts = [dump_solution(solve(inst, search=params, stats=stats), inst.name, inst.objective)
                 for stats in (kept, None, kept)]
        assert kept.improvements("ls1") > 0 and kept.improvements("ls2") > 0
        assert texts[1] == texts[0] and texts[2] == texts[0]


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
        # one run serves every incumbent, in both orders, so its rebuild memo
        # answers equal, looser and tighter caps than the pack it stored
        run = _run(objective=objective)
        for incumbent in incumbents + incumbents[::-1]:
            kept, freed, budget = _destroy(sol, victims, objective, incumbent)
            assert freed == released
            got = _rebuild(kept, freed, tut, run, budget)
            if ref is not None and fitness(ref, objective) < incumbent:
                assert got is not None
            if got is not None:
                assert (dump_solution(got, inst.name, objective)
                        == dump_solution(ref, inst.name, objective))


def test_rebuild_memo_packs_a_key_once_per_cap_and_hands_out_copies(monkeypatch):
    """Per (type, released boxes), ``_rebuild`` packs once, and again only for
    a cap looser than one its pack was cut at; every other call is answered
    from the memo with copies that the candidates may change freely."""
    caps = []

    def counting(*args, **kwargs):
        caps.append(kwargs["max_tus"])
        return pack_3dbp(*args, **kwargs)

    inst, _ = make_instance(1.5, 300, 2, seed=11, name="memo")
    sol = initialize(inst, TypePointer(inst.catalog), COST, SORT)
    monkeypatch.setattr("tupack.search.pack_3dbp", counting)
    tut = next(t for t in inst.catalog if t.id == "120x80x160")
    kept, freed, _ = _destroy(sol, list(range(len(sol.tus))), OBJ, fitness(sol, OBJ))
    # the full pack needs 2 TUs of this type; volume and weight allow 1
    assert len(_rebuild_uncapped(kept, freed, tut).tus) == 2
    per_tu = tut.volume_liters + OBJ.alpha * OBJ.theta + OBJ.beta
    run = _run()

    def rebuild(cap):
        return _rebuild(kept, freed, tut, run, (cap + 0.5) * per_tu)

    assert rebuild(1) is None and caps == [1]          # cut at cap 1
    assert rebuild(1) is None and caps == [1]          # same cap: served
    first = rebuild(2)                                  # looser cap: packs again
    assert first is not None and caps == [1, 2]
    text = dump_solution(first, inst.name, OBJ)
    assert rebuild(1) is None and caps == [1, 2]        # tighter than the full pack
    second = rebuild(2)
    assert caps == [1, 2] and dump_solution(second, inst.name, OBJ) == text
    assert place_best(first.tus[-1], BoxSpec("extra", 1, 1, 1, 0), COST) is not None
    assert dump_solution(second, inst.name, OBJ) == text
    third = rebuild(5)
    assert caps == [1, 2] and dump_solution(third, inst.name, OBJ) == text

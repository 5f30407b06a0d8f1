from __future__ import annotations

import random
import sys
from dataclasses import dataclass

import pytest

from tupack.generator import (
    DEFAULT_CATALOG,
    BUILTIN_DEMANDS,
    CarvedBox,
    InfeasibleBoundsError,
    Instance,
    PERFECT_PARTITIONS,
    PartitionBounds,
    UnknownTypeError,
    _cut,
    generate_instance,
    partition_scheme1,
    partition_scheme2,
    partition_scheme3,
    validate_solution,
)
from tupack.geometry import (
    BoxSpec,
    LoadedTu,
    Placement,
    Solution,
    TuType,
    center_of_gravity,
    fill_rate,
    fitness,
    validate_tu,
)
from tupack.lowerbound import (
    DemandPoint,
    LowerBound,
    _scaled,
    solve_lower_bound,
)


def brute_force_lower_bound(
    demand: DemandPoint, catalog: list[TuType], beta: float = 100.0,
    max_total: int | None = None,
) -> LowerBound:
    """Independent oracle: exhaustive enumeration of count vectors.

    Checks every vector with at most ``max_total`` TUs and returns the
    feasible one of minimum objective, ties to the lexicographically
    smallest. Costs are compared exactly: a TU is charged the float
    ``beta * 1000.0`` milli-liters the search charges it, taken as the
    exact rational it holds. Only valid when the true optimum uses at most
    ``max_total``; the default is the cost of the cheapest one-type
    covering over the least cost of one TU, which no optimum exceeds.
    """
    n = len(catalog)
    vols, caps, need_v, need_w = _scaled(demand, catalog)
    # costs scaled by den are integers: vol * den + num per TU
    num, den = (beta * 1000.0).as_integer_ratio()
    if max_total is None:
        upper = min(max(-(-need_v // v), -(-need_w // q)) * (v * den + num)
                    for v, q in zip(vols, caps))
        max_total = upper // (min(vols) * den + num)
    best: tuple[int, tuple[int, ...]] | None = None
    counts = [0] * n

    def rec(i: int, tus: int, vol: int, wgt: int):
        nonlocal best
        if i == n:
            if vol >= need_v and wgt >= need_w:
                key = (vol * den + num * tus, tuple(counts))
                if best is None or key < best:
                    best = key
            return
        for c in range(max_total - tus + 1):
            counts[i] = c
            rec(i + 1, tus + c, vol + c * vols[i], wgt + c * caps[i])
        counts[i] = 0

    rec(0, 0, 0, 0)
    assert best is not None, "demand not coverable within max_total TUs"
    return LowerBound.of(best[1], catalog, beta)


def assert_exact_tiling(tut, carved):
    """Geometric oracle: volume conservation, zero overlaps, containment."""
    total = sum(c.w * c.l * c.h for c in carved)
    assert total == tut.volume_cm3
    for c in carved:
        assert 0 <= c.x and c.x + c.w <= tut.x
        assert 0 <= c.y and c.y + c.l <= tut.y
        assert 0 <= c.z and c.z + c.h <= tut.z
    n = len(carved)
    for i in range(n):
        a = carved[i]
        for j in range(i + 1, n):
            b = carved[j]
            overlap = (
                max(a.x, b.x) < min(a.x + a.w, b.x + b.w)
                and max(a.y, b.y) < min(a.y + a.l, b.y + b.l)
                and max(a.z, b.z) < min(a.z + a.h, b.z + b.h)
            )
            assert not overlap, f"boxes {i} and {j} overlap"


# ---------------------------------------------------------------------------
# lower bound

def test_lower_bound_zero_demand():
    lb = solve_lower_bound(DemandPoint(0, 0), DEFAULT_CATALOG)
    assert lb.counts == (0,) * 6
    assert lb.objective == 0.0


def test_lower_bound_validation_row_59():
    lb = solve_lower_bound(DemandPoint(1, 949), DEFAULT_CATALOG)
    assert lb.counts == (1, 0, 0, 0, 0, 0)
    assert lb.objective == 1348.0


def test_lower_bound_exact_volume_cover():
    # 30 m^3 can be covered with zero volume slack; the optimum must hit it
    lb = solve_lower_bound(DemandPoint(30, 5076), DEFAULT_CATALOG)
    vol = sum(c * t.volume_cm3 for c, t in zip(lb.counts, DEFAULT_CATALOG))
    assert vol == 30_000_000
    slow = brute_force_lower_bound(DemandPoint(30, 5076), DEFAULT_CATALOG, max_total=16)
    assert lb.counts == slow.counts


def test_lower_bound_respects_weight():
    # volume of one small pallet would do, but 4500 kg needs three big ones
    lb = solve_lower_bound(DemandPoint(1, 4500), DEFAULT_CATALOG)
    assert lb.counts == (0, 0, 0, 0, 3, 0)


def test_lower_bound_matches_brute_force():
    # any optimum here uses at most 7 TUs (a one-type cover already does),
    # so enumerating up to 12 is exhaustive for these demands
    rng = random.Random(20)
    for _ in range(40):
        d = DemandPoint(rng.uniform(0, 8), rng.uniform(0, 6000))
        fast = solve_lower_bound(d, DEFAULT_CATALOG)
        slow = brute_force_lower_bound(d, DEFAULT_CATALOG, max_total=12)
        assert fast.counts == slow.counts
        assert fast.objective == pytest.approx(slow.objective)


def test_lower_bound_covering_constraints_hold():
    rng = random.Random(21)
    for _ in range(30):
        d = DemandPoint(rng.uniform(0, 12), rng.uniform(0, 9000))
        lb = solve_lower_bound(d, DEFAULT_CATALOG)
        vol = sum(c * t.volume_cm3 for c, t in zip(lb.counts, DEFAULT_CATALOG))
        wgt = sum(c * t.q for c, t in zip(lb.counts, DEFAULT_CATALOG))
        assert vol >= round(d.volume_m3 * 1e6)
        assert wgt * 1000 >= round(d.weight_kg * 1000)


def reference_lower_bound(demand: DemandPoint, catalog: list[TuType], beta: float) -> LowerBound:
    """The covering search with the catalog-wide cost rates in its floor and
    every count of every type tried, in catalog order: ``solve_lower_bound``
    before it took the rates over the open types, one count of the last type
    and the cheapest types first. Like it, a node costs its integer totals,
    ``volume_cm3 + 1000 beta * n_tus``."""
    n = len(catalog)
    vols, caps, need_v, need_w = _scaled(demand, catalog)
    if need_v == 0 and need_w == 0:
        return LowerBound((0,) * n, 0.0)
    per_tu = beta * 1000.0
    rate_v = min((vols[i] + per_tu) / vols[i] for i in range(n))
    rate_w = min((vols[i] + per_tu) / caps[i] for i in range(n))
    best: list = [float("inf"), None]
    counts = [0] * n

    def dfs(i: int, tus: int, rem_v: int, rem_w: int):
        cur = need_v - rem_v + per_tu * tus
        if rem_v <= 0 and rem_w <= 0:
            if cur < best[0] or (cur == best[0] and best[1] is not None
                                 and tuple(counts) < best[1]):
                best[0], best[1] = cur, tuple(counts)
            return
        if i == n:
            return
        floor = max(rate_v * rem_v if rem_v > 0 else 0.0, rate_w * rem_w if rem_w > 0 else 0.0)
        if cur + floor > best[0]:
            return
        hi = max(-(-rem_v // vols[i]) if rem_v > 0 else 0, -(-rem_w // caps[i]) if rem_w > 0 else 0)
        for c in range(hi, -1, -1):
            counts[i] = c
            dfs(i + 1, tus + c, rem_v - c * vols[i], rem_w - c * caps[i])
        counts[i] = 0

    dfs(0, 0, need_v, need_w)
    return LowerBound.of(best[1], catalog, beta)


@pytest.mark.parametrize("beta", [0.0, 37.5, 100.0, 200.0])
def test_lower_bound_equals_the_reference_search_on_the_builtins(beta):
    for volume, weight in BUILTIN_DEMANDS:
        d = DemandPoint(volume, weight)
        assert solve_lower_bound(d, DEFAULT_CATALOG, beta) == reference_lower_bound(
            d, DEFAULT_CATALOG, beta)


def test_lower_bound_equals_the_reference_search_on_weight_bound_demands():
    """Demands whose weight needs more TUs than their volume, so the weight
    rate sets the floor, under fractional and whole betas."""
    rng = random.Random(22)
    for _ in range(300):
        d = DemandPoint(rng.uniform(0, 12), rng.uniform(2000, 17000))
        beta = rng.choice([0.0, 37.5, 100.0, rng.uniform(0, 300)])
        assert solve_lower_bound(d, DEFAULT_CATALOG, beta) == reference_lower_bound(
            d, DEFAULT_CATALOG, beta)


def test_lower_bound_equals_the_reference_search_on_shuffled_catalogs():
    """The search visits the types cheapest per cm^3 first; in a shuffled
    catalog that order differs from catalog order, and the count vector and
    its tie-break must still follow catalog order."""
    rng = random.Random(23)
    for _ in range(60):
        catalog = rng.sample(DEFAULT_CATALOG, len(DEFAULT_CATALOG))
        d = DemandPoint(*rng.choice(BUILTIN_DEMANDS))
        beta = rng.choice([37.5, 100.0, 200.0, rng.uniform(0, 300)])
        assert solve_lower_bound(d, catalog, beta) == reference_lower_bound(d, catalog, beta)


def test_lower_bound_equals_brute_force_on_small_catalogs():
    """Small random catalogs, most with a duplicated type, so two types tie
    exactly on cost per cm^3 and every covering has an equal-cost twin;
    fractional betas; half the demands are exact covers. Float rates and
    prices must never prune a tie before the tie-break sees it."""
    rng = random.Random(24)
    for _ in range(300):
        catalog = [TuType(f"T{i}", rng.randint(3, 5), rng.randint(3, 5), rng.randint(3, 5),
                          rng.randint(1, 6)) for i in range(rng.randint(1, 3))]
        if rng.random() < 0.6:
            catalog.insert(rng.randint(0, len(catalog)), rng.choice(catalog))
        if rng.random() < 0.5:
            cover = [rng.randint(0, 3) for _ in catalog]
            volume = sum(c * t.volume_cm3 for c, t in zip(cover, catalog))
            weight = rng.randint(0, sum(c * t.q for c, t in zip(cover, catalog)))
        else:
            volume, weight = rng.randint(0, 250), rng.randint(0, 20)
        if volume == weight == 0:
            continue
        d = DemandPoint(volume / 1e6, weight)
        beta = rng.choice([0.0, 0.004, 0.0125, rng.uniform(0, 0.1)])
        assert solve_lower_bound(d, catalog, beta) == brute_force_lower_bound(d, catalog, beta)


def test_lower_bound_search_work_is_pinned():
    """Recursive calls of the covering search over the 100 built-in demands
    at beta = 100, counted through the profiler hook on the search's code
    object: the cheapest-first visit order makes 25,409 of them (catalog
    order made 530,980), so an order or prune regression fails here."""
    dfs, = (c for c in solve_lower_bound.__code__.co_consts
            if getattr(c, "co_name", None) == "dfs")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is dfs:
            calls += 1

    sys.setprofile(count)
    try:
        for volume, weight in BUILTIN_DEMANDS:
            solve_lower_bound(DemandPoint(volume, weight), DEFAULT_CATALOG, 100.0)
    finally:
        sys.setprofile(None)
    assert calls == 25_409


# ---------------------------------------------------------------------------
# partition schemes

def test_scheme1_degenerate_bounds_single_box():
    tut = DEFAULT_CATALOG[0]
    bounds = PartitionBounds(120, 120, 80, 80, 130, 130)
    carved = partition_scheme1(tut, bounds, random.Random(1))
    assert len(carved) == 1
    assert (carved[0].w, carved[0].l, carved[0].h) == (120, 80, 130)


def test_scheme1_tiles_exactly():
    tut = DEFAULT_CATALOG[0]
    for seed in range(30):
        carved = partition_scheme1(tut, PartitionBounds(), random.Random(seed))
        assert_exact_tiling(tut, carved)
        assert sum(c.w * c.l * c.h for c in carved) == 1_248_000


def test_scheme2_tiles_exactly():
    for seed in range(30):
        for tut in DEFAULT_CATALOG[:2] + DEFAULT_CATALOG[-1:]:
            carved = partition_scheme2(tut, PartitionBounds(), random.Random(seed))
            assert_exact_tiling(tut, carved)


def test_scheme2_infeasible_bounds():
    with pytest.raises(InfeasibleBoundsError):
        partition_scheme2(DEFAULT_CATALOG[0], PartitionBounds(x_lb=200, x_ub=200), random.Random(0))
    with pytest.raises(InfeasibleBoundsError):
        partition_scheme1(DEFAULT_CATALOG[0], PartitionBounds(z_lb=131, z_ub=131), random.Random(0))


def test_scheme2_degenerate_bounds_collapse():
    # every draw forced to the full remaining extent: the seed box swallows
    # the whole TU in one cut
    tut = DEFAULT_CATALOG[0]
    bounds = PartitionBounds(120, 120, 80, 80, 130, 130)
    carved = partition_scheme2(tut, bounds, random.Random(3))
    assert len(carved) == 1
    assert (carved[0].w, carved[0].l, carved[0].h) == (120, 80, 130)


@dataclass(frozen=True)
class _Cell:
    """A free axis-aligned sub-cuboid, anchored at its west-south-down corner."""

    x: int
    y: int
    z: int
    ex: int  # extents
    ey: int
    ez: int


def reference_partition_scheme2(tut: TuType, bounds: PartitionBounds,
                                rng: random.Random) -> list[CarvedBox]:
    """Scheme-2 carving with each face's tunnel and leftover cells spelled
    out: ``partition_scheme2`` before one table-driven step replaced the
    three branches."""
    bounds.check(tut)
    out: list[CarvedBox] = []
    cells = [_Cell(0, 0, 0, tut.x, tut.y, tut.z)]
    while cells:
        i = rng.randrange(len(cells))
        cell = cells.pop(i)
        xb = _cut(rng, bounds.x_lb, bounds.x_ub, cell.ex)
        yb = _cut(rng, bounds.y_lb, bounds.y_ub, cell.ey)
        zb = _cut(rng, bounds.z_lb, bounds.z_ub, cell.ez)
        out.append(CarvedBox(xb, yb, zb, cell.x, cell.y, cell.z))
        face = rng.randint(1, 3)
        if face == 1:  # tunnel up: fill the seed column to the cell ceiling
            off = zb
            while off < cell.ez:
                seg = _cut(rng, bounds.z_lb, cell.ez, cell.ez - off)
                out.append(CarvedBox(xb, yb, seg, cell.x, cell.y, cell.z + off))
                off += seg
            north = _Cell(cell.x, cell.y + yb, cell.z, xb, cell.ey - yb, cell.ez)
            east = _Cell(cell.x + xb, cell.y, cell.z, cell.ex - xb, cell.ey, cell.ez)
            rest = (north, east)
        elif face == 2:  # tunnel east
            off = xb
            while off < cell.ex:
                seg = _cut(rng, bounds.x_lb, cell.ex, cell.ex - off)
                out.append(CarvedBox(seg, yb, zb, cell.x + off, cell.y, cell.z))
                off += seg
            north = _Cell(cell.x, cell.y + yb, cell.z, cell.ex, cell.ey - yb, cell.ez)
            top = _Cell(cell.x, cell.y, cell.z + zb, cell.ex, yb, cell.ez - zb)
            rest = (north, top)
        else:  # tunnel north
            off = yb
            while off < cell.ey:
                seg = _cut(rng, bounds.y_lb, cell.ey, cell.ey - off)
                out.append(CarvedBox(xb, seg, zb, cell.x, cell.y + off, cell.z))
                off += seg
            east = _Cell(cell.x + xb, cell.y, cell.z, cell.ex - xb, cell.ey, cell.ez)
            top = _Cell(cell.x, cell.y, cell.z + zb, xb, cell.ey, cell.ez - zb)
            rest = (east, top)
        for c in rest:
            if c.ex > 0 and c.ey > 0 and c.ez > 0:
                cells.append(c)
    return out


# per axis: (7, 15) cuts many thin slices with absorbed remainders, (10, 130)
# lets a seed box span the whole axis, and (60, 60) absorbs a remainder on
# every type; each axis gets each once, so every face's tunnel and cells see
# all three
@pytest.mark.parametrize("bounds", [
    PartitionBounds(7, 15, 60, 60, 10, 130),
    PartitionBounds(10, 130, 7, 15, 60, 60),
    PartitionBounds(60, 60, 10, 130, 7, 15),
    PartitionBounds(10, 130, 10, 130, 10, 130),
    PartitionBounds(60, 60, 60, 60, 60, 60),
    PartitionBounds(25, 70, 25, 70, 25, 70),
])
def test_scheme2_carves_like_the_reference(bounds):
    for tut in DEFAULT_CATALOG:
        for seed in range(50):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert partition_scheme2(tut, bounds, rng) == reference_partition_scheme2(
                tut, bounds, ref_rng)
            assert rng.getstate() == ref_rng.getstate()


def test_scheme3_published_partition():
    tut = DEFAULT_CATALOG[1]  # 120x80x160
    carved = partition_scheme3(tut)
    assert len(carved) == 32
    dims = {tuple(sorted((c.w, c.l, c.h))) for c in carved}
    assert dims == {(30, 40, 40)}
    assert_exact_tiling(tut, carved)


def test_scheme3_all_types_tile():
    for tut in DEFAULT_CATALOG:
        carved = partition_scheme3(tut)
        assert_exact_tiling(tut, carved)
        w, l, h = PERFECT_PARTITIONS[tut.id]
        assert len(carved) * w * l * h == tut.volume_cm3


def test_scheme3_unknown_type():
    from tupack.geometry import TuType

    with pytest.raises(UnknownTypeError):
        partition_scheme3(TuType("999x1x1", 999, 1, 1, 10))


def test_scheme_determinism():
    tut = DEFAULT_CATALOG[3]
    a = partition_scheme2(tut, PartitionBounds(), random.Random(77))
    b = partition_scheme2(tut, PartitionBounds(), random.Random(77))
    assert a == b


# ---------------------------------------------------------------------------
# instance generation

def test_generate_empty_instance():
    inst, ref = generate_instance(DemandPoint(0, 0), scheme=3, name="empty")
    assert inst.boxes == []
    assert ref.tus == []


def test_generate_row59_scheme3():
    inst, ref = generate_instance(DemandPoint(1, 949), scheme=3, name="i59")
    assert inst.lower_bound.counts == (1, 0, 0, 0, 0, 0)
    assert len(ref.tus) == 1
    assert ref.tus[0].tu_type.id == "120x80x130"
    assert len(inst.boxes) == 12
    assert fill_rate(ref.tus[0]) == 100.0


def test_generate_reference_is_feasible_optimum():
    for scheme in (1, 2, 3):
        inst, ref = generate_instance(DemandPoint(3, 1200), scheme, name=f"s{scheme}", seed=5)
        for tu in ref.tus:
            assert validate_tu(tu) == []
        assert sorted(ref.box_ids()) == sorted(b.id for b in inst.boxes)
        counts = [0] * len(inst.catalog)
        for tu in ref.tus:
            counts[[t.id for t in inst.catalog].index(tu.tu_type.id)] += 1
        assert tuple(counts) == inst.lower_bound.counts


def test_validate_solution_names_each_problem():
    inst, ref = generate_instance(DemandPoint(2.5, 900), scheme=2, name="v", seed=7)
    recorded = fitness(ref, inst.objective)
    assert validate_solution(inst, ref) == []
    assert validate_solution(inst, ref, recorded) == []
    assert validate_solution(inst, ref, float("nan")) == []
    assert "does not match recomputation" in validate_solution(inst, ref, recorded + 1)[0]

    bad = ref.clone()
    missing = bad.tus[0].remove_at(0).box.id
    twice = bad.tus[1].placements[0]
    stranger = BoxSpec("zz", 10, 10, 10)
    bad.tus[0].add(Placement(twice.box, "wlh", twice.w, twice.l, twice.h, 0, 0, 200))
    bad.tus[0].add(Placement(stranger, "wlh", 10, 10, 10, 0, 0, 0))
    bad.tus.append(LoadedTu(inst.catalog[0]))
    problems = validate_solution(inst, bad, recorded)
    assert f"box {missing} not placed" in problems
    assert f"box {twice.box.id} placed more than once" in problems
    assert "box zz is not in the instance" in problems
    assert f"TU {len(bad.tus) - 1}: empty" in problems
    assert any(p.startswith("TU 0: bounds:") for p in problems)
    # the recorded fitness is not checked while a TU is empty
    assert not any("recomputation" in p for p in problems)


def test_validate_solution_checks_the_fitness_of_a_solution_without_tus():
    inst = Instance("e", [])
    assert validate_solution(inst, Solution([]), 0.0) == []
    assert validate_solution(inst, Solution([]), 5.0) == [
        "recorded fitness 5.0 does not match recomputation 0.0"]


def test_generate_scheme3_reference_cg_is_perfect():
    inst, ref = generate_instance(DemandPoint(2, 500), scheme=3, name="cg", seed=9)
    for tu in ref.tus:
        rep = center_of_gravity(tu)
        assert rep.mxy == 0.0
        assert rep.mz == 0.5


def test_generated_instance_dominates_its_bound():
    # re-solving a generated instance can never beat the covering objective
    # plus one minimal centering term per TU
    from tupack.geometry import fitness
    from tupack.search import SearchParams, solve

    cases = [(1.0, 2400, 1), (2.5, 300, 2), (1.872, 1500, 3), (1.0, 949, 3)]
    for i, (v, w, scheme) in enumerate(cases):
        inst, _ = generate_instance(DemandPoint(v, w), scheme, name=f"dom{i}", seed=i)
        sol = solve(inst, search=SearchParams(seed=i, omega=95))
        floor = inst.lower_bound.objective + inst.objective.alpha * inst.objective.theta
        assert fitness(sol, inst.objective) >= floor - 1e-6


def test_solve_rediscovers_single_small_pallet():
    # the covering for (1 m^3, 949 kg) is one small pallet; the solver must
    # reach zero volume gap on the perfectly partitioned instance
    from tupack.search import SearchParams, solve

    inst, _ = generate_instance(DemandPoint(1, 949), scheme=3, name="one", seed=0)
    sol = solve(inst, search=SearchParams(seed=1, omega=95))
    assert sol.type_counts() == {"120x80x130": 1}
    assert sol.total_volume_liters() == inst.lb_volume_liters()


def test_generate_reproducible():
    a = generate_instance(DemandPoint(2, 1500), scheme=2, name="x", seed=123)
    b = generate_instance(DemandPoint(2, 1500), scheme=2, name="x", seed=123)
    assert a[0].boxes == b[0].boxes
    assert [
        (p.box.id, p.x, p.y, p.z) for tu in a[1].tus for p in tu.placements
    ] == [(p.box.id, p.x, p.y, p.z) for tu in b[1].tus for p in tu.placements]


def test_generate_same_density_weights():
    inst, _ = generate_instance(DemandPoint(2, 800), scheme=1, name="w", seed=3)
    for b in inst.boxes:
        assert b.weight == int(107.0 * b.volume / 1e6 + 0.5)


def test_generate_refuses_an_overweight_carved_tu():
    """A density that ignores capacities can carve a TU heavier than its
    type allows; the generator refuses rather than write a reference its
    own validator rejects."""
    with pytest.raises(ValueError, match="120x80x160 weighs 1088 kg, above its capacity 1000 kg"):
        generate_instance(DemandPoint(3, 500), scheme=3, density=700)


def test_builtin_demand_table_size():
    assert len(BUILTIN_DEMANDS) == 100


def _demand1_tus():
    # first built-in demand point; its covering here totals 17.016 m^3,
    # the same volume as the published reference covering for that demand
    lb = solve_lower_bound(DemandPoint(*BUILTIN_DEMANDS[0]), DEFAULT_CATALOG)
    return [t for t, c in zip(DEFAULT_CATALOG, lb.counts) for _ in range(c)]


def _carve_stats(scheme_fn, bounds, runs=100):
    tus = _demand1_tus()
    counts, uniques = [], []
    for seed in range(runs):
        rng = random.Random(seed)
        boxes = []
        for t in tus:
            boxes.extend(scheme_fn(t, bounds, rng))
        counts.append(len(boxes))
        uniques.append(len({tuple(sorted((c.w, c.l, c.h))) for c in boxes}))
    return sum(counts) / runs, sum(uniques) / runs


def test_scheme1_statistics_in_published_range():
    from tupack.generator import SCHEME1_BOUNDS

    # reference for this demand: 223 boxes, 223 unique dimensions; the
    # 100-run averages must fall within 25% of both
    boxes, unique = _carve_stats(partition_scheme1, SCHEME1_BOUNDS)
    assert 223 * 0.75 <= boxes <= 223 * 1.25
    assert 223 * 0.75 <= unique <= 223 * 1.25


def test_scheme2_statistics_in_published_range():
    from tupack.generator import SCHEME2_BOUNDS

    # reference for this demand: 771 boxes, 744 unique dimensions
    boxes, unique = _carve_stats(partition_scheme2, SCHEME2_BOUNDS)
    assert 771 * 0.75 <= boxes <= 771 * 1.25
    assert 744 * 0.75 <= unique <= 744 * 1.25

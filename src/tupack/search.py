"""Iterated local search over consolidations.

The driver builds a first solution with the constructive packer on the
smallest TU type, then alternates a first-order search (box relocations,
swaps, and destroy-repack within the current type) with a second-order
search that destroys badly used TUs and rebuilds them with other catalog
types, scanned circularly by a persistent pointer. Only strictly improving
candidates are ever accepted, so the incumbent's objective is non-increasing
along the whole trajectory and termination is guaranteed.

All randomness flows from one seeded ``random.Random`` (Mersenne Twister, a
fixed published algorithm) in a deterministic call order, so a run is fully
reproducible from (instance, parameters, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .generator import Instance
from .geometry import (
    BoxSpec,
    BoxUnpackableError,
    LoadedTu,
    ObjectiveParams,
    Solution,
    fill_rate,
    fitness,
)
from .packer import (
    DEFAULT_COST,
    CostParams,
    SortParams,
    best_spot,
    fits_empty,
    pack_3dbp,
    place_box,
    remove_box,
)


@dataclass(frozen=True)
class SearchParams:
    """Knobs of the local searches.

    ``omega`` is the fill-rate destruction threshold (percent) and ``gamma``
    the lateral-slack threshold (cm) of the second-order search;
    ``micro_repeats`` is how many times each move step retries.
    """

    omega: float = 95.0
    gamma: int = 100
    micro_repeats: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.omega <= 100:
            raise ValueError("omega is a percentage")
        if self.gamma < 0 or self.micro_repeats < 1:
            raise ValueError("gamma >= 0 and micro_repeats >= 1 required")


class TypePointer:
    """Circular cursor over the catalog sorted by ascending volume."""

    def __init__(self, catalog):
        if not catalog:
            raise ValueError("catalog must not be empty")
        self.types = sorted(catalog, key=lambda t: (t.volume_cm3, t.id))
        self.index = 0

    def current(self):
        return self.types[self.index]

    def scan(self):
        """All other types in circular order starting after the cursor."""
        n = len(self.types)
        return [((self.index + k) % n, self.types[(self.index + k) % n]) for k in range(1, n)]


@dataclass
class TraceEvent:
    """One accepted step of the search, for monotonicity and report checks."""

    phase: str  # init | ls1 | ls2
    fitness: float
    tu_count: int
    type_counts: dict[str, int]


@dataclass
class SolveStats:
    """Counters and the accepted-step trajectory of one solve run."""

    initial_fitness: float = 0.0
    final_fitness: float = 0.0
    ls1_improvements: int = 0
    ls2_improvements: int = 0
    ls1_gain: float = 0.0
    ls2_gain: float = 0.0
    initial_tu_count: int = 0
    final_tu_count: int = 0
    trace: list[TraceEvent] = field(default_factory=list)


def initialize(
    instance: Instance,
    pointer: TypePointer,
    cost: CostParams,
    sort: SortParams,
) -> Solution:
    """First feasible solution: pack everything with the smallest type.

    Boxes that cannot fit the smallest type at all are packed with the next
    larger types in volume order; a box fitting no catalog type raises.
    """
    remaining = list(instance.boxes)
    tus: list[LoadedTu] = []
    for tut in pointer.types:
        if not remaining:
            break
        result = pack_3dbp(tut, remaining, cost, sort)
        tus.extend(result.tus)
        remaining = result.unplaced
    if remaining:
        raise BoxUnpackableError(remaining[0].id)
    return Solution(tus)


def _top_layer(tu: LoadedTu) -> list[int]:
    """Indices of placements with nothing above their top face, ranked by
    top height descending (placement order breaks ties).

    A box is covered when another box's base strictly overlaps its own and
    that box reaches higher.
    """
    lo, hi, _ = tu.geometry()
    top = hi[2]
    base = (lo[:2, :, None] < hi[:2, None]) & (lo[:2, None] < hi[:2, :, None])
    covered = (base[0] & base[1] & (top > top[:, None])).any(axis=1)
    idx = np.flatnonzero(~covered)
    return idx[np.lexsort((idx, -top[idx]))].tolist()


def _relocate(
    sol: Solution, origin: int, dest: int, pick: int, cost: CostParams
) -> Solution | None:
    """Move one top-layer box between TUs; None when it cannot land."""
    cand = sol.clone()
    src, dst = cand.tus[origin], cand.tus[dest]
    moved = remove_box(src, pick)
    spot = best_spot(dst, moved.box, cost)
    if spot is None:
        return None
    _, ep_idx, ob = spot
    place_box(dst, moved.box, ob, dst.eps[ep_idx])
    if not src.placements:
        cand.tus.pop(origin)
    return cand


def try_swap(
    sol: Solution, tu_a: int, pick_a: int, tu_b: int, pick_b: int,
    cost: CostParams = DEFAULT_COST,
) -> Solution | None:
    """Exchange two boxes between TUs at their cheapest positions, if feasible."""
    cand = sol.clone()
    a, b = cand.tus[tu_a], cand.tus[tu_b]
    box_a = remove_box(a, pick_a)
    box_b = remove_box(b, pick_b)
    spot = best_spot(b, box_a.box, cost)
    if spot is None:
        return None
    place_box(b, box_a.box, spot[2], b.eps[spot[1]])
    spot = best_spot(a, box_b.box, cost)
    if spot is None:
        return None
    place_box(a, box_b.box, spot[2], a.eps[spot[1]])
    return cand


def _strategy_pairs(sol: Solution, strategy: int, rng: random.Random) -> tuple[int, int] | None:
    """Origin/destination TU indices for one relocation strategy."""
    n = len(sol.tus)
    weights = [tu.total_weight for tu in sol.tus]
    heights = [tu.height() for tu in sol.tus]

    def rand_other(origin):
        j = rng.randrange(n - 1)
        return j + 1 if j >= origin else j

    if strategy == 0:
        origin = max(range(n), key=lambda i: (weights[i], -i))
        dest = min(range(n), key=lambda i: (weights[i], i))
    elif strategy == 1:
        origin = max(range(n), key=lambda i: (weights[i], -i))
        dest = rand_other(origin)
    elif strategy == 2:
        origin = max(range(n), key=lambda i: (heights[i], -i))
        dest = min(range(n), key=lambda i: (heights[i], i))
    elif strategy == 3:
        origin = max(range(n), key=lambda i: (heights[i], -i))
        dest = rand_other(origin)
    else:
        origin = rng.randrange(n)
        dest = rand_other(origin)
    if origin == dest:
        return None
    return origin, dest


def move_n1(
    sol: Solution,
    rng: random.Random,
    objective: ObjectiveParams,
    cost: CostParams,
    params: SearchParams,
    incumbent_fitness: float,
) -> Solution | None:
    """Relocation move: take a box from the top of one TU onto another.

    Five origin/destination strategies run in a fixed order (heaviest to
    lightest, heaviest to random, tallest to shortest, tallest to random,
    random to random), each ``micro_repeats`` times; the box is drawn among
    the three highest-topped boxes of the origin and lands at the cheapest
    feasible position of the destination. First strictly improving candidate
    wins; None when the schedule finds none.
    """
    if len(sol.tus) < 2:
        return None
    for strategy in range(5):
        for _ in range(params.micro_repeats):
            pair = _strategy_pairs(sol, strategy, rng)
            if pair is None:
                continue
            origin, dest = pair
            pool = _top_layer(sol.tus[origin])[:3]
            if not pool:
                continue
            pick = pool[rng.randrange(len(pool))]
            cand = _relocate(sol, origin, dest, pick, cost)
            if cand is not None and fitness(cand, objective) < incumbent_fitness:
                return cand
    return None


def move_n2(
    sol: Solution,
    rng: random.Random,
    objective: ObjectiveParams,
    cost: CostParams,
    params: SearchParams,
    incumbent_fitness: float,
) -> Solution | None:
    """Swap move: exchange one top-layer box between two random TUs."""
    if len(sol.tus) < 2:
        return None
    n = len(sol.tus)
    for _ in range(params.micro_repeats):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        top_i = _top_layer(sol.tus[i])
        top_j = _top_layer(sol.tus[j])
        if not top_i or not top_j:
            continue
        pick_i = top_i[rng.randrange(len(top_i))]
        pick_j = top_j[rng.randrange(len(top_j))]
        cand = try_swap(sol, i, pick_i, j, pick_j, cost)
        if cand is not None and fitness(cand, objective) < incumbent_fitness:
            return cand
    return None


def _rebuild(
    survivors: list[LoadedTu],
    released: list[BoxSpec],
    tut,
    cost: CostParams,
    sort: SortParams,
) -> Solution | None:
    """Survivors plus a fresh pack of the released boxes; None when some
    released box cannot fit the rebuild type."""
    if any(not fits_empty(b, tut) for b in released):
        return None
    result = pack_3dbp(tut, released, cost, sort)
    if result.unplaced:
        return None
    return Solution([tu.clone() for tu in survivors] + result.tus)


def move_n3(
    sol: Solution,
    rng: random.Random,
    pointer: TypePointer,
    objective: ObjectiveParams,
    cost: CostParams,
    sort: SortParams,
    params: SearchParams,
    incumbent_fitness: float,
) -> Solution | None:
    """Destroy-repack move: rebuild a random subset of TUs with the pointer's
    current type."""
    if len(sol.tus) < 2:
        return None
    for _ in range(params.micro_repeats):
        n = rng.randint(2, len(sol.tus))
        victims = sorted(rng.sample(range(len(sol.tus)), n))
        vset = set(victims)
        survivors = [tu for i, tu in enumerate(sol.tus) if i not in vset]
        released = [p.box for i in victims for p in sol.tus[i].placements]
        cand = _rebuild(survivors, released, pointer.current(), cost, sort)
        if cand is not None and fitness(cand, objective) < incumbent_fitness:
            return cand
    return None


def ls1(
    sol: Solution,
    params: SearchParams,
    pointer: TypePointer,
    rng: random.Random,
    objective: ObjectiveParams,
    cost: CostParams,
    sort: SortParams,
    stats: SolveStats | None = None,
) -> Solution:
    """First-order search: relocations, swaps, destroy-repacks.

    The three moves run in order; any acceptance restarts the sequence from
    the first move. Stops when one full pass yields no strict improvement.
    """
    incumbent = sol
    value = fitness(sol, objective)
    improved = True
    while improved:
        improved = False
        for move in ("n1", "n2", "n3"):
            if move == "n1":
                cand = move_n1(incumbent, rng, objective, cost, params, value)
            elif move == "n2":
                cand = move_n2(incumbent, rng, objective, cost, params, value)
            else:
                cand = move_n3(incumbent, rng, pointer, objective, cost, sort, params, value)
            if cand is not None:
                new_value = fitness(cand, objective)
                if stats is not None:
                    stats.ls1_improvements += 1
                    stats.ls1_gain += value - new_value
                    stats.trace.append(
                        TraceEvent("ls1", new_value, len(cand.tus), cand.type_counts())
                    )
                incumbent, value = cand, new_value
                improved = True
                break
    return incumbent


def ls2(
    sol: Solution,
    params: SearchParams,
    pointer: TypePointer,
    rng: random.Random,
    objective: ObjectiveParams,
    cost: CostParams,
    sort: SortParams,
    stats: SolveStats | None = None,
) -> tuple[Solution, bool]:
    """Second-order search: destroy badly used TUs, rebuild with other types.

    A TU is destroyed when its fill rate is below omega or its lateral slack
    exceeds gamma. The released boxes are rebuilt with each other catalog
    type in circular order after the pointer; the first strictly improving
    rebuild is adopted and leaves the pointer on its type. A full scan with
    no improvement returns the input unchanged.
    """
    value = fitness(sol, objective)
    victims = [
        i
        for i, tu in enumerate(sol.tus)
        if fill_rate(tu) < params.omega or tu.lateral_slack() > params.gamma
    ]
    if not victims:
        return sol, False
    vset = set(victims)
    survivors = [tu for i, tu in enumerate(sol.tus) if i not in vset]
    released = [p.box for i in victims for p in sol.tus[i].placements]
    for idx, tut in pointer.scan():
        cand = _rebuild(survivors, released, tut, cost, sort)
        if cand is None:
            continue
        new_value = fitness(cand, objective)
        if new_value < value:
            pointer.index = idx
            if stats is not None:
                stats.ls2_improvements += 1
                stats.ls2_gain += value - new_value
                stats.trace.append(
                    TraceEvent("ls2", new_value, len(cand.tus), cand.type_counts())
                )
            return cand, True
    return sol, False


def solve(
    instance: Instance,
    objective: ObjectiveParams | None = None,
    cost: CostParams | None = None,
    sort: SortParams | None = None,
    search: SearchParams | None = None,
    stats: SolveStats | None = None,
) -> Solution:
    """Full run: construct, then alternate the two searches until the
    second-order scan exhausts the catalog without improvement."""
    objective = objective or instance.objective
    cost = cost or CostParams()
    sort = sort or SortParams()
    search = search or SearchParams()
    rng = random.Random(search.seed)
    pointer = TypePointer(instance.catalog)
    sol = initialize(instance, pointer, cost, sort)
    if stats is not None:
        stats.initial_fitness = fitness(sol, objective) if sol.tus else 0.0
        stats.initial_tu_count = len(sol.tus)
        stats.trace.append(
            TraceEvent("init", stats.initial_fitness, len(sol.tus), sol.type_counts())
        )
    if not sol.tus:
        if stats is not None:
            stats.final_fitness = 0.0
        return sol
    while True:
        sol = ls1(sol, search, pointer, rng, objective, cost, sort, stats)
        sol, improved = ls2(sol, search, pointer, rng, objective, cost, sort, stats)
        if not improved:
            break
    if stats is not None:
        stats.final_fitness = fitness(sol, objective)
        stats.final_tu_count = len(sol.tus)
    return sol

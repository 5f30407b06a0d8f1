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

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .generator import Instance
from .geometry import (
    BoxSpec,
    BoxUnpackableError,
    ObjectiveParams,
    Solution,
    fill_rate,
    fitness,
    tu_objective_term,
)
from .packer import (
    CostParams,
    PackedTu,
    SortParams,
    fits_empty,
    pack_3dbp,
    place_best,
)


# The most retries per move step accepted. ``move_n1`` draws five candidates
# per retry, so a count far above this only stalls a solve.
MAX_MICRO_REPEATS = 1000


@dataclass(frozen=True)
class SearchParams:
    """Knobs of the local searches.

    ``omega`` is the fill-rate destruction threshold (percent) and ``gamma``
    the lateral-slack threshold (cm) of the second-order search;
    ``micro_repeats`` is how many times each move step retries, from 1 to
    ``MAX_MICRO_REPEATS``.
    """

    omega: float = 95.0
    gamma: int = 100
    micro_repeats: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.omega <= 100:
            raise ValueError("omega is a percentage")
        if self.gamma < 0 or not 1 <= self.micro_repeats <= MAX_MICRO_REPEATS:
            raise ValueError(f"gamma >= 0 and 1 <= micro_repeats <= {MAX_MICRO_REPEATS} required")


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
    """The accepted-step trajectory of one solve run; every counter of the
    run is read from it."""

    trace: list[TraceEvent] = field(default_factory=list)

    def record(self, phase: str, value: float, sol: Solution):
        """Append an accepted step: the new incumbent and its fitness."""
        self.trace.append(TraceEvent(phase, value, len(sol.tus), sol.type_counts()))

    @property
    def initial_fitness(self) -> float:
        return self.trace[0].fitness

    @property
    def final_fitness(self) -> float:
        return self.trace[-1].fitness

    def improvements(self, phase: str) -> int:
        """Accepted steps of one phase (``ls1`` or ``ls2``)."""
        return sum(ev.phase == phase for ev in self.trace)

    def gain(self, phase: str) -> float:
        """Fitness decrease summed, in step order, over the accepted steps of
        one phase."""
        total = 0.0
        for prev, ev in zip(self.trace, self.trace[1:]):
            if ev.phase == phase:
                total += prev.fitness - ev.fitness
        return total


@dataclass(frozen=True)
class Run:
    """What every step of one solve shares: its constants, its one random
    stream, the type pointer, the trace and the rebuild memo. A record, not a
    class with move methods: the moves stay module functions called by name,
    so a tracer can rebind them.

    ``packs`` maps a rebuild's (type, released boxes) to the TUs of its full
    pack, or to the cap at which its pack was cut (see ``_rebuild``)."""

    objective: ObjectiveParams
    cost: CostParams
    sort: SortParams
    search: SearchParams
    rng: random.Random
    pointer: TypePointer
    stats: SolveStats
    packs: dict = field(default_factory=dict)


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
    tus: list[PackedTu] = []
    for tut in pointer.types:
        if not remaining:
            break
        result = pack_3dbp(tut, remaining, cost, sort)
        tus.extend(result.tus)
        remaining = result.unplaced
    if remaining:
        raise BoxUnpackableError(remaining[0].id)
    return Solution(tus)


def _top_layer(tu: PackedTu) -> list[int]:
    """Indices of placements with nothing above their top face, ranked by
    top height descending (placement order breaks ties).

    A box is covered when another box's base strictly overlaps its own and
    that box reaches higher.
    """
    lo, hi, _ = tu.corners
    top = hi[2]
    base = (lo[:2, :, None] < hi[:2, None]) & (lo[:2, None] < hi[:2, :, None])
    covered = (base[0] & base[1] & (top > top[:, None])).any(axis=1)
    idx = np.flatnonzero(~covered)
    return idx[np.lexsort((idx, -top[idx]))].tolist()


def _relocate(
    sol: Solution, origin: int, dest: int, pick: int, cost: CostParams
) -> Solution | None:
    """Move one top-layer box between TUs; None when it cannot land.

    The box lands before it leaves the origin: the two are different TUs,
    so the order changes nothing, and a box that cannot land is never taken
    out. The origin's EPs go stale and are derived only when read."""
    cand = sol.clone()
    src, dst = cand.tus[origin], cand.tus[dest]
    if place_best(dst, src.placements[pick].box, cost) is None:
        return None
    src.remove_at(pick)
    if not src.placements:
        cand.tus.pop(origin)
    return cand


def try_swap(
    sol: Solution, tu_a: int, pick_a: int, tu_b: int, pick_b: int, cost: CostParams
) -> Solution | None:
    """Exchange two boxes between TUs at their cheapest positions, if feasible."""
    cand = sol.clone()
    a, b = cand.tus[tu_a], cand.tus[tu_b]
    box_a = a.remove_at(pick_a).box
    box_b = b.remove_at(pick_b).box
    if place_best(b, box_a, cost) is None or place_best(a, box_b, cost) is None:
        return None
    return cand


def _other(n: int, i: int, rng: random.Random) -> int:
    """A uniformly drawn TU index in ``range(n)`` other than ``i``."""
    j = rng.randrange(n - 1)
    return j + 1 if j >= i else j


def _strategy_pairs(sol: Solution, strategy: int, rng: random.Random) -> tuple[int, int] | None:
    """Origin/destination TU indices for one relocation strategy: 0 and 1
    start at the heaviest TU, 2 and 3 at the tallest, 4 at a random one; 0 and
    2 end at the lightest or shortest TU, the others at a random other one."""
    n = len(sol.tus)
    if strategy == 4:
        origin = rng.randrange(n)
        return origin, _other(n, origin, rng)
    key = [tu.total_weight if strategy < 2 else tu.height() for tu in sol.tus]
    origin = max(range(n), key=lambda i: (key[i], -i))
    if strategy % 2:
        return origin, _other(n, origin, rng)
    dest = min(range(n), key=lambda i: (key[i], i))
    return None if origin == dest else (origin, dest)


def move_n1(sol: Solution, run: Run, incumbent_fitness: float) -> Solution | None:
    """Relocation move: take a box from the top of one TU onto another.

    Five origin/destination strategies run in a fixed order (heaviest to
    lightest, heaviest to random, tallest to shortest, tallest to random,
    random to random), each ``micro_repeats`` times; the box is drawn among
    the three highest-topped boxes of the origin and lands at the cheapest
    feasible position of the destination. First strictly improving candidate
    wins; None when the schedule finds none.

    ``_relocate`` is deterministic, so a drawn (origin, destination, box)
    already tried on this incumbent is skipped; the draws stay the same.
    """
    if len(sol.tus) < 2:
        return None
    tried = set()
    for strategy in range(5):
        for _ in range(run.search.micro_repeats):
            pair = _strategy_pairs(sol, strategy, run.rng)
            if pair is None:
                continue
            origin, dest = pair
            pool = _top_layer(sol.tus[origin])[:3]
            move = (origin, dest, pool[run.rng.randrange(len(pool))])
            if move in tried:
                continue
            tried.add(move)
            cand = _relocate(sol, *move, run.cost)
            if cand is not None and fitness(cand, run.objective) < incumbent_fitness:
                return cand
    return None


def move_n2(sol: Solution, run: Run, incumbent_fitness: float) -> Solution | None:
    """Swap move: exchange one top-layer box between two random TUs."""
    if len(sol.tus) < 2:
        return None
    n, rng = len(sol.tus), run.rng
    for _ in range(run.search.micro_repeats):
        i = rng.randrange(n)
        j = _other(n, i, rng)
        top_i = _top_layer(sol.tus[i])
        top_j = _top_layer(sol.tus[j])
        pick_i = top_i[rng.randrange(len(top_i))]
        pick_j = top_j[rng.randrange(len(top_j))]
        cand = try_swap(sol, i, pick_i, j, pick_j, run.cost)
        if cand is not None and fitness(cand, run.objective) < incumbent_fitness:
            return cand
    return None


# Relative slack on the incumbent in the rebuild budget, so that float
# rounding in the bound can never cut a rebuild the exact comparison accepts.
_BUDGET_MARGIN = 1e-9


def _destroy(
    sol: Solution, victims: list[int], objective: ObjectiveParams, incumbent_fitness: float
) -> tuple[list[PackedTu], list[BoxSpec], float]:
    """Split a solution at the victim TUs: the surviving TUs, the released
    boxes, and the budget of the rebuild, which is what its new TUs may cost
    in total for the candidate to still beat the incumbent."""
    vset = set(victims)
    survivors = [tu for i, tu in enumerate(sol.tus) if i not in vset]
    released = [p.box for i in victims for p in sol.tus[i].placements]
    kept = sum(tu_objective_term(tu, objective) + objective.beta for tu in survivors)
    budget = incumbent_fitness + abs(incumbent_fitness) * _BUDGET_MARGIN - kept
    return survivors, released, budget


def _rebuild(
    survivors: list[PackedTu], released: list[BoxSpec], tut, run: Run, budget: float
) -> Solution | None:
    """Survivors plus a fresh pack of the released boxes; None when some
    released box cannot fit the rebuild type, or when the new TUs cannot stay
    within ``budget``.

    Each new TU costs at least its volume plus alpha*theta (the centering
    product is never negative) plus beta, so at most ``cap`` of them fit the
    budget. A rebuild that needs more can never beat the incumbent: it is
    refused unpacked when the released boxes' volume or weight already needs
    more, and otherwise the pack stops at the TU past the cap.

    ``pack_3dbp`` is deterministic and a capped pack is the uncapped pack up
    to the first box past the cap, so each pack is kept in ``run.packs``: a
    full pack of n TUs answers every later cap (n <= cap reuses copies of its
    TUs, a tighter cap is cut), and a pack cut at cap c answers every cap
    <= c. Only a looser cap than a cut one packs again.
    """
    if any(not fits_empty(b, tut) for b in released):
        return None
    objective = run.objective
    per_tu = tut.volume_liters + objective.alpha * objective.theta + objective.beta
    cap = math.ceil(budget / per_tu) - 1
    volume = sum(b.volume for b in released)
    weight = sum(b.weight for b in released)
    if cap < max(1, -(-volume // tut.volume_cm3), -(-weight // tut.q)):
        return None
    key = (tut, tuple(released))
    packed = run.packs.get(key)
    if packed is None or (isinstance(packed, int) and cap > packed):
        result = pack_3dbp(tut, released, run.cost, run.sort, max_tus=cap)
        packed = run.packs[key] = cap if result.unplaced else result.tus
    if isinstance(packed, int) or len(packed) > cap:
        return None
    return Solution([tu.clone() for tu in survivors + packed])


def move_n3(sol: Solution, run: Run, incumbent_fitness: float) -> Solution | None:
    """Destroy-repack move: rebuild a random subset of TUs with the pointer's
    current type."""
    if len(sol.tus) < 2:
        return None
    for _ in range(run.search.micro_repeats):
        n = run.rng.randint(2, len(sol.tus))
        victims = sorted(run.rng.sample(range(len(sol.tus)), n))
        survivors, released, budget = _destroy(sol, victims, run.objective, incumbent_fitness)
        cand = _rebuild(survivors, released, run.pointer.current(), run, budget)
        if cand is not None and fitness(cand, run.objective) < incumbent_fitness:
            return cand
    return None


def ls1(sol: Solution, run: Run) -> Solution:
    """First-order search: relocations, swaps, destroy-repacks.

    The three moves run in order; any acceptance restarts the sequence from
    the first move. Stops when one full pass yields no strict improvement.
    """
    incumbent = sol
    value = fitness(sol, run.objective)
    while cand := (
        move_n1(incumbent, run, value)
        or move_n2(incumbent, run, value)
        or move_n3(incumbent, run, value)
    ):
        incumbent, value = cand, fitness(cand, run.objective)
        run.stats.record("ls1", value, cand)
    return incumbent


def ls2(sol: Solution, run: Run) -> tuple[Solution, bool]:
    """Second-order search: destroy badly used TUs, rebuild with other types.

    A TU is destroyed when its fill rate is below omega or its lateral slack
    exceeds gamma. The released boxes are rebuilt with each other catalog
    type in circular order after the pointer; the first strictly improving
    rebuild is adopted and leaves the pointer on its type. A full scan with
    no improvement returns the input unchanged.
    """
    value = fitness(sol, run.objective)
    victims = [
        i
        for i, tu in enumerate(sol.tus)
        if fill_rate(tu) < run.search.omega or tu.lateral_slack() > run.search.gamma
    ]
    if not victims:
        return sol, False
    survivors, released, budget = _destroy(sol, victims, run.objective, value)
    for idx, tut in run.pointer.scan():
        cand = _rebuild(survivors, released, tut, run, budget)
        if cand is None:
            continue
        new_value = fitness(cand, run.objective)
        if new_value < value:
            run.pointer.index = idx
            run.stats.record("ls2", new_value, cand)
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
    second-order scan exhausts the catalog without improvement.

    The run's trace goes to ``stats`` when given, else to a fresh
    ``SolveStats``; it never steers the search.
    """
    search = search or SearchParams()
    run = Run(
        objective or instance.objective, cost or CostParams(), sort or SortParams(), search,
        random.Random(search.seed), TypePointer(instance.catalog), stats or SolveStats(),
    )
    sol = initialize(instance, run.pointer, run.cost, run.sort)
    run.stats.record("init", fitness(sol, run.objective), sol)
    while True:
        sol = ls1(sol, run)
        sol, improved = ls2(sol, run)
        if not improved:
            return sol

from __future__ import annotations

from tupack.generator import DEFAULT_CATALOG, Instance
from tupack.geometry import BoxSpec, LoadedTu, Placement, Solution
from tupack.lowerbound import LowerBound
from tupack.reports import run_row


def _solution(*types):
    tus = []
    for i, tut in enumerate(types):
        tu = LoadedTu(tut)
        tu.add(Placement(BoxSpec(f"b{i}", 40, 40, 40, 10), "wlh", 40, 40, 40, 0, 0, 0))
        tus.append(tu)
    return Solution(tus)


def test_run_row_optimal_is_reaching_the_bound_volume():
    small, big = DEFAULT_CATALOG[0], DEFAULT_CATALOG[4]  # 1248 L and 1872 L
    inst = Instance("mix", [], list(DEFAULT_CATALOG),
                    lower_bound=LowerBound((0, 0, 0, 0, 2, 0), 3944.0))
    # 3 x 120x80x130 fills the same 3744 L as the bound's 2 x 120x120x130
    row = run_row(inst, _solution(small, small, small), 95.0, 0.0)
    assert row.optimal is True and row.delta_volume_pct == 0.0
    assert run_row(inst, _solution(big, big), 95.0, 0.0).optimal is True
    assert run_row(inst, _solution(small, small, big), 95.0, 0.0).optimal is False
    no_bound = Instance("mix", [], list(DEFAULT_CATALOG))
    assert run_row(no_bound, _solution(small), 95.0, 0.0).optimal is None

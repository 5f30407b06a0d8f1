from __future__ import annotations

import pytest

from tupack.geometry import BoxSpec, Placement, TuType
from tupack.packer import ExtremePoint, PackedTu

EURO_PALLET = TuType("120x80x130", 120, 80, 130, 1000)


def _free_box(bid, w, l, h, weight=0):
    return BoxSpec(bid, w, l, h, weight, txz=True, tyz=True, stackable=True)


def ep_list(eps):
    """The rows of an EP array as named ``ExtremePoint`` tuples."""
    return [ExtremePoint(*row) for row in eps.tolist()]


@pytest.fixture
def worked_example_tu():
    """The mid-pack state of the walkthrough example: six flat boxes on a
    Euro pallet whose derived EP list matches the published nine anchor
    points and residuals exactly."""
    placements = [Placement(_free_box(f"s{i}", 30, 40, 20), "wlh", 30, 40, 20, x, 0, 0)
                  for i, x in enumerate((0, 30, 60, 90))]
    placements.append(Placement(_free_box("s4", 30, 40, 20), "wlh", 30, 40, 20, 80, 40, 0))
    placements.append(Placement(_free_box("s5", 80, 20, 20), "wlh", 80, 20, 20, 0, 40, 0))
    return PackedTu(EURO_PALLET, placements)


WORKED_EXAMPLE_EPS = {
    (30, 0, 20): (90, 80, 110),
    (60, 0, 20): (60, 80, 110),
    (0, 60, 0): (80, 20, 130),
    (0, 0, 20): (120, 80, 110),
    (90, 0, 20): (30, 80, 110),
    (0, 40, 20): (120, 40, 110),
    (80, 0, 20): (40, 80, 110),
    (80, 40, 20): (40, 40, 110),
    (110, 40, 0): (10, 40, 130),
}

"""``scripts/kernel_replay.py`` on copies of this checkout's package: no git,
no subprocess, no perfbench pass."""

from __future__ import annotations

import importlib.util
import random
import shutil
import sys
from pathlib import Path

import pytest

import tupack

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "kernel_replay.py"
_spec = importlib.util.spec_from_file_location("kernel_replay", _SCRIPT)
kernel_replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_replay)

# appended to a copy's packer.py: its update_eps then drops the last EP row
_DROP_LAST_EP = """

_update_eps_kept = update_eps


def update_eps(tu, placed):
    _update_eps_kept(tu, placed)
    tu.eps = tu.eps[:-1]
"""


@pytest.fixture
def copies(tmp_path):
    """``load(name, tail="")``: a copy of the package, with ``tail``
    appended to its packer.py, imported as ``name``; unloaded afterwards."""
    names = []

    def load(name, tail=""):
        pkg_dir = tmp_path / name / "tupack"
        shutil.copytree(Path(tupack.__file__).parent, pkg_dir,
                        ignore=shutil.ignore_patterns("__pycache__"))
        with open(pkg_dir / "packer.py", "a", encoding="utf-8") as fh:
            fh.write(tail)
        names.append(name)
        return kernel_replay.load_package(pkg_dir, name)

    yield load
    for name in names:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]


def _exercise(pkg):
    """Packs that open several TUs (so ``_cheapest`` hands ``best_spot`` the
    memo's parts), then boxes taken out two at a time and one landed back
    with ``place_best``, whose read of the stale EPs runs
    ``eps_of_layout``."""
    geometry, packer = pkg.geometry, pkg.packer
    tut = geometry.TuType("t", 90, 70, 80, 600)
    rng = random.Random(3)
    boxes = [geometry.BoxSpec(f"b{i}", rng.randint(10, 50), rng.randint(10, 50),
                              rng.randint(10, 50), rng.randint(0, 100), rng.random() < 0.5,
                              rng.random() < 0.5, rng.random() < 0.8) for i in range(30)]
    for tu in packer.pack_3dbp(tut, boxes).tus:
        while tu.nbox > 2:
            box = tu.remove_at(rng.randrange(tu.nbox)).box
            tu.remove_at(rng.randrange(tu.nbox))
            packer.place_best(tu, box)


def test_a_checkout_replayed_against_itself_is_identical(copies):
    parent, change = copies("kr_self_parent"), copies("kr_self_change")
    calls = kernel_replay.capture(change, lambda: _exercise(change), every=1)
    out = kernel_replay.replay(calls, {"parent": parent, "change": change}, repeats=1)
    assert set(out) == set(kernel_replay.KERNELS)
    for kernel, entry in out.items():
        assert entry["calls"] > 0 and entry["identical"], kernel
        assert entry["parent_us"] > 0 and entry["change_us"] > 0
    assert any(c.kwargs.get("ep_part") is not None for c in calls if c.kernel == "best_spot")
    # best_spot also ran on TUs whose EPs were stale, replayed as stale
    assert any(c.tu.eps is None for c in calls if c.kernel == "best_spot")


def test_an_update_eps_that_drops_an_ep_is_reported_different(copies):
    parent = copies("kr_drop_parent")
    change = copies("kr_drop_change", _DROP_LAST_EP)
    calls = kernel_replay.capture(parent, lambda: _exercise(parent), every=2)
    out = kernel_replay.replay(calls, {"parent": parent, "change": change}, repeats=1)
    assert out["update_eps"]["identical"] is False
    assert out["best_spot"]["identical"] and out["eps_of_layout"]["identical"]

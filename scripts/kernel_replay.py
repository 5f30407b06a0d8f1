#!/usr/bin/env python3
"""Replay captured packer kernel calls on two commits and compare them.

Run from a checkout:

    python3 scripts/kernel_replay.py --parent REV --change REV \\
        --workload construct-generate --every 10 --repeats 7

Each revision is exported with ``git archive`` into a fresh temporary
directory, as ``scripts/bench_record.py`` does. Both checkouts' ``tupack``
are loaded into this one process under distinct package names, which works
because every import inside the package is relative. One pass of a perfbench
workload then runs on the change's package, and every ``--every``-th call of
``update_eps``, ``best_spot`` and ``eps_of_layout`` has its inputs captured:
the TU's type, placements and EP array, and the other arguments. A TU that
derives its EPs on first read is captured as it stands, with no array
when they are stale, so capturing never derives them.

Each kernel is then replayed on the same states on both sides: in each of
``--repeats`` rounds every state runs once per side, the two calls back to
back and in turns, and each call's time is its state's fastest. The outputs must be
identical: the EP array ``update_eps`` leaves, ``best_spot``'s answer and
``eps_of_layout``'s array. A keyword argument the capturing call passed
(such as ``best_spot``'s price parts) reaches a side only when its kernel
takes that keyword; the other side computes the value itself, as it does
when it runs. The last line of standard output is the result as JSON: per
kernel the states replayed, whether every output was identical, both sides'
per-call time in µs and the change-to-parent ratio.

Replays time the same inputs over and over, so they hold a few per cent
where one traced perfbench pass swings by a fifth.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import inspect
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

KERNELS = ("update_eps", "best_spot", "eps_of_layout")


def load_package(pkg_dir: Path, name: str):
    """Import the package in ``pkg_dir`` (a checkout's ``src/tupack``) as
    ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, Path(pkg_dir) / "__init__.py", submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


class TuState(NamedTuple):
    """A packer TU as a kernel saw it: type, placements and EP array, None
    when the EPs were stale."""

    tu_type: object
    placements: tuple
    eps: np.ndarray | None


def _stored_eps(tu):
    """The TU's EP array as stored, without deriving it: None when stale.
    A ``PackedTu`` that derives on read keeps the array in ``_eps``; an
    older one holds ``eps`` itself."""
    return tu._eps if hasattr(type(tu), "_eps") else tu.eps


class Call(NamedTuple):
    """One captured kernel call: the TU, the other positional arguments and
    the keyword arguments."""

    kernel: str
    tu: TuState
    args: tuple
    kwargs: dict


def capture(pkg, run, every: int) -> list[Call]:
    """Run ``run()`` with every ``every``-th call of each kernel of
    ``pkg.packer`` recorded. The kernels are rebound in every module of the
    package that binds them, and restored afterwards."""
    calls: list[Call] = []
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == pkg.__name__ or n.startswith(pkg.__name__ + "."))]
    patched = []
    for kernel in KERNELS:
        original = getattr(pkg.packer, kernel)
        seen = [0]

        def wrapper(tu, *args, _kernel=kernel, _original=original, _seen=seen, **kwargs):
            if _seen[0] % every == 0:
                state = TuState(tu.tu_type, tuple(tu.placements), _stored_eps(tu))
                calls.append(Call(_kernel, state, args, kwargs))
            _seen[0] += 1
            return _original(tu, *args, **kwargs)

        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, name, value))
                    setattr(module, name, wrapper)
    try:
        run()
    finally:
        for module, name, value in reversed(patched):
            setattr(module, name, value)
    return calls


class _Converter:
    """Rebuilds the capturing package's dataclasses (box specs, TU types,
    placements, cost constants) as the same-named classes of another package,
    once per distinct value."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.memo: dict = {}

    def __call__(self, obj):
        if isinstance(obj, (tuple, list)):
            return type(obj)(self(o) for o in obj)
        if isinstance(obj, dict):
            return {k: self(v) for k, v in obj.items()}
        if not dataclasses.is_dataclass(obj) or isinstance(obj, type):
            return obj
        key = (type(obj), obj)
        if key not in self.memo:
            module = sys.modules[f"{self.pkg.__name__}.{type(obj).__module__.rpartition('.')[2]}"]
            cls = getattr(module, type(obj).__name__)
            self.memo[key] = cls(**{f.name: self(getattr(obj, f.name))
                                    for f in dataclasses.fields(obj)})
        return self.memo[key]


def _plain(value):
    """An output in a form two packages' outputs compare by: arrays as
    lists, dataclasses as their field tuples."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return tuple(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    return value


def _bound(pkg, calls: list[Call]):
    """Per call, a thunk running it on ``pkg`` and returning its output.

    Every thunk gets its own TU, rebuilt from the placements with the
    captured EP array; ``update_eps``' thunk restores that array first,
    because the call replaces it. A TU captured stale keeps the EPs its
    rebuild gives it: stale where ``eps`` derives on read, derived from the
    layout where ``PackedTu`` derives on construction."""
    convert, thunks = _Converter(pkg), []
    for call in calls:
        kernel = getattr(pkg.packer, call.kernel)
        takes = inspect.signature(kernel).parameters
        tu = pkg.packer.PackedTu(convert(call.tu.tu_type), convert(call.tu.placements))
        eps = call.tu.eps
        if eps is not None:
            tu.eps = eps
        args = convert(call.args)
        kwargs = {k: convert(v) for k, v in call.kwargs.items() if k in takes}
        if call.kernel == "update_eps":
            def thunk(tu=tu, eps=eps, args=args, kwargs=kwargs, kernel=kernel):
                tu.eps = eps
                kernel(tu, *args, **kwargs)
                return tu.eps
        else:
            def thunk(tu=tu, args=args, kwargs=kwargs, kernel=kernel):
                return kernel(tu, *args, **kwargs)
        thunks.append(thunk)
    return thunks


def _fastest(thunks: dict, repeats: int) -> dict:
    """Per side, the sum over states of each state's fastest call.

    The two sides' calls of one state run back to back, in turns, so a
    change of host speed, which lasts seconds, reaches both alike."""
    names = list(thunks)
    count = len(thunks[names[0]])
    best = {name: [float("inf")] * count for name in names}
    clock = time.perf_counter
    for r in range(repeats):
        gc.collect()
        gc.disable()
        try:
            for i in range(count):
                for name in (names if (i + r) % 2 == 0 else names[::-1]):
                    start = clock()
                    thunks[name][i]()
                    took = clock() - start
                    if took < best[name][i]:
                        best[name][i] = took
        finally:
            gc.enable()
    return {name: sum(times) for name, times in best.items()}


def replay(calls: list[Call], sides: dict, repeats: int) -> dict:
    """Per kernel: the states replayed, whether both sides' outputs are
    identical, each side's per-call time in µs (each state's fastest of
    ``repeats`` calls, averaged) and the ratio of the second side to the
    first. ``sides`` maps two names to loaded packages, in (parent, change)
    order."""
    names = list(sides)
    out = {}
    for kernel in KERNELS:
        mine = [c for c in calls if c.kernel == kernel]
        if not mine:
            out[kernel] = {"calls": 0}
            continue
        thunks = {name: _bound(pkg, mine) for name, pkg in sides.items()}
        outputs = {name: [_plain(t()) for t in ts] for name, ts in thunks.items()}
        us = {name: 1e6 * total / len(mine) for name, total in _fastest(thunks, repeats).items()}
        out[kernel] = {
            "calls": len(mine),
            "identical": outputs[names[0]] == outputs[names[1]],
            **{f"{name}_us": us[name] for name in names},
            "ratio": us[names[1]] / us[names[0]],
        }
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent commit")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--workload", default="construct-generate",
                   help="perfbench workload whose pass is captured")
    p.add_argument("--every", type=int, default=10, help="capture every Nth call of a kernel")
    p.add_argument("--repeats", type=int, default=7, help="replay rounds per side")
    args = p.parse_args(argv)
    if args.every < 1 or args.repeats < 1:
        p.error("--every and --repeats must be at least 1")
    return args


def _workload_run(perfbench: Path, pkg, workload: str):
    """A thunk running one pass of the perfbench workload on ``pkg``, which
    perfbench imports as ``tupack``."""
    for name, module in list(sys.modules.items()):
        if name == pkg.__name__ or name.startswith(pkg.__name__ + "."):
            sys.modules["tupack" + name[len(pkg.__name__):]] = module
    sys.path.insert(0, str(perfbench))
    import workloads

    jobs = workloads.WORKLOADS[workload]()
    return lambda: workloads.run_pass(jobs, range(len(jobs)))


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_record import export, git

    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: export(getattr(args, side), Path(tmp) / side)
                     for side in ("parent", "change")}
        sides = {side: load_package(path / "src" / "tupack", f"replay_{side}")
                 for side, path in checkouts.items()}
        run = _workload_run(checkouts["change"] / "perfbench", sides["change"], args.workload)
        calls = capture(sides["change"], run, args.every)
        kernels = replay(calls, sides, args.repeats)
    print(json.dumps({
        "parent_sha": git("rev-parse", args.parent),
        "change_sha": git("rev-parse", args.change),
        "workload": args.workload,
        "every": args.every,
        "repeats": args.repeats,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "kernels": kernels,
    }))
    return 0 if all(k.get("identical", True) for k in kernels.values()) else 1


if __name__ == "__main__":
    sys.exit(main())

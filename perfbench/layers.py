"""Which tupack functions are traced, what their probes count, and the
per-layer metrics read from a finished trace.

Metric names are ``<module>.<function>.<stat>``. ``calls``, ``total_s`` and
``self_s`` come from the spans; the other stats come from probes:

- ``hit_ratio``: share of ``best_spot`` calls that found a spot;
- ``pairs``: sum over ``best_spot`` calls of EPs x placements, the size of
  its candidate-by-obstacle overlap test;
- ``eps_max`` / ``eps_mean``: EP-list length after each ``update_eps``;
- ``boxes`` / ``tus_opened``: boxes handed to ``pack_3dbp`` and TUs it opened,
  or boxes generated by ``generate_instance``;
- ``accept_ratio``: share of move / search calls that returned an improvement;
- ``feasible_ratio``: share of ``try_swap`` calls whose two boxes both landed;
- ``bytes``: text written by a dump, or read by a parse.

A ratio of a function that was never called reads 0.
"""

from __future__ import annotations

from tracer import LayerStats, Target, Tracer


def _arg(args, kwargs, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _best_spot(args, kwargs, result, st: LayerStats):
    tu = _arg(args, kwargs, 0, "tu")
    st.add("hits", result is not None)
    st.add("pairs", len(tu.eps) * len(tu.placements))


def _update_eps(args, kwargs, result, st: LayerStats):
    n = len(_arg(args, kwargs, 0, "tu").eps)
    st.add("eps_sum", n)
    st.peak("eps_max", n)


def _pack_3dbp(args, kwargs, result, st: LayerStats):
    st.add("boxes", len(_arg(args, kwargs, 1, "boxes")))
    st.add("tus_opened", len(result.tus) - len(_arg(args, kwargs, 4, "open_tus") or []))


def _found(args, kwargs, result, st: LayerStats):
    st.add("accepted", result is not None)


def _ls1(args, kwargs, result, st: LayerStats):
    st.add("accepted", result is not _arg(args, kwargs, 0, "sol"))


def _ls2(args, kwargs, result, st: LayerStats):
    st.add("accepted", result[1])


def _generated(args, kwargs, result, st: LayerStats):
    st.add("boxes", len(result[0].boxes))


def _dumped(args, kwargs, result, st: LayerStats):
    st.add("bytes", len(result.encode()))


def _parsed(args, kwargs, result, st: LayerStats):
    st.add("bytes", len(_arg(args, kwargs, 0, "text").encode()))


# (module, function, probe, stats reported)
_LAYERS = [
    ("packer", "best_spot", _best_spot, ("calls", "self_s", "hit_ratio", "pairs")),
    ("packer", "update_eps", _update_eps, ("calls", "self_s", "eps_max", "eps_mean")),
    ("packer", "eps_of_layout", None, ("calls", "self_s")),
    ("packer", "pack_3dbp", _pack_3dbp, ("calls", "total_s", "boxes", "tus_opened")),
    ("packer", "sort_boxes", None, ("self_s",)),
    ("search", "ls1", _ls1, ("calls", "total_s", "accept_ratio")),
    ("search", "ls2", _ls2, ("calls", "total_s", "accept_ratio")),
    ("search", "move_n1", _found, ("calls", "total_s", "accept_ratio")),
    ("search", "move_n2", _found, ("calls", "total_s", "accept_ratio")),
    ("search", "move_n3", _found, ("calls", "total_s", "accept_ratio")),
    ("search", "try_swap", _found, ("feasible_ratio",)),
    ("search", "_top_layer", None, ("calls", "self_s")),
    ("geometry", "fitness", None, ("calls", "self_s")),
    ("geometry", "Solution.clone", None, ("calls", "self_s")),
    ("lowerbound", "solve_lower_bound", None, ("calls", "self_s")),
    ("generator", "generate_instance", _generated, ("calls", "self_s", "boxes")),
    ("fileio", "dump_instance", _dumped, ("calls", "self_s", "bytes")),
    ("fileio", "parse_instance", _parsed, ("calls", "self_s", "bytes")),
    ("fileio", "dump_solution", _dumped, ("calls", "self_s", "bytes")),
]

# probe counter behind each derived stat: ratios and means divide it by calls
_PER_CALL = {"hit_ratio": "hits", "accept_ratio": "accepted",
             "feasible_ratio": "accepted", "eps_mean": "eps_sum"}

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "pairs": "count",
         "eps_max": "count", "eps_mean": "count", "boxes": "count",
         "tus_opened": "count", "bytes": "bytes"}


def targets() -> list[Target]:
    return [Target(f"tupack.{module}", name, f"{module}.{name}", probe)
            for module, name, probe, _ in _LAYERS]


def _stat(st: LayerStats, stat: str) -> float:
    if stat == "calls":
        return st.calls
    if stat in ("total_s", "self_s"):
        return getattr(st, stat)
    if stat in _PER_CALL:
        return st.counters.get(_PER_CALL[stat], 0) / st.calls if st.calls else 0.0
    return st.counters.get(stat, 0)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)`` for every per-layer metric of a trace."""
    out = {}
    for module, name, _, stats in _LAYERS:
        st = tracer.stats[f"{module}.{name}"]
        for stat in stats:
            out[f"{module}.{name}.{stat}"] = (_stat(st, stat), UNITS.get(stat, "ratio"))
    return out

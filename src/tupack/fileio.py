"""Line-oriented text formats for instances, solutions and TU-type catalogs.

Every format is whitespace-separated token lines, human-diffable, with
``#`` comments and blank lines ignored. All lengths are integer centimeters
and weights integer kilograms. Each record holds exactly the fields shown
(their count in brackets), the first record is the header ``format KIND 1``,
and only ``tutype``, ``lb``, ``box`` and ``placement`` records may repeat.
A placement's ``TU_INDEX`` names a TU listed before or the next one: TUs
count up from 0 in the order they first appear. Names and ids are single
tokens without ``#``: the writers raise ``ValueError`` on others. The
parsers raise ``FormatError`` naming the line on any other record,
malformed counts and weights that are not finite numbers >= 0.

Instance file:
    format instance 1                       [2]
    name NAME                               [1]
    alpha FLOAT / beta FLOAT / theta FLOAT  [1 each]
    tutype ID X Y Z Q                       [5; one per catalog type, ordered]
    lb ID COUNT                             [2; optional lower bound, sparse]
    box ID W L H WEIGHT TXZ TYZ STACKABLE   [8]

Solution file:
    format solution 1                       [2]
    instance NAME                           [1; right after the header]
    fitness FLOAT                           [1]
    placement TU_INDEX TUTYPE_ID BOX_ID ORIENTATION_CODE X Y Z   [7]

Catalog file (no header): ``tutype`` records only.
"""

from __future__ import annotations

from pathlib import Path

from .generator import Instance
from .geometry import (
    BoxSpec,
    LoadedTu,
    ORIENTATION_CODES,
    ObjectiveParams,
    Placement,
    Solution,
    TuType,
    check_nonnegative,
    extents,
    fitness,
)
from .lowerbound import LowerBound


class FormatError(ValueError):
    """Malformed instance or solution file."""


class OtherInstanceError(FormatError):
    """A solution file that names another instance than its own, or none."""


def _flag(v: bool) -> str:
    return "1" if v else "0"


def _parse_flag(tok: str) -> bool:
    if tok not in ("0", "1"):
        raise FormatError(f"flag must be 0 or 1, got {tok!r}")
    return tok == "1"


def _check_tokens(values: list[str]):
    """Raise ``ValueError`` naming the first name or id in ``values`` (the
    instance name first) that would not read back as itself: empty, or
    holding whitespace or ``#``."""
    joined = "".join(values)
    if "#" in joined or joined.split() != [joined] or not all(values):
        bad = next(v for v in values if "#" in v or v.split() != [v])
        raise ValueError(f"name or id {bad!r} is not one token without '#'")


def dump_instance(inst: Instance) -> str:
    _check_tokens([inst.name, *[t.id for t in inst.catalog], *[b.id for b in inst.boxes]])
    o = inst.objective
    lines = ["format instance 1", f"name {inst.name}", f"alpha {o.alpha!r}",
             f"beta {o.beta!r}", f"theta {o.theta!r}"]
    for t in inst.catalog:
        lines.append(f"tutype {t.id} {t.x} {t.y} {t.z} {t.q}")
    if inst.lower_bound is not None:
        for t, c in zip(inst.catalog, inst.lower_bound.counts):
            if c:
                lines.append(f"lb {t.id} {c}")
    for b in inst.boxes:
        lines.append(f"box {b.id} {b.width} {b.length} {b.height} {b.weight} "
                     f"{_flag(b.txz)} {_flag(b.tyz)} {_flag(b.stackable)}")
    return "\n".join(lines) + "\n"


class _at:
    """``with _at(ln):`` reports a ``ValueError`` raised while handling the
    record on line ``ln`` as ``FormatError("line N: ...")``."""

    __slots__ = ("ln",)

    def __init__(self, ln: int):
        self.ln = ln

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, ValueError):
            raise (kind if issubclass(kind, FormatError) else FormatError)(
                f"line {self.ln}: {exc}") from exc


# Each record tag of a format and its token count, tag included; a negative
# count marks a record that may appear once.
_INSTANCE = {"format": -3, "name": -2, "alpha": -2, "beta": -2, "theta": -2,
             "tutype": 6, "lb": 3, "box": 9}
_SOLUTION = {"format": -3, "instance": -2, "fitness": -2, "placement": 8}


def _records(text: str, tags: dict[str, int], kind: str):
    """Yield ``(line number, tokens)`` for every record, skipping comments
    and blank lines. A record whose tag is not in ``tags``, whose field
    count is not its tag's, or that repeats a single-valued record raises
    ``FormatError`` naming its line. When ``tags`` hold ``format``, the
    ``format KIND 1`` header must come first; it is checked and consumed."""
    # a single-valued tag's count turns 0 once read; the header opens the other tags
    left = {"format": tags["format"]} if "format" in tags else dict(tags)
    for ln, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        if left.get(toks[0]) != len(toks):
            # also taken by the first record of each single-valued tag
            tag, want = toks[0], abs(tags.get(toks[0], 0))
            if not want:
                raise FormatError(f"line {ln}: {kind} files hold no {tag!r} records")
            if want != len(toks):
                raise FormatError(f"line {ln}: {tag!r} takes {want - 1} fields, got {len(toks) - 1}")
            if tag not in left:
                raise FormatError(f"line {ln}: {tag!r} record before the 'format {kind} 1' header")
            if not left[tag]:
                raise FormatError(f"line {ln}: second {tag!r} record")
            if tag == "format":
                if toks[1:] != [kind, "1"]:
                    raise FormatError(f"line {ln}: expected 'format {kind} 1', not {' '.join(toks)!r}")
                left = {**tags, "format": 0}
                continue
            left[tag] = 0
        yield ln, toks
    if left.get("format"):
        raise FormatError(f"missing 'format {kind} 1' header")


def _tutype(toks: list[str], seen: set[str]) -> TuType:
    """One ``tutype ID X Y Z Q`` record; ``seen`` holds the ids read so far."""
    if toks[1] in seen:
        raise FormatError(f"duplicate tutype id {toks[1]!r}")
    seen.add(toks[1])
    return TuType(toks[1], int(toks[2]), int(toks[3]), int(toks[4]), int(toks[5]))


def parse_instance(text: str) -> Instance:
    name = "unnamed"
    weights: dict[str, float] = {}
    weight_ln = {"alpha": 0, "theta": 0}
    catalog: list[TuType] = []
    lb_counts: dict[str, int] = {}
    boxes: list[BoxSpec] = []
    type_ids: set[str] = set()
    box_ids: set[str] = set()
    for ln, toks in _records(text, _INSTANCE, "instance"):
        tag = toks[0]
        with _at(ln):
            if tag == "box":
                if toks[1] in box_ids:
                    raise FormatError(f"duplicate box id {toks[1]!r}")
                box_ids.add(toks[1])
                boxes.append(BoxSpec(
                    toks[1], int(toks[2]), int(toks[3]), int(toks[4]), int(toks[5]),
                    _parse_flag(toks[6]), _parse_flag(toks[7]), _parse_flag(toks[8])))
            elif tag == "tutype":
                catalog.append(_tutype(toks, type_ids))
            elif tag == "lb":
                if toks[1] in lb_counts:
                    raise FormatError(f"duplicate lb record for type {toks[1]!r}")
                lb_counts[toks[1]] = int(toks[2])
                if lb_counts[toks[1]] < 0:
                    raise FormatError(f"negative lb count {toks[2]}")
            elif tag == "name":
                name = toks[1]
            else:  # alpha, beta or theta
                weights[tag], weight_ln[tag] = float(toks[1]), ln
                # unread weights count as 0: alpha*theta fails at its later line
                ObjectiveParams(**{"alpha": 0.0, "theta": 0.0, **weights})
    if not catalog:
        raise FormatError("instance has no TU types")
    # a default alpha or theta can still push alpha*theta above the limit
    with _at(max(weight_ln["alpha"], weight_ln["theta"])):
        params = ObjectiveParams(**weights)
    lower = None
    if lb_counts:
        unknown = set(lb_counts) - {t.id for t in catalog}
        if unknown:
            raise FormatError(f"lb records reference unknown types {sorted(unknown)}")
        counts = tuple(lb_counts.get(t.id, 0) for t in catalog)
        lower = LowerBound.of(counts, catalog, params.beta)
    return Instance(name, boxes, catalog, params, lower)


def dump_solution(sol: Solution, instance_name: str, objective: ObjectiveParams) -> str:
    _check_tokens([instance_name, *[tu.tu_type.id for tu in sol.tus], *sol.box_ids()])
    lines = ["format solution 1", f"instance {instance_name}", f"fitness {fitness(sol, objective)!r}"]
    for ti, tu in enumerate(sol.tus):
        for p in tu.placements:
            lines.append(f"placement {ti} {tu.tu_type.id} {p.box.id} {p.code} {p.x} {p.y} {p.z}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str, inst: Instance) -> tuple[Solution, str, float]:
    """Rebuild a solution against its instance.

    Returns (solution, instance name recorded in the file, recorded fitness);
    the fitness is NaN when the file has no ``fitness`` line, and a fitness
    that is not a finite number >= 0 is malformed. A file whose first record
    after the header does not name ``inst`` raises ``OtherInstanceError``.
    Placement extents are re-derived from the box and orientation code, so a
    solution file cannot smuggle inconsistent geometry.
    """
    types = {t.id: t for t in inst.catalog}
    boxes = {b.id: b for b in inst.boxes}
    inst_name = None
    recorded_fitness = float("nan")
    tus: list[LoadedTu] = []
    for ln, toks in _records(text, _SOLUTION, "solution"):
        tag = toks[0]
        with _at(ln):
            if tag == "instance":
                inst_name = toks[1]
                if inst_name != inst.name:
                    raise OtherInstanceError(f"solution of instance {inst_name!r}, "
                                             f"not {inst.name!r}")
            elif inst_name is None:
                raise OtherInstanceError("no 'instance' record before this one")
            elif tag == "fitness":
                recorded_fitness = float(toks[1])
                check_nonnegative(fitness=recorded_fitness)
            else:  # placement
                ti, type_id, box_id, code = int(toks[1]), toks[2], toks[3], toks[4]
                x, y, z = int(toks[5]), int(toks[6]), int(toks[7])
                if type_id not in types:
                    raise FormatError(f"unknown TU type {type_id!r}")
                if box_id not in boxes:
                    raise FormatError(f"unknown box {box_id!r}")
                if code not in ORIENTATION_CODES:
                    raise FormatError(f"unknown orientation code {code!r}")
                if ti == len(tus):
                    tus.append(LoadedTu(types[type_id]))
                elif not 0 <= ti < len(tus):
                    raise FormatError(f"TU index {ti}: expected a listed TU or the next, {len(tus)}")
                elif tus[ti].tu_type.id != type_id:
                    raise FormatError(f"TU {ti} listed with two types")
                box = boxes[box_id]
                tus[ti].add(Placement(box, code, *extents(box, code), x, y, z))
    if inst_name is None:
        raise OtherInstanceError("no 'instance' record")
    return Solution(tus), inst_name, recorded_fitness


def parse_catalog(text: str) -> list[TuType]:
    """Read a TU-type catalog: one ``tutype ID X Y Z Q`` record per line."""
    catalog: list[TuType] = []
    type_ids: set[str] = set()
    for ln, toks in _records(text, {"tutype": 6}, "catalog"):
        with _at(ln):
            catalog.append(_tutype(toks, type_ids))
    if not catalog:
        raise FormatError("catalog file has no tutype records")
    return catalog


def read_catalog(path: str | Path) -> list[TuType]:
    return parse_catalog(Path(path).read_text(encoding="utf-8"))


def write_instance(path: str | Path, inst: Instance):
    Path(path).write_text(dump_instance(inst), encoding="utf-8")


def read_instance(path: str | Path) -> Instance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def write_solution(path: str | Path, sol: Solution, inst: Instance):
    Path(path).write_text(dump_solution(sol, inst.name, inst.objective), encoding="utf-8")


def read_solution(path: str | Path, inst: Instance) -> tuple[Solution, str, float]:
    return parse_solution(Path(path).read_text(encoding="utf-8"), inst)

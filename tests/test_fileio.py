from __future__ import annotations

import math
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from tupack.fileio import (
    FormatError,
    OtherInstanceError,
    dump_instance,
    dump_solution,
    parse_catalog,
    parse_instance,
    parse_solution,
    read_instance,
    read_solution,
    write_instance,
    write_solution,
)
from tupack.generator import Instance, generate_instance, validate_solution
from tupack.geometry import BoxSpec, LoadedTu, Placement, Solution, TuType, fitness
from tupack.lowerbound import DemandPoint
from tupack.search import SearchParams, solve


@pytest.fixture
def inst_and_ref():
    return generate_instance(DemandPoint(2, 900), scheme=2, name="rt", seed=11)


def test_instance_round_trip(inst_and_ref):
    inst, _ = inst_and_ref
    again = parse_instance(dump_instance(inst))
    assert again.name == inst.name
    assert again.catalog == inst.catalog
    assert again.boxes == inst.boxes
    assert again.objective == inst.objective
    assert again.lower_bound.counts == inst.lower_bound.counts
    assert again.lower_bound.objective == pytest.approx(inst.lower_bound.objective)


def test_instance_dump_stable(inst_and_ref):
    inst, _ = inst_and_ref
    assert dump_instance(inst) == dump_instance(parse_instance(dump_instance(inst)))


def test_solution_round_trip(inst_and_ref):
    inst, ref = inst_and_ref
    text = dump_solution(ref, inst.name, inst.objective)
    sol, name, recorded = parse_solution(text, inst)
    assert name == inst.name
    assert recorded == pytest.approx(fitness(ref, inst.objective))
    assert len(sol.tus) == len(ref.tus)
    for a, b in zip(sol.tus, ref.tus):
        assert a.tu_type == b.tu_type
        assert [(p.box.id, p.code, p.x, p.y, p.z) for p in a.placements] == [
            (p.box.id, p.code, p.x, p.y, p.z) for p in b.placements
        ]
    assert dump_solution(sol, name, inst.objective) == text


def test_files_on_disk(tmp_path, inst_and_ref):
    inst, ref = inst_and_ref
    ipath, spath = tmp_path / "a.inst.txt", tmp_path / "a.sol.txt"
    write_instance(ipath, inst)
    write_solution(spath, ref, inst)
    inst2 = read_instance(ipath)
    sol2, _, _ = read_solution(spath, inst2)
    assert inst2.boxes == inst.boxes
    assert len(sol2.tus) == len(ref.tus)


def test_solved_solution_round_trips(inst_and_ref):
    inst, _ = inst_and_ref
    sol = solve(inst, search=SearchParams(seed=2))
    text = dump_solution(sol, inst.name, inst.objective)
    sol2, _, recorded = parse_solution(text, inst)
    assert recorded == pytest.approx(fitness(sol2, inst.objective))
    assert dump_solution(sol2, inst.name, inst.objective) == text


def test_parse_rejects_wrong_header():
    with pytest.raises(FormatError):
        parse_instance("format solution 1\n")
    with pytest.raises(FormatError):
        parse_instance("name x\n")


def test_parse_rejects_unknown_tag(inst_and_ref):
    inst, _ = inst_and_ref
    with pytest.raises(FormatError):
        parse_instance(dump_instance(inst) + "wobble 1 2 3\n")


def test_parse_rejects_unknown_box(inst_and_ref):
    inst, _ = inst_and_ref
    bad = "format solution 1\ninstance rt\nplacement 0 120x80x130 nosuch wlh 0 0 0\n"
    with pytest.raises(FormatError):
        parse_solution(bad, inst)


def test_parse_rejects_bad_flag():
    text = (
        "format instance 1\nname x\ntutype t 120 80 130 1000\n"
        "box b1 10 10 10 1 2 0 1\n"
    )
    with pytest.raises(FormatError):
        parse_instance(text)


def test_comments_and_blanks_ignored(inst_and_ref):
    inst, _ = inst_and_ref
    text = "# leading comment\n\n" + dump_instance(inst).replace(
        "name rt", "name rt  # trailing"
    )
    assert parse_instance(text).name == "rt"


def test_unplaced_boxes_reported(inst_and_ref):
    inst, ref = inst_and_ref
    text = dump_solution(ref, inst.name, inst.objective)
    # drop the last placement line: the validator reports that box unplaced
    lines = text.strip().splitlines()
    dropped = lines[-1].split()[3]
    sol, _, _ = parse_solution("\n".join(lines[:-1]) + "\n", inst)
    assert validate_solution(inst, sol) == [f"box {dropped} not placed"]


def test_parse_rejects_duplicate_box_id():
    text = (
        "format instance 1\nname x\ntutype t 120 80 130 1000\n"
        "box b1 10 10 10 1 0 0 1\nbox b1 20 20 20 1 0 0 1\n"
    )
    with pytest.raises(FormatError, match="line 5: duplicate box id 'b1'"):
        parse_instance(text)


def test_parse_rejects_duplicate_tutype_id():
    text = (
        "format instance 1\nname x\ntutype t 120 80 130 1000\n"
        "tutype t 120 80 160 1000\nbox b1 10 10 10 1 0 0 1\n"
    )
    with pytest.raises(FormatError, match="line 4: duplicate tutype id 't'"):
        parse_instance(text)


_INST, _REF = generate_instance(DemandPoint(1, 400), scheme=2, name="hx", seed=3)
_VALID = {
    "instance": dump_instance(_INST),
    "solution": dump_solution(_REF, _INST.name, _INST.objective),
    "catalog": "".join(f"tutype {t.id} {t.x} {t.y} {t.z} {t.q}\n" for t in _INST.catalog),
}
_PARSERS = {
    "instance": parse_instance,
    "solution": lambda text: parse_solution(text, _INST),
    "catalog": parse_catalog,
}
_BAD_TOKENS = ["", "x", "0", "-1", "2", "1.5", "nan", "inf", "-inf", "1e400",
               "99999999999999999999", "format", "box", "tutype", "#"]
_SINGLE_VALUED = ("format", "name", "alpha", "beta", "theta", "instance", "fitness")
# edits every parser must reject, naming a line; all but the first need the
# header and the single-valued records that a catalog file lacks, and the TU
# index edits need a solution file
_TU_EDITS = {"negative TU": st.integers(max_value=-1),
             "TU past the next": st.integers(min_value=len(_REF.tus) + 1),
             "TU 1 first": st.just(1)}
_MUST_RAISE = ["append token", "repeat header", "repeat single", "change version",
               "move header", *_TU_EDITS]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(_VALID)), data=st.data())
def test_corrupted_file_raises_only_format_error(kind, data):
    lines = _VALID[kind].splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    toks = lines[i].split()
    edit = data.draw(st.sampled_from(["replace token", "drop token", "drop line", "repeat line",
                                      *_MUST_RAISE]))
    assume(kind != "catalog" or edit not in _MUST_RAISE[1:])
    assume(kind == "solution" or edit not in _TU_EDITS)
    if edit == "append token":
        toks.append(data.draw(st.sampled_from(_BAD_TOKENS[1:-1])))  # not "" or "#"
        lines[i] = " ".join(toks)
    elif edit == "repeat header":
        lines.insert(i + 1, lines[0])
    elif edit == "repeat single":
        single = data.draw(st.sampled_from(
            [line for line in lines if line.split()[0] in _SINGLE_VALUED]))
        lines.insert(i, single)
    elif edit == "change version":
        lines[0] = f"format {kind} {data.draw(st.sampled_from(_BAD_TOKENS[1:-1]))}"
    elif edit == "move header":
        lines.insert(max(i, 1), lines.pop(0))
    elif edit in _TU_EDITS:
        at = [j for j, line in enumerate(lines) if line.startswith("placement ")]
        j = at[0] if edit == "TU 1 first" else data.draw(st.sampled_from(at))
        toks = lines[j].split()
        toks[1] = str(data.draw(_TU_EDITS[edit]))
        lines[j] = " ".join(toks)
    elif edit == "replace token":
        j = data.draw(st.integers(0, len(toks) - 1))
        toks[j] = data.draw(st.sampled_from(_BAD_TOKENS) | st.text(max_size=6))
        lines[i] = " ".join(toks)
    elif edit == "drop token":
        del toks[data.draw(st.integers(0, len(toks) - 1))]
        lines[i] = " ".join(toks)
    elif edit == "drop line":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    if edit in _MUST_RAISE:
        with pytest.raises(FormatError, match=r"^line \d+: "):
            _PARSERS[kind]("\n".join(lines) + "\n")
        return
    try:
        _PARSERS[kind]("\n".join(lines) + "\n")
    except FormatError:
        pass


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_non_finite_or_negative_fitness_names_its_line(value):
    lines = _VALID["solution"].splitlines()
    ln = next(n for n, line in enumerate(lines, 1) if line.startswith("fitness "))
    lines[ln - 1] = f"fitness {value}"
    with pytest.raises(FormatError, match=rf"^line {ln}: fitness must be a finite number"):
        parse_solution("\n".join(lines) + "\n", _INST)


def test_solution_without_fitness_line_parses_to_nan():
    text = "".join(line + "\n" for line in _VALID["solution"].splitlines()
                   if not line.startswith("fitness "))
    _, _, recorded = parse_solution(text, _INST)
    assert math.isnan(recorded)


@pytest.mark.parametrize("tag", ["alpha", "beta", "theta"])
@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_non_finite_weight_names_its_line(tag, value):
    lines = _VALID["instance"].splitlines()
    ln = next(n for n, line in enumerate(lines, 1) if line.startswith(f"{tag} "))
    lines[ln - 1] = f"{tag} {value}"
    with pytest.raises(FormatError, match=rf"^line {ln}: {tag} must be a finite number"):
        parse_instance("\n".join(lines) + "\n")


@pytest.mark.parametrize("lines, ln", [
    (["alpha 1e13"], 3),
    (["beta 2e12"], 3),
    (["alpha 1e7", "beta 1", "theta 1e7"], 5),
    (["theta 1e7", "beta 1", "alpha 1e7"], 5),
    (["beta 1", "alpha 1e11"], 4),   # theta left out: its default 100 counts
], ids=["alpha", "beta", "alpha then theta", "theta then alpha", "default theta"])
def test_weight_above_the_limit_names_its_line(lines, ln):
    """A weight above ``MAX_COST_CONSTANT`` is reported at its line, and
    alpha*theta at the later line of the two."""
    text = "format instance 1\nname x\n" + "".join(f"{line}\n" for line in lines)
    text += "tutype t 120 80 130 1000\n"
    with pytest.raises(FormatError, match=rf"^line {ln}: objective weights .* at most 1e\+12"):
        parse_instance(text)


def test_weights_below_the_limit_in_any_order_parse():
    text = "format instance 1\nname x\nalpha 1e11\ntheta 1\nbeta 1e12\ntutype t 1 1 1 1\n"
    assert parse_instance(text).objective.alpha == 1e11


@pytest.mark.parametrize("edit, ln", [
    (lambda lines: [lines[0], "instance other"] + lines[2:], 2),
    (lambda lines: [lines[0]] + lines[2:], 2),
    (lambda lines: lines[:1], None),
], ids=["another instance", "no instance record", "no record at all"])
def test_solution_of_another_instance_or_none_is_reported_at_its_record(edit, ln):
    """A solution names its instance first, so a file of another instance is
    reported as such even when its boxes are unknown."""
    lines = edit(_VALID["solution"].splitlines())
    where = f"line {ln}: " if ln else ""
    with pytest.raises(OtherInstanceError, match=rf"^{where}(solution of instance 'other'"
                                                 r"|no 'instance' record)"):
        parse_solution("\n".join(lines) + "\n", _INST)


_HAND = "format instance 1\nname x\ntutype t 120 80 130 1000\nbox b1 10 10 10 5 0 0 1\n"


@pytest.mark.parametrize("text, message", [
    (_HAND.replace("0 0 1\n", "0 0 1 junk\n"), "line 4: 'box' takes 8 fields, got 9"),
    (_HAND.replace("1000\n", "\n"), "line 3: 'tutype' takes 5 fields, got 4"),
    (_HAND.replace("name x", "name my inst"), "line 2: 'name' takes 1 fields, got 2"),
    (_HAND.replace("format instance 1", "format instance 2"),
     "line 1: expected 'format instance 1', not 'format instance 2'"),
    (_HAND.replace("format instance 1", "format instance"), "line 1: 'format' takes 2 fields"),
    (_HAND + "name y\n", "line 5: second 'name' record"),
    (_HAND + "format instance 1\n", "line 5: second 'format' record"),
    (_HAND.replace("name x", "alpha 1\nalpha 2"), "line 3: second 'alpha' record"),
    (_HAND + "wobble 1 2 3\n", "line 5: instance files hold no 'wobble' records"),
    (_HAND.replace("format instance 1\nname x", "name x\nformat instance 1"),
     "line 1: 'name' record before the 'format instance 1' header"),
], ids=["appended token", "dropped token", "two-token name", "version 2", "no version",
        "second name", "second header", "second alpha", "unknown record", "header not first"])
def test_instance_record_of_the_wrong_shape_names_its_line(text, message):
    """Each record holds its tag's field count, the header reads ``format
    instance 1``, and a single-valued record appears once: before, an extra
    token was ignored, any version was read, and the last ``name`` won."""
    with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
        parse_instance(text)


@pytest.mark.parametrize("extra", ["fitness 1.0", "instance hx", "format solution 1"])
def test_second_single_valued_solution_record_names_its_line(extra):
    """A solution with two ``fitness`` lines was validated against the last."""
    lines = _VALID["solution"].splitlines()
    lines.insert(3, extra)
    with pytest.raises(FormatError, match=rf"^line 4: second '{extra.split()[0]}' record"):
        parse_solution("\n".join(lines) + "\n", _INST)


def test_catalog_holds_only_tutype_records_of_five_fields():
    with pytest.raises(FormatError, match="^line 2: catalog files hold no 'box' records"):
        parse_catalog("tutype t 120 80 130 1000\nbox b1 10 10 10 5 0 0 1\n")
    with pytest.raises(FormatError, match="^line 1: 'tutype' takes 5 fields, got 6"):
        parse_catalog("tutype t 120 80 130 1000 9\n")


@pytest.mark.parametrize("field, value", [
    ("name", "my inst"), ("name", ""), ("name", "a#1"), ("type_id", "A B"),
    ("type_id", ""), ("box_id", "a#1"), ("box_id", "b\t1"), ("box_id", "b\n1"),
])
def test_writers_refuse_names_and_ids_their_readers_reject(field, value):
    """``Instance("my inst", ...)`` read back as ``my``, and box id ``a#1``
    made tupack's own file fail to parse."""
    ids = {"name": "x", "type_id": "t", "box_id": "b1", field: value}
    tut = TuType(ids["type_id"], 120, 80, 130, 1000)
    box = BoxSpec(ids["box_id"], 10, 10, 10, 5)
    inst = Instance(ids["name"], [box], [tut])
    tu = LoadedTu(tut)
    tu.add(Placement(box, "wlh", 10, 10, 10, 0, 0, 0))
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        dump_instance(inst)
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        dump_solution(Solution([tu]), inst.name, inst.objective)

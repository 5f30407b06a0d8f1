from __future__ import annotations

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import tupack
from tupack.cli import _params, build_parser, main
from tupack.fileio import read_instance, read_solution, write_instance, write_solution
from tupack.geometry import center_of_gravity
from tupack.packer import CostParams, SortParams
from tupack.render import render_tu_svg
from tupack.search import SearchParams


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    rc = run_cli(
        "generate", "--demand", "1,400", "--demand", "2,900",
        "--scheme", "3", "--seed", "5", "--out", tmp_path / "inst",
    )
    assert rc == 0
    return tmp_path


def test_generate_writes_instances_and_references(workspace):
    files = sorted((workspace / "inst").iterdir())
    names = [f.name for f in files]
    assert names == [
        "gen001_s3.inst.txt", "gen001_s3.ref.txt",
        "gen002_s3.inst.txt", "gen002_s3.ref.txt",
    ]


def test_generate_is_idempotent(workspace, tmp_path):
    rc = run_cli(
        "generate", "--demand", "1,400", "--demand", "2,900",
        "--scheme", "3", "--seed", "5", "--out", tmp_path / "again",
    )
    assert rc == 0
    for name in ("gen001_s3.inst.txt", "gen002_s3.ref.txt"):
        a = (workspace / "inst" / name).read_bytes()
        b = (tmp_path / "again" / name).read_bytes()
        assert a == b


def test_generate_empty_demand(tmp_path):
    rc = run_cli("generate", "--demand", "0,0", "--scheme", "1", "--out", tmp_path)
    assert rc == 0
    inst = read_instance(tmp_path / "gen001_s1.inst.txt")
    assert inst.boxes == []


def test_solve_validate_pipeline(workspace):
    inst_path = workspace / "inst" / "gen002_s3.inst.txt"
    sol_path = workspace / "gen002_s3.sol.txt"
    assert run_cli("solve", inst_path, "--out", sol_path, "--seed", "3") == 0
    assert sol_path.exists()
    assert run_cli("validate", inst_path, sol_path) == 0


def test_validate_catches_corruption(workspace, capsys):
    inst_path = workspace / "inst" / "gen001_s3.inst.txt"
    ref_path = workspace / "inst" / "gen001_s3.ref.txt"
    text = ref_path.read_text()
    # shift one placement into the body of its neighbor
    corrupted = re.sub(
        r"placement 0 (\S+) (\S+) (\S+) 0 0 0",
        r"placement 0 \1 \2 \3 15 30 0",
        text, count=1,
    )
    bad = workspace / "bad.sol.txt"
    bad.write_text(corrupted)
    rc = run_cli("validate", inst_path, bad)
    assert rc == 1
    out = capsys.readouterr().out
    assert "overlap" in out


def test_validate_catches_missing_box(workspace, capsys):
    inst_path = workspace / "inst" / "gen001_s3.inst.txt"
    ref_path = workspace / "inst" / "gen001_s3.ref.txt"
    lines = ref_path.read_text().strip().splitlines()
    bad = workspace / "short.sol.txt"
    bad.write_text("\n".join(lines[:-1]) + "\n")
    assert run_cli("validate", inst_path, bad) == 1
    assert "not placed" in capsys.readouterr().out


def test_solve_determinism_bytes(workspace):
    inst_path = workspace / "inst" / "gen002_s3.inst.txt"
    a, b = workspace / "a.sol.txt", workspace / "b.sol.txt"
    assert run_cli("solve", inst_path, "--out", a, "--seed", "7") == 0
    assert run_cli("solve", inst_path, "--out", b, "--seed", "7") == 0
    assert a.read_bytes() == b.read_bytes()


def test_batch_reports(workspace):
    out = workspace / "report"
    rc = run_cli(
        "batch", "--instances", workspace / "inst", "--out", out,
        "--omegas", "75,95", "--seed", "1", "--jobs", "2",
    )
    assert rc == 0
    per = (out / "per_instance.csv").read_text().strip().splitlines()
    assert len(per) == 1 + 4  # header + 2 instances x 2 omegas
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0].startswith("omega,instances,n_tu,delta_volume_pct")
    assert len(summary) == 3
    ls = (out / "local_search.csv").read_text().strip().splitlines()
    assert ls[0].startswith("omega,n_improvements_ls1")


def _record_pools(monkeypatch):
    """Replace the batch's process pool with one that maps in-process;
    returns the list of pool sizes asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("tupack.cli.ProcessPoolExecutor", SerialPool)
    return sizes


def _count_solves(monkeypatch):
    """Count the CLI's calls of ``solve``; returns the list they append to."""
    calls = []
    real = tupack.cli.solve

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(tupack.cli, "solve", counted)
    return calls


@pytest.mark.parametrize("names, jobs, pools", [
    (["gen001_s3"], "64", []),  # one task runs in-process, with no pool
    (["gen001_s3", "gen002_s3"], "64", [2]),
])
def test_batch_starts_no_more_workers_than_tasks(workspace, monkeypatch, names, jobs, pools):
    sizes = _record_pools(monkeypatch)
    (workspace / "some").mkdir()
    for name in names:
        (workspace / "some" / f"{name}.inst.txt").write_bytes(
            (workspace / "inst" / f"{name}.inst.txt").read_bytes())
    rc = run_cli("batch", "--instances", workspace / "some", "--out", workspace / "r",
                 "--omegas", "95", "--jobs", jobs)
    assert rc == 0
    assert sizes == pools
    assert len((workspace / "r" / "per_instance.csv").read_text().splitlines()) == 1 + len(names)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("line, flags", [
    ("alpha -1", ()),
    ("theta 10000", ("--alpha", "1e9")),  # alpha*theta above the limit with this file only
], ids=["malformed file", "flag out of range with it"])
def test_batch_checks_every_instance_before_the_first_solve(workspace, monkeypatch, capsys,
                                                            jobs, line, flags):
    """An instance sorted after the good ones that fails, alone or with a
    flag, stops the batch before any solve and before any pool starts: one
    error line, exit 2, and no report directory."""
    some = workspace / "some"
    some.mkdir()
    for src in (workspace / "inst").glob("*.inst.txt"):
        (some / src.name).write_bytes(src.read_bytes())
    text = (some / "gen001_s3.inst.txt").read_text()
    text, n = re.subn(rf"^{line.split()[0]} .*$", line, text, count=1, flags=re.M)
    assert n == 1
    (some / "zz_last.inst.txt").write_text(text)
    solves, pools = _count_solves(monkeypatch), _record_pools(monkeypatch)
    out = workspace / "r"
    rc = run_cli("batch", "--instances", some, "--out", out, "--omegas", "75,95",
                 "--jobs", jobs, *flags)
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert solves == [] and pools == []
    assert not out.exists()


def test_batch_out_that_cannot_be_made_exits_1_before_any_solve(workspace, monkeypatch,
                                                                capsys):
    solves = _count_solves(monkeypatch)
    out = workspace / "taken"
    out.write_text("a file, not a directory\n")
    rc = run_cli("batch", "--instances", workspace / "inst", "--out", out, "--omegas", "95")
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert solves == []
    assert out.read_text() == "a file, not a directory\n"


def test_bare_solve_parses_to_the_solver_defaults(workspace):
    inst_path = workspace / "inst" / "gen001_s3.inst.txt"
    inst = read_instance(inst_path)
    args = build_parser().parse_args(["solve", str(inst_path)])
    assert _params(args, inst) == (inst.objective, CostParams(), SortParams(), SearchParams())


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_batch_without_workers_exits_2(workspace, capsys, jobs):
    out = workspace / "report"
    rc = run_cli("batch", "--instances", workspace / "inst", "--out", out, "--jobs", jobs)
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: bad --jobs {jobs}") and "\n" not in err
    assert not out.exists()


def _solve_dropping_a_box(*args):
    from tupack.search import solve

    sol = solve(*args)
    sol.tus[0].remove_at(0)
    return sol


def test_batch_fails_on_a_broken_partition(workspace, monkeypatch, capsys):
    import tupack.cli

    monkeypatch.setattr(tupack.cli, "solve", _solve_dropping_a_box)
    rc = run_cli("batch", "--instances", workspace / "inst", "--out", workspace / "r",
                 "--omegas", "95", "--seed", "1")
    assert rc == 1
    assert "1 violations" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_reports_a_failed_solve_and_goes_on(workspace, capsys, jobs):
    """A box that fits no TU type fails its instance's solve, in-process or
    in a worker: the batch prints one line for it, reports the instance
    that solved and exits 1."""
    some = workspace / "some"
    some.mkdir()
    good = (workspace / "inst" / "gen001_s3.inst.txt").read_text()
    (some / "a.inst.txt").write_text(good)
    (some / "b.inst.txt").write_text(good.replace("name gen001_s3", "name big")
                                     + "box big1 500 500 500 1 0 0 1\n")
    out = workspace / "r"
    rc = run_cli("batch", "--instances", some, "--out", out, "--omegas", "95", "--jobs", jobs)
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"{some / 'b.inst.txt'} omega=95.0: solve failed: box 'big1' fits no "
                   "available transport unit type"]
    per = (out / "per_instance.csv").read_text().splitlines()
    assert len(per) == 2 and per[1].startswith("gen001_s3,")
    assert (out / "summary.csv").read_text().splitlines()[1].startswith("95.0,1,")


def test_batch_summaries_keep_the_omega_whose_solves_all_failed(workspace, monkeypatch):
    import tupack.cli

    def no_solve(*args):
        raise RuntimeError("no solve")

    monkeypatch.setattr(tupack.cli, "solve", no_solve)
    out = workspace / "r"
    assert run_cli("batch", "--instances", workspace / "inst", "--out", out,
                   "--omegas", "75,95") == 1
    assert (out / "per_instance.csv").read_text().splitlines()[1:] == []
    for name in ("summary.csv", "local_search.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["75.0", "95.0"]


def test_solve_writes_no_invalid_solution(workspace, monkeypatch, capsys):
    import tupack.cli

    monkeypatch.setattr(tupack.cli, "solve", _solve_dropping_a_box)
    out = workspace / "x.sol.txt"
    assert run_cli("solve", workspace / "inst" / "gen002_s3.inst.txt", "--out", out) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("solve failed:") and "\n" not in err
    assert not out.exists()


def test_validate_catches_fitness_tampering(workspace):
    inst_path = workspace / "inst" / "gen001_s3.inst.txt"
    ref_path = workspace / "inst" / "gen001_s3.ref.txt"
    text = ref_path.read_text()
    tampered = re.sub(r"fitness \S+", "fitness 1.0", text)
    bad = workspace / "tampered.sol.txt"
    bad.write_text(tampered)
    assert run_cli("validate", inst_path, bad) == 1


def test_generate_respects_catalog_env(tmp_path, monkeypatch):
    cat = tmp_path / "cat.txt"
    cat.write_text("tutype 100x100x100 100 100 100 500\n")
    monkeypatch.setenv("TUPACK_CATALOG", str(cat))
    assert run_cli("generate", "--demand", "0.9,200", "--scheme", "1",
                   "--out", tmp_path / "g") == 0
    inst = read_instance(tmp_path / "g" / "gen001_s1.inst.txt")
    assert [t.id for t in inst.catalog] == ["100x100x100"]
    assert inst.lower_bound.counts == (1,)


def test_generate_builtin_writes_100_instances(tmp_path):
    rc = run_cli("generate", "--builtin", "--scheme", "3", "--seed", "1",
                 "--out", tmp_path / "all")
    assert rc == 0
    files = list((tmp_path / "all").glob("*.inst.txt"))
    assert len(files) == 100
    assert len(list((tmp_path / "all").glob("*.ref.txt"))) == 100


def test_batch_omega95_reduces_tu_count_on_perfect_partitions(tmp_path):
    # big-pallet demands: the low threshold leaves the first packing alone,
    # the high one lets the rebuild adopt the right type
    rc = run_cli(
        "generate", "--demand", "1.872,400", "--demand", "2.304,500",
        "--demand", "3.744,800", "--scheme", "3", "--out", tmp_path / "i",
    )
    assert rc == 0
    out = tmp_path / "r"
    assert run_cli("batch", "--instances", tmp_path / "i", "--out", out,
                   "--omegas", "75,95", "--seed", "4") == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    n_tu = header.index("n_tu")
    by_omega = {float(l.split(",")[0]): float(l.split(",")[n_tu]) for l in lines[1:]}
    assert by_omega[95.0] < by_omega[75.0]


def test_batch_single_instance_aggregates_equal_row(tmp_path):
    run_cli("generate", "--demand", "1,300", "--scheme", "3", "--out", tmp_path / "i")
    out = tmp_path / "r"
    assert run_cli("batch", "--instances", tmp_path / "i", "--out", out,
                   "--omegas", "95", "--seed", "2") == 0
    per = (out / "per_instance.csv").read_text().strip().splitlines()
    summary = (out / "summary.csv").read_text().strip().splitlines()
    n_tu_per = per[1].split(",")[2]
    n_tu_sum = summary[1].split(",")[2]
    assert float(n_tu_per) == float(n_tu_sum)


def test_render_worked_example(tmp_path, worked_example_tu):
    svg = render_tu_svg(worked_example_tu, title="TU 0")
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    rects = root.findall(f".//{ns}rect")
    # three view frames plus six boxes per view
    assert len(rects) == 3 + 3 * 6
    circles = root.findall(f".//{ns}circle")
    assert len(circles) == 3
    cg = center_of_gravity(worked_example_tu).cg
    # the XY view draws the CG marker at its (x, y) projection (0.1 cm grid)
    xy_circle = circles[0]
    assert float(xy_circle.get("cx")) == pytest.approx(14 + cg[0], abs=0.05)
    caption = [t.text for t in root.findall(f"{ns}text")][-1]
    assert "fill" in caption


def test_render_escapes_the_tu_type_id():
    """A TU-type id is any token without ``#``, so ``A&B<1>`` is one; its
    caption made the SVG malformed XML."""
    from tupack.geometry import BoxSpec, LoadedTu, Placement, TuType

    tu = LoadedTu(TuType("A&B<1>", 120, 80, 130, 1000))
    tu.add(Placement(BoxSpec("b1", 10, 10, 10, 5), "wlh", 10, 10, 10, 0, 0, 0))
    root = ET.fromstring(render_tu_svg(tu, title="TU 0"))
    caption = root.findall("{http://www.w3.org/2000/svg}text")[-1].text
    assert caption.startswith("TU 0 A&B<1>: 1 boxes")


def test_render_cli_outputs_one_svg_per_tu(workspace):
    inst_path = workspace / "inst" / "gen002_s3.inst.txt"
    ref_path = workspace / "inst" / "gen002_s3.ref.txt"
    out = workspace / "svg"
    assert run_cli("render", inst_path, ref_path, "--out", out) == 0
    inst = read_instance(inst_path)
    sol, _, _ = read_solution(ref_path, inst)
    assert len(list(out.glob("*.svg"))) == len(sol.tus)


def test_render_empty_solution(tmp_path):
    run_cli("generate", "--demand", "0,0", "--scheme", "1", "--out", tmp_path / "i")
    out = tmp_path / "svg"
    rc = run_cli("render", tmp_path / "i" / "gen001_s1.inst.txt",
                 tmp_path / "i" / "gen001_s1.ref.txt", "--out", out)
    assert rc == 0
    assert list(out.glob("*.svg")) == []


def test_compare_solution_with_itself(workspace, capsys):
    inst_path = workspace / "inst" / "gen001_s3.inst.txt"
    ref_path = workspace / "inst" / "gen001_s3.ref.txt"
    assert run_cli("compare", inst_path, ref_path, ref_path) == 0
    out = capsys.readouterr().out
    assert "delta_volume_pct,0.00,0.00" in out


def test_compare_solver_vs_reference_nonnegative_delta(workspace, capsys):
    inst_path = workspace / "inst" / "gen002_s3.inst.txt"
    ref_path = workspace / "inst" / "gen002_s3.ref.txt"
    sol_path = workspace / "cmp.sol.txt"
    run_cli("solve", inst_path, "--out", sol_path, "--seed", "1")
    assert run_cli("compare", inst_path, ref_path, sol_path) == 0
    out = capsys.readouterr().out
    delta = float(out.splitlines()[3].split(",")[2])
    assert delta >= 0.0


def test_compare_instance_mismatch(workspace, tmp_path):
    run_cli("generate", "--demand", "1,100", "--scheme", "1", "--out", tmp_path / "other")
    rc = run_cli(
        "compare",
        workspace / "inst" / "gen001_s3.inst.txt",
        workspace / "inst" / "gen001_s3.ref.txt",
        tmp_path / "other" / "gen001_s1.ref.txt",
    )
    assert rc == 1


@pytest.mark.parametrize("command", ["validate", "render", "compare"])
def test_a_solution_of_another_instance_exits_1_naming_its_file(workspace, tmp_path, capsys,
                                                                  command):
    """Its boxes are unknown to the instance, but the ``instance`` record is
    read first, so every command reports the other instance, not a box."""
    run_cli("generate", "--demand", "1,100", "--scheme", "1", "--out", tmp_path / "other")
    other = tmp_path / "other" / "gen001_s1.ref.txt"
    files = {"validate": [other], "render": [other, "--out", tmp_path / "svg"],
             "compare": [workspace / "inst" / "gen001_s3.ref.txt", other]}[command]
    capsys.readouterr()
    assert run_cli(command, workspace / "inst" / "gen001_s3.inst.txt", *files) == 1
    err = capsys.readouterr().err
    assert err == f"error: {other}: line 2: solution of instance 'gen001_s1', not 'gen001_s3'\n"


def test_compare_names_the_malformed_solution(workspace, tmp_path, capsys):
    argv = _validate_with_fitness("nan", "compare")(workspace, tmp_path)
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'bad.sol.txt'}: line 3:")


def test_two_hand_built_layouts_volume_comparison(tmp_path):
    # twelve 60x40x60 boxes: one tall single-TU layout vs two low TUs
    from tupack.generator import Instance
    from tupack.geometry import (
        BoxSpec, LoadedTu, ObjectiveParams, Placement, Solution, TuType,
    )

    tall_type = TuType("120x80x290", 120, 80, 290, 1000)
    low_type = TuType("120x80x160", 120, 80, 160, 1000)
    boxes = [BoxSpec(f"b{i}", 60, 40, 60, 10) for i in range(12)]
    inst = Instance("hand", boxes, [low_type, tall_type], ObjectiveParams())

    def fill(tu, ids, zs):
        for k, bid in enumerate(ids):
            x, y = (k % 2) * 60, ((k // 2) % 2) * 40
            box = boxes[bid]
            tu.add(Placement(box, "wlh", 60, 40, 60, x, y, zs[k // 4]))

    tall = LoadedTu(tall_type)
    fill(tall, range(12), [0, 60, 120])
    low_a, low_b = LoadedTu(low_type), LoadedTu(low_type)
    fill(low_a, range(8), [0, 60])
    fill(low_b, range(8, 12), [0])
    sol_one = Solution([tall])
    sol_two = Solution([low_a, low_b])
    write_instance(tmp_path / "hand.inst.txt", inst)
    write_solution(tmp_path / "one.sol.txt", sol_one, inst)
    write_solution(tmp_path / "two.sol.txt", sol_two, inst)
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = run_cli("compare", tmp_path / "hand.inst.txt",
                     tmp_path / "one.sol.txt", tmp_path / "two.sol.txt")
    assert rc == 0
    lines = buf.getvalue().splitlines()
    vols = lines[2].split(",")
    assert vols[1] == "2784" and vols[2] == "3072"


def test_solve_rejects_duplicate_box_ids(workspace, tmp_path, capsys):
    text = (workspace / "inst" / "gen001_s3.inst.txt").read_text()
    ids = re.findall(r"^box (\S+)", text, flags=re.M)
    dup = tmp_path / "dup.inst.txt"
    dup.write_text(re.sub(rf"^box {ids[1]} ", f"box {ids[0]} ", text, flags=re.M))
    out = tmp_path / "dup.sol.txt"
    assert run_cli("solve", dup, "--out", out) == 2
    err = capsys.readouterr().err.strip()
    assert err.endswith(f"duplicate box id {ids[0]!r}") and "\n" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, pattern, repl, after", [
    ("solve", r"^(box .*)$", r"\1 junk", 0),
    ("solve", r"^format instance 1$", "format instance 2", 0),
    ("solve", r"^(name .*)$", r"\1\nname other", 1),
    ("validate", r"^(fitness .*)$", r"\1\n\1", 1),
    ("compare", r"^format solution 1$", "format solution 1\nformat solution 1", 1),
    ("solve", r"^format instance 1\n(name .*)$", r"\1\nformat instance 1", 0),
    ("validate", r"^format solution 1\n(instance .*)$", r"\1\nformat solution 1", 0),
    ("validate", r"^placement 0 ", "placement -1 ", 0),
    ("validate", r"^placement 0 (?=.*\n\Z)", "placement 2 ", 0),
    ("validate", r"^placement 0 ", "placement 1 ", 0),
], ids=["appended token", "version 2", "second name", "second fitness", "second header",
        "instance header not first", "solution header not first", "negative TU index",
        "TU index that skips a TU", "TU 1 before TU 0"])
def test_record_of_the_wrong_shape_exits_2_naming_file_and_line(workspace, tmp_path, capsys,
                                                                command, pattern, repl, after):
    """Each strict-record check is one ``error: PATH: line N: ...`` line,
    exit 2, and no output; the bad record is ``after`` lines below the
    edited one."""
    inst = workspace / "inst" / "gen001_s3.inst.txt"
    ref = workspace / "inst" / "gen001_s3.ref.txt"
    source = inst if command == "solve" else ref
    text = source.read_text()
    ln = text[:re.search(pattern, text, flags=re.M).start()].count("\n") + 1 + after
    text = re.sub(pattern, repl, text, count=1, flags=re.M)
    bad = tmp_path / ("bad.inst.txt" if command == "solve" else "bad.sol.txt")
    bad.write_text(text)
    files = {"solve": [bad, "--out", tmp_path / "x.sol.txt"], "validate": [inst, bad],
             "compare": [inst, ref, bad]}[command]
    capsys.readouterr()
    assert run_cli(command, *files) == 2
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(rf"error: {re.escape(str(bad))}: line {ln}: [^\n]+\n", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["inst", bad.name])


@pytest.mark.parametrize("flags", [
    ("--omega", "120"), ("--gamma", "-1"), ("--micro-repeats", "0"),
    ("--micro-repeats", "1001"), ("--sort-n", "0"), ("--cost-m", "20000"), ("--alpha", "-1"),
])
def test_solve_out_of_range_parameter_exits_2(workspace, tmp_path, capsys, flags):
    inst_path = workspace / "inst" / "gen001_s3.inst.txt"
    assert run_cli("solve", inst_path, "--out", tmp_path / "x.sol.txt", *flags) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: bad parameter:") and "\n" not in err


def test_generate_bad_bounds_exits_2(tmp_path, capsys):
    rc = run_cli("generate", "--demand", "1,100", "--scheme", "1", "--bounds", "50,10",
                 "--out", tmp_path)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad --bounds")


def _edited_instance(pattern, repl):
    """``solve`` on a copy of a generated instance with one record edited."""
    def argv(workspace, tmp_path):
        text = (workspace / "inst" / "gen001_s3.inst.txt").read_text()
        text, n = re.subn(pattern, repl, text, count=1, flags=re.M)
        assert n == 1
        (tmp_path / "bad.inst.txt").write_text(text)
        return ["solve", tmp_path / "bad.inst.txt", "--out", tmp_path / "bad.sol.txt"]
    return argv


def _generate(*flags):
    def argv(workspace, tmp_path):
        return ["generate", "--scheme", "1", *flags, "--out", tmp_path / "gen"]
    return argv


def _generate_with(*flags):
    return _generate("--demand", "1,100", *flags)


def _generate_from_catalog(text, *flags, demand="1,100"):
    """``generate --demand DEMAND`` with a catalog file holding ``text``."""
    def argv(workspace, tmp_path):
        (tmp_path / "cat.txt").write_text(text)
        return _generate("--demand", demand, "--catalog", tmp_path / "cat.txt",
                         *flags)(workspace, tmp_path)
    return argv


def _solve_with(*flags):
    def argv(workspace, tmp_path):
        return ["solve", workspace / "inst" / "gen001_s3.inst.txt",
                "--out", tmp_path / "x.sol.txt", *flags]
    return argv


def _edited_solution(pattern, repl, command="validate"):
    """``validate`` (or ``render`` or ``compare``, after the reference) on a
    copy of a reference solution with one record edited."""
    def argv(workspace, tmp_path):
        ref = workspace / "inst" / "gen001_s3.ref.txt"
        text, n = re.subn(pattern, repl, ref.read_text(), count=1, flags=re.M)
        assert n == 1
        bad = tmp_path / "bad.sol.txt"
        bad.write_text(text)
        files = {"validate": [bad], "render": [bad, "--out", tmp_path / "svg"],
                 "compare": [ref, bad]}[command]
        return [command, workspace / "inst" / "gen001_s3.inst.txt", *files]
    return argv


def _validate_with_fitness(value, command="validate"):
    return _edited_solution(r"^fitness .*$", f"fitness {value}", command)


def _batch_on_empty_dir(workspace, tmp_path):
    (tmp_path / "empty").mkdir()
    return ["batch", "--instances", tmp_path / "empty", "--out", tmp_path / "r"]


def _batch_with_omegas(omegas):
    return lambda workspace, tmp_path: [
        "batch", "--instances", workspace / "inst", "--out", tmp_path / "r", "--omegas", omegas]


_MALFORMED = {
    "negative alpha": _edited_instance(r"^alpha .*$", "alpha -1"),
    "NaN beta": _edited_instance(r"^beta .*$", "beta nan"),
    "negative theta": _edited_instance(r"^theta .*$", "theta -5"),
    "negative lb count": _edited_instance(r"^(lb \S+) \d+$", r"\1 -3"),
    "repeated lb record": _edited_instance(r"^(lb .*)$", r"\1\n\1"),
    "infinite theta": _edited_instance(r"^theta .*$", "theta 1e400"),
    "duplicate catalog id": _generate_from_catalog(
        "tutype A 120 80 130 1000\ntutype A 120 120 160 1500\n"),
    "type below carving bounds": _generate_from_catalog("tutype P 10 10 10 900\n"),
    "type below carving bounds, 50 TUs": _generate_from_catalog(
        "tutype P 10 10 10 900\n", demand="0.05,1"),
    "type without perfect partition": _generate_from_catalog(
        "tutype P 100 100 100 900\n", "--scheme", "3"),
    "negative density": _generate_with("--density", "-1"),
    "infinite density": _generate_with("--density", "inf"),
    "negative gen-beta": _generate_with("--gen-beta", "-1"),
    "infinite gen-beta": _generate_with("--gen-beta", "inf"),
    "overflowing density": _generate_with("--density", "1e308"),
    "overflowing gen-beta": _generate_with("--gen-beta", "1e308"),
    "NaN demand volume": _generate("--demand", "nan,100"),
    "infinite demand weight": _generate("--demand", "2,inf"),
    "huge finite demand volume": _generate("--demand", "1e300,100"),
    "huge finite demand weight": _generate("--demand", "1,1e300"),
    "bounds above every type": _generate_with("--bounds", "200,300"),
    "bounds with scheme 3": lambda workspace, tmp_path: [
        "generate", "--scheme", "3", "--demand", "1,100", "--bounds", "30,60",
        "--out", tmp_path / "gen"],
    "nothing to generate": _generate(),
    "NaN cost-theta": _solve_with("--cost-theta", "nan"),
    "NaN cost-lambda": _solve_with("--cost-lambda", "nan"),
    "infinite cost-n": _solve_with("--cost-n", "inf"),
    "huge finite cost-n and cost-m": _solve_with("--cost-n", "1e308", "--cost-m", "1e307"),
    "huge finite cost-lambda": _solve_with("--cost-lambda", "1e308"),
    "huge finite cost-theta": _solve_with("--cost-theta", "1e300"),
    "infinite alpha": _solve_with("--alpha", "inf"),
    "overflowing alpha": _solve_with("--alpha", "1e308"),
    "overflowing beta": _solve_with("--beta", "1e308"),
    "overflowing theta": _solve_with("--theta", "1e308"),
    "alpha*theta above the limit": _solve_with("--alpha", "1e7", "--theta", "1e7"),
    "overflowing alpha line": _edited_instance(r"^alpha .*$", "alpha 1e308"),
    "micro-repeats far above the limit": _solve_with("--micro-repeats", "100000000"),
    "NaN solution fitness": _validate_with_fitness("nan"),
    "negative solution fitness": _validate_with_fitness("-1"),
    "NaN solution fitness in render": _validate_with_fitness("nan", "render"),
    "NaN solution fitness in compare": _validate_with_fitness("nan", "compare"),
    "negative TU index": _edited_solution(r"^placement 0 ", "placement -1 "),
    "TU index that skips a TU": _edited_solution(r"^placement 0 (?=.*\n\Z)", "placement 2 "),
    "TU 1 before TU 0": _edited_solution(r"^placement 0 ", "placement 1 "),
    "solution header not first": _edited_solution(r"^format solution 1\n(instance .*)$",
                                                  r"\1\nformat solution 1"),
    "batch without instances": _batch_on_empty_dir,
    "batch repeated omega": lambda workspace, tmp_path: [
        "batch", "--instances", workspace / "inst", "--out", tmp_path / "r", "--omegas",
        "80,80.0"],
    "batch omega above 100": _batch_with_omegas("150"),
    "batch negative omega": _batch_with_omegas("-5"),
    "batch NaN omega": _batch_with_omegas("nan"),
    "batch infinite alpha, two jobs": lambda workspace, tmp_path: [
        "batch", "--instances", workspace / "inst", "--out", tmp_path / "r", "--alpha", "inf",
        "--jobs", "2"],
    "batch negative gamma, two jobs": lambda workspace, tmp_path: [
        "batch", "--instances", workspace / "inst", "--out", tmp_path / "r", "--omegas", "95",
        "--gamma", "-1", "--jobs", "2"],
}


def _cli_process(argv, timeout):
    """Run the CLI in a child process that is killed after ``timeout`` s,
    so a hang fails the test instead of stalling the suite."""
    src = str(Path(tupack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "tupack.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_input_exits_2_with_one_error_line(workspace, tmp_path, case):
    argv = [str(a) for a in _MALFORMED[case](workspace, tmp_path)]
    paths_before = set(tmp_path.rglob("*"))
    proc = _cli_process(argv, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert set(tmp_path.rglob("*")) == paths_before


def test_huge_sort_cluster_counts_solve(workspace, tmp_path):
    """The insertion-order sort keys each box by its cluster indexes and
    never walks the clusters, so 1e5 x 1e5 weight and base-area clusters
    solve like the defaults."""
    argv = _solve_with("--sort-n", "100000", "--sort-m", "100000")(workspace, tmp_path)
    proc = _cli_process(argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "x.sol.txt").exists()

from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import pytest

from tupack.cli import main
from tupack.fileio import read_instance, read_solution, write_instance, write_solution
from tupack.geometry import center_of_gravity
from tupack.render import render_tu_svg


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


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_batch_without_workers_exits_2(workspace, capsys, jobs):
    out = workspace / "report"
    rc = run_cli("batch", "--instances", workspace / "inst", "--out", out, "--jobs", jobs)
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: bad --jobs {jobs}") and "\n" not in err
    assert not out.exists()


def test_batch_fails_on_a_broken_partition(workspace, monkeypatch, capsys):
    import tupack.cli
    from tupack.search import solve

    def solve_dropping_a_box(*args):
        sol = solve(*args)
        sol.tus[0].remove_at(0)
        return sol

    monkeypatch.setattr(tupack.cli, "solve", solve_dropping_a_box)
    rc = run_cli("batch", "--instances", workspace / "inst", "--out", workspace / "r",
                 "--omegas", "95", "--seed", "1")
    assert rc == 1
    assert "1 violations" in capsys.readouterr().err


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


@pytest.mark.parametrize("flags", [
    ("--omega", "120"), ("--gamma", "-1"), ("--micro-repeats", "0"),
    ("--sort-n", "0"), ("--cost-m", "20000"), ("--alpha", "-1"),
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

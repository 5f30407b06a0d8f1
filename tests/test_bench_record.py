"""The statistics behind a ``BENCH_<pr>.json``: ``scripts/bench_record.py``'s
``quartiles`` and ``summarize`` on hand-built pairs, its entry for a
hand-built run, and its source line count on a hand-built checkout (no git,
no perfbench)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _spec_of(better, bound=0.25):
    return {"end_to_end": [{"name": "m", "unit": "s", "better": better, "bound": bound}]}


def _pairs(*values):
    """One pair per (parent, change) value of the metric ``m``."""
    return [{"parent": {"metrics": {"m": p}}, "change": {"metrics": {"m": c}}}
            for p, c in values]


def test_ties_count_for_neither_side():
    out = bench_record.summarize(_pairs((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (3.0, 3.0)),
                                 _spec_of("lower"))["m"]
    assert (out["wins"], out["losses"], out["ties"]) == (1, 1, 2)


def test_better_higher_flips_a_win():
    pairs = _pairs((1.0, 2.0), (1.0, 3.0), (2.0, 1.0))
    lower = bench_record.summarize(pairs, _spec_of("lower"))["m"]
    higher = bench_record.summarize(pairs, _spec_of("higher"))["m"]
    assert (lower["wins"], lower["losses"], lower["ties"]) == (1, 2, 0)
    assert (higher["wins"], higher["losses"], higher["ties"]) == (2, 1, 0)


@pytest.mark.parametrize("better, change, beyond", [
    ("lower", 1.25, False),   # worse by exactly the bound
    ("lower", 1.26, True),
    ("lower", 0.5, False),    # better by far
    ("higher", 0.75, False),
    ("higher", 0.74, True),
    ("higher", 2.0, False),
])
def test_worse_beyond_bound_only_past_the_bound(better, change, beyond):
    out = bench_record.summarize(_pairs((1.0, change)), _spec_of(better))["m"]
    assert out["worse_beyond_bound"] is beyond


def test_worse_beyond_bound_reads_the_medians():
    # one bad pair out of three does not move the change's median past the bound
    out = bench_record.summarize(_pairs((1.0, 1.0), (1.0, 1.1), (1.0, 9.0)),
                                 _spec_of("lower"))["m"]
    assert out["change"]["median"] == 1.1
    assert out["worse_beyond_bound"] is False


def test_a_single_pair_gives_equal_quartiles():
    assert bench_record.quartiles([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5}
    out = bench_record.summarize(_pairs((2.0, 1.5)), _spec_of("lower"))["m"]
    assert out["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert out["parent_iqr"] == 0.0
    assert out["change_vs_parent_pct"] == pytest.approx(-25.0)


_PARENT = [10.0 + 0.1 * i for i in range(10)]   # median 10.45, IQR 0.45


@pytest.mark.parametrize("better, change, shown", [
    # 9 of 10 pairs won, medians 1.45 apart
    ("lower", [9.0] * 9 + [11.0], True),
    # 8 of 10 pairs won, although the medians are as far apart
    ("lower", [9.0] * 8 + [11.0] * 2, False),
    # 10 of 10 won, but by 0.05 each: inside the parent's IQR
    ("lower", [p - 0.05 for p in _PARENT], False),
    # the same wins count as losses when higher is better
    ("higher", [9.0] * 9 + [11.0], False),
    ("higher", [p + 1.0 for p in _PARENT], True),
])
def test_gain_shown_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_iqr(better, change,
                                                                          shown):
    out = bench_record.summarize(_pairs(*zip(_PARENT, change)), _spec_of(better))["m"]
    assert out["parent_iqr"] == pytest.approx(0.45)
    assert out["gain_shown"] is shown


_WIDE = [1.0, 1.2, 1.4, 1.6, 1.8]   # median 1.4, IQR 0.4 > 0.25 x 1.4


@pytest.mark.parametrize("better, parent, change, unresolved", [
    # the parent's own runs spread wider than the bound: no verdict
    ("lower", _WIDE, _WIDE, True),
    # a spread inside the bound resolves, even against a worse change
    ("lower", [1.0, 1.01, 1.02, 1.03, 1.04], [1.5] * 5, False),
    # every run of the change beats every run of the parent
    ("lower", _WIDE, [0.5, 0.6, 0.7, 0.8, 0.9], False),
    # the same runs lose every pair when higher is better
    ("higher", _WIDE, [0.5, 0.6, 0.7, 0.8, 0.9], True),
    ("higher", _WIDE, [1.9, 2.0, 2.1, 2.2, 2.3], False),
])
def test_unresolved_when_the_parent_spreads_past_the_bound_and_the_change_does_not_dominate(
        better, parent, change, unresolved):
    out = bench_record.summarize(_pairs(*zip(parent, change)), _spec_of(better))["m"]
    assert out["unresolved"] is unresolved


def _runs(*sides):
    """One pair per ((parent fingerprint, failed), (change fingerprint, failed))."""
    return [{side: {"fingerprint": fp, "failed": failed}
             for side, (fp, failed) in zip(("parent", "change"), pair)} for pair in sides]


def test_checks_flag_a_fingerprint_mismatch_and_count_failed_runs():
    same = bench_record.checks(_runs((("a", 0), ("a", 0)), (("a", 0), ("a", 0))))
    assert same == {"fingerprints": {"parent": ["a"], "change": ["a"]},
                    "fingerprints_match": True, "failed_runs": {"parent": 0, "change": 0}}
    other = bench_record.checks(_runs((("a", 0), ("a", 2)), (("a", 0), ("b", 1))))
    assert other["fingerprints"] == {"parent": ["a"], "change": ["a", "b"]}
    assert other["fingerprints_match"] is False
    assert other["failed_runs"] == {"parent": 0, "change": 2}


def test_checks_need_one_fingerprint_on_both_sides():
    # each side repeats itself, but the sides differ; or a side changes between runs
    assert not bench_record.checks(_runs((("a", 0), ("b", 0))))["fingerprints_match"]
    drifting = bench_record.checks(_runs((("a", 0), ("a", 0)), (("b", 3), ("a", 0))))
    assert drifting["fingerprints_match"] is False
    assert drifting["failed_runs"] == {"parent": 1, "change": 0}


def test_source_lines_counts_each_module_of_the_package(tmp_path):
    pkg = tmp_path / "src" / "tupack"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n\n# end\n")
    (pkg / "b.py").write_text("y = 2\nz = 3")   # no newline at the end
    (pkg / "notes.txt").write_text("not counted\n")
    (pkg / "sub" / "c.py").write_text("not counted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("not counted\n")
    assert bench_record.source_lines(tmp_path) == {"files": {"a.py": 3, "b.py": 2}, "total": 5}


def test_run_entry_keeps_the_raw_pass_data():
    """A run's entry keeps each pass's wall time and speed-probe factor next
    to the metrics, so a record can tell a code shift from a probe shift."""
    run = {
        "correct": True, "attempted": 6, "failed": 0,
        "metrics": {"wall_s": {"value": 1.5, "unit": "s"}},
        "record": {"seed": 3, "passes": 2, "fingerprint": "f", "pass_wall_s": [1.4, 1.6],
                   "pass_speed_factors": [0.9, 1.1], "per_instance": [], "git_sha": "x"},
    }
    assert bench_record.run_entry(run) == {
        "seed": 3, "correct": True, "attempted": 6, "failed": 0, "passes": 2,
        "pass_wall_s": [1.4, 1.6], "pass_speed_factors": [0.9, 1.1], "fingerprint": "f",
        "metrics": {"wall_s": 1.5},
    }

"""Tests of the benchmark itself: the tracer's self-time arithmetic and call
-site coverage, determinism of traced and untraced runs, and the agreement of
BENCHMARK.json with the metrics the benchmark prints."""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import subprocess
import sys
import time
import types

import pytest

import run

sys.path.insert(0, str(run.SRC))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402
from tupack.lowerbound import DemandPoint  # noqa: E402

CORE = '''
def inner(clock):
    clock.now += 2.0

def outer(clock):
    clock.now += 1.0
    inner(clock)
    clock.now += 1.0
    inner(clock)
    clock.now += 1.0

class Thing:
    def clone(self, clock):
        clock.now += 0.5
        inner(clock)
'''

CALLER = '''
from fakepkg.core import inner

def call_inner(clock):
    inner(clock)
'''


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _module(name, source, monkeypatch):
    module = types.ModuleType(name)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(source, name, "exec"), module.__dict__)
    return module


def test_self_time_of_nested_calls_and_every_call_site(monkeypatch):
    _module("fakepkg", "", monkeypatch)
    core = _module("fakepkg.core", CORE, monkeypatch)
    caller = _module("fakepkg.caller", CALLER, monkeypatch)
    original_inner, original_clone = core.inner, core.Thing.clone
    clock = FakeClock()
    tracer = Tracer([Target("fakepkg.core", "outer", "outer"),
                     Target("fakepkg.core", "inner", "inner"),
                     Target("fakepkg.core", "Thing.clone", "clone")],
                    package="fakepkg", clock=clock)
    with tracer:
        core.outer(clock)          # 1 + (2) + 1 + (2) + 1
        caller.call_inner(clock)   # the name bound by ``from ... import``
        core.Thing().clone(clock)  # 0.5 + (2)

    outer, inner, clone = (tracer.stats[k] for k in ("outer", "inner", "clone"))
    assert (outer.calls, outer.total_s, outer.self_s) == (1, 7.0, 3.0)
    assert (inner.calls, inner.total_s, inner.self_s) == (4, 8.0, 8.0)
    assert (clone.calls, clone.total_s, clone.self_s) == (1, 2.5, 0.5)
    assert tracer.self_times_from_spans() == {"outer": 3.0, "inner": 8.0, "clone": 0.5}
    assert list(tracer.span_parent) == [-1, 0, 0, -1, -1, 4]
    assert core.inner is original_inner and caller.inner is original_inner
    assert core.Thing.clone is original_clone


def test_exception_closes_the_span(monkeypatch):
    _module("fakepkg", "", monkeypatch)
    core = _module("fakepkg.core", "def boom():\n    raise KeyError('x')\n", monkeypatch)
    tracer = Tracer([Target("fakepkg.core", "boom", "boom")], package="fakepkg")
    with tracer:
        try:
            core.boom()
        except KeyError:
            pass
    assert tracer.stats["boom"].calls == 1
    assert not tracer._stack


# Small and fast: two short solves (one with every move) and two constructions.
def _jobs():
    jobs = [j for j in workloads.build_solve_corpus() if j.name in ("c6_000_s1", "c6_000_s3")]
    jobs += [workloads.ConstructJob("gen059_s1", DemandPoint(1, 949), 1, 59),
             workloads.ConstructJob("gen059_s3", DemandPoint(1, 949), 3, 59)]
    return jobs


def _pass(jobs, tracer=None):
    return workloads.run_pass(jobs, list(reversed(range(len(jobs)))), tracer)


COUNT_STATS = (".calls", ".pairs", "_ratio", ".tus_opened", ".boxes", ".bytes",
               ".eps_max", ".eps_mean")


def _counts(tracer):
    return {k: v for k, (v, _) in layers.layer_metrics(tracer).items()
            if k.endswith(COUNT_STATS)}


def test_traced_and_untraced_runs_agree():
    jobs = _jobs()
    plain = _pass(jobs)
    first, second = Tracer(layers.targets()), Tracer(layers.targets())
    traced = [_pass(jobs, first), _pass(jobs, second)]
    assert plain.failed == 0 and not plain.failures
    for p in traced:
        assert p.texts == plain.texts
        assert p.qualities == plain.qualities
        assert workloads.fingerprint(p.texts) == workloads.fingerprint(plain.texts)
    assert _counts(first) == _counts(second)
    assert _counts(first)["packer.eps_of_layout.calls"] > 0
    assert _counts(first)["generator.generate_instance.boxes"] == _pass(jobs[2:]).boxes


def test_construction_never_calls_eps_of_layout():
    jobs = _jobs()[2:]
    tracer = Tracer(layers.targets())
    assert _pass(jobs, tracer).failed == 0
    counts = _counts(tracer)
    assert counts["packer.eps_of_layout.calls"] == 0
    assert counts["search.ls1.calls"] == 0
    assert counts["packer.update_eps.calls"] > 0
    assert counts["fileio.parse_instance.calls"] == 2


def test_output_check_rejects_a_broken_solution():
    job = _jobs()[0]
    inst, _, text = job.run()
    assert workloads.check_output(inst, text) == []
    lines = text.splitlines(keepends=True)
    placements = [ln for ln in lines if ln.startswith("placement")]
    dropped = "".join(ln for ln in lines if ln != placements[-1])
    assert any("partition" in p for p in workloads.check_output(inst, dropped))
    doubled = text + placements[0]
    assert workloads.check_output(inst, doubled)


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    fake = workloads.PassResult(1.0, [0.5, 0.5], 10)
    fake.scaled = fake.times
    e2e = set(run.end_to_end_metrics([fake], [0.1], 1.0, 30.0)) | set(run.QUALITY_UNITS)
    assert {m["name"] for m in spec["end_to_end"]} == e2e
    per_layer = set(layers.layer_metrics(Tracer(layers.targets()))) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "solve-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


# sha256 of each file of the speed reference; see refpack/__init__.py.
REFPACK_SHA256 = {
    "geometry.py": "0c25b5729adf3393a64917250a392256e0a3cf57b45a0d0c150a40cbbcf98231",
    "lowerbound.py": "ced281f7d2edbf665daf16e59f524f1780b2187bbd83c34a11816ba2fc093fe8",
    "generator.py": "263249ecf2ac5704478d7cb7238cb2460685ec590438cb7f444569fcccff7d13",
    "packer.py": "f1e79c284bfa648c9dd63bf2a343ff6213edb34fb24c8bf3e2e16bd3c5ca70ab",
    "search.py": "61995ccbd48fb60e21e7224d5e2d0402bca60a895c629df435c2e35711a68224",
}


def test_speed_reference_is_frozen():
    found = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in (run.HERE / "refpack").glob("*.py") if p.name != "__init__.py"}
    assert found == REFPACK_SHA256


class ProbedJob:
    """Takes ``seconds`` on the fake clock, with a probe in the middle, as if
    the timer fired there; then raises, so the pass needs no real output."""

    def __init__(self, clock, probe, seconds):
        self.name, self.clock, self.probe, self.seconds = "probed", clock, probe, seconds

    def run(self):
        self.clock.now += self.seconds / 2
        self.probe()
        self.clock.now += self.seconds / 2
        raise RuntimeError("no output")


def _fake_probe(clock, seconds=0.25):
    def solve():
        clock.now += seconds
    return speed.SpeedProbe(solve, clock)


def test_probe_time_is_taken_out_of_the_job():
    clock = FakeClock()
    probe = _fake_probe(clock)
    jobs = [ProbedJob(clock, probe, s) for s in (0.5, 1.5, 0.25)]
    result = workloads.run_pass(jobs, range(len(jobs)), probe=probe)
    assert result.times == [0.5, 1.5, 0.25] and result.wall_s == 2.25
    assert result.scaled == [t * speed.REF_NOMINAL_S / 0.25 for t in result.times]
    assert result.failed == 3
    # one probe before the first job and one inside each job; a slow machine
    # may add timer-driven ones, which take the same 0.25 s
    assert len(result.probe_s) >= 4 and set(result.probe_s) == {0.25}


def test_each_job_is_scaled_by_the_probes_near_it():
    probe = _fake_probe(FakeClock())
    probe.stamps, probe.samples = [0.0, 0.5, 3.0, 3.4, 9.0], [0.1, 0.1, 0.4, 0.4, 0.2]
    spans = [(0.0, 0.1), (3.6, 3.7), (5.0, 6.0)]
    nominal = speed.REF_NOMINAL_S
    # the last job has no probe within 0.5 s: it takes the mean of them all
    assert probe.job_factors(spans, 0) == pytest.approx(
        [nominal / 0.1, nominal / 0.4, nominal / 0.24])
    assert probe.job_factors(spans[1:], 3) == pytest.approx([nominal / 0.4, nominal / 0.3])


class SleepingJob:
    name = "sleeping"

    def run(self):
        time.sleep(0.3)
        raise RuntimeError("no output")


def test_timer_probes_inside_a_long_job(monkeypatch):
    monkeypatch.setattr(workloads, "PROBE_EVERY_S", 0.05)
    handler = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(lambda: None)
    result = workloads.run_pass([SleepingJob()], [0], probe=probe)
    assert len(result.probe_s) >= 3  # the first, then the timer's
    assert 0.25 < result.times[0] < 0.3 + 1.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler

"""Tests of the benchmark's own machinery (run: python3 -m pytest perfbench/tests)."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads
from workloads import Case, Gate, Plan

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _span(name, layer, start, end, parent=None, phase="solve"):
    return tracing.Span(name, layer, start, end, parent, phase)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("root", "functionals", 0.0, 10.0),
        _span("a", "poisson", 1.0, 4.0, parent=0),
        _span("b", "poisson", 3.0, 6.0, parent=0),  # overlaps a: the union is 5
        _span("c", "numerics", 2.0, 3.0, parent=1),
        _span("d", "numerics", 9.5, 12.0, parent=0),  # clipped to the parent
    ]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 2.5])


def test_layer_self_times_and_unattributed_remainder():
    rec = tracing.Recorder()
    rec.spans = [
        _span("functionals.hamiltonian", "functionals", 1.0, 5.0),
        _span("poisson.solve_poisson_radial", "poisson", 2.0, 4.0, parent=0),
        _span("numerics.make_1d_grid", "numerics", 2.5, 3.0, parent=1),
        _span("steady_state.king_model", "steady_state", 0.0, 0.5, phase="setup"),
    ]
    out = tracing.layer_metrics(rec, cases=2, solve_s=6.0, untraced_solve_s=5.5)
    assert out["functionals.self_s"] == pytest.approx(2.0)
    assert out["poisson.self_s"] == pytest.approx(1.5)
    assert out["numerics.self_s"] == pytest.approx(0.5)
    assert out["steady_state.self_s"] == 0.0  # set-up spans are not solve time
    assert out["steady_state.model_build_s"] == pytest.approx(0.5)
    assert out["functionals.hamiltonian_calls"] == 1
    assert out["trace.unattributed_s"] == pytest.approx(2.0)
    assert out["trace.overhead_s"] == pytest.approx(0.5)


def test_model_scoped_builds_follow_the_model():
    rec = tracing.Recorder()
    rec.phase = "solve"
    model = _Model()
    rec.mark_derived(model)
    potential = rec.wrap("steady_state.SteadyStateModel.potential", "steady_state", lambda m: _Model())

    class Jacobian:
        def __init__(self, pot):
            self.pot = pot

    Jacobian.__init__ = rec.wrap("rearrangement.JacobianMap.__init__", "rearrangement", Jacobian.__init__)
    Jacobian(potential(model))  # built from the model's potential: model-scoped
    Jacobian(_Model())  # built from something else: not
    out = tracing.layer_metrics(rec, cases=1, solve_s=1.0, untraced_solve_s=1.0)
    assert out["steady_state.potential_calls"] == 1
    assert out["rearrangement.jacobian_builds"] == 2
    assert out["rearrangement.model_rebuilds_per_case"] == 2


def test_per_layer_metrics_and_workloads_match_benchmark_json():
    declared_workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert declared_workloads <= set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    out = tracing.layer_metrics(tracing.Recorder(), 0, 0.0, 0.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: tracing.unit_of(name) for name in out} == declared


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (10, None), (11, (1, 100.0 / 11)), (100, (90, 90.0)), (1000, (990, 99.0))],
)
def test_tail_rank_leaves_ten_samples_beyond(n, expected):
    got = run.tail_rank(n)
    if expected is None:
        assert got is None
    else:
        assert got[0] == expected[0] and got[1] == pytest.approx(expected[1])
        assert n - got[0] == 10


def test_latency_summary_reports_count_and_support():
    many = run.latency_summary([k / 1e3 for k in range(1, 201)])
    assert many["samples"] == 200
    assert many["p90_supported"]
    assert many["tail_percentile"] == pytest.approx(95.0)
    assert many["tail_ms"] == pytest.approx(190.0)
    assert many["p50_ms"] == pytest.approx(100.5)
    few = run.latency_summary([0.001] * 50)
    assert few["samples"] == 50 and not few["p90_supported"]
    assert run.latency_summary([0.002] * 5).get("tail_ms") is None


class _Model:
    pass


def _fake_setup(runs):
    """A workload whose cases are the given callables."""

    def setup(seed, seconds):
        def make_cases():
            return [Case(f"case{k}", fn, 1) for k, fn in enumerate(runs)]

        return Plan(model=_Model(), spec={"seed": seed}, item="cases", make_cases=make_cases)

    return setup


def _boom():
    raise RuntimeError("injected")


def _main(monkeypatch, tmp_path, capsys, setup, trace):
    monkeypatch.setitem(workloads.WORKLOADS, "lowerbound", setup)
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", "lowerbound", "--seed", "3", "--seconds", "1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_gate_violation_and_exception_count_as_failed(monkeypatch, tmp_path, capsys):
    runs = [
        lambda: ([Gate("slack", 1.0, 0.0, ">=")], 0.01),
        lambda: ([Gate("slack", -1.0, 0.0, ">=")], 0.01),
        _boom,
    ]
    report, result = _main(monkeypatch, tmp_path, capsys, _fake_setup(runs), trace=0)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert report["fail_ratio"] == pytest.approx(2 / 3)
    assert report["gate_margins"]["slack"] == pytest.approx(-1.0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]


def test_gate_margins():
    assert Gate("drift", 2e-4, 1e-3, "<=").margin == pytest.approx(0.8)
    assert Gate("slack", -0.5, -1.0, ">=").margin == pytest.approx(0.5)
    assert Gate("positive", 0.3, 0.0, ">").margin == pytest.approx(0.3)
    assert not Gate("ratio", 1.0, 1.0, "<").ok
    assert not Gate("nan", float("nan"), 1.0, "<=").ok


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_untraced_run_leaves_every_target_unpatched(monkeypatch, tmp_path, capsys):
    import vpstab.evolver  # noqa: F401  (every layer module is loaded)
    import vpstab.spectral  # noqa: F401

    originals = [(owner, attr, original) for _, _, owner, attr, original in tracing.bindings()]
    assert len({name for _, name, *_ in tracing.bindings()}) == len(tracing.TARGETS)
    seen = {}

    def probe():
        seen["same"] = [_current(owner, attr) is original for owner, attr, original in originals]
        return [], 0.0

    _main(monkeypatch, tmp_path, capsys, _fake_setup([probe]), trace=0)
    assert all(seen["same"])

    _main(monkeypatch, tmp_path, capsys, _fake_setup([probe]), trace=1)
    assert not any(seen["same"])
    assert all(_current(owner, attr) is original for owner, attr, original in originals)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_digest_follows_the_seed(name):
    setup = workloads.WORKLOADS[name]

    def digest(seed):
        return run.input_digest(name, setup(seed, 1).spec)

    first = digest(11)
    assert digest(11) == first
    assert digest(12) != first


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

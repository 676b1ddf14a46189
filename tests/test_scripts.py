"""Smoke runs of the scripts under scripts/, each at a small size in a
temporary directory: exit 0 and the files it writes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "script, args, outputs",
    [
        ("run_spectral_report.py", ["--k-max", "1", "--n-eigs", "2"],
         ["spectrum_eigenvalues.csv", "spectrum_report.json"]),
        ("run_stability_sweep.py", ["--t-dyn", "0.1", "--n", "2000", "--etas", "0", "0.01"],
         ["sweep_series.csv", "sweep_summary.json"]),
        ("source_size.py", [], []),
        ("bench_pairs.py", ["--parent", str(ROOT), "--change", str(ROOT), "--workloads", "spectrum",
                            "--seeds", "1", "--seconds", "1", "--out", "bench.json"], ["bench.json"]),
        ("model_box.py", [], []),
    ],
    ids=["spectral-report", "stability-sweep", "source-size", "bench-pairs", "model-box"],
)
def test_script_runs(script, args, outputs, tmp_path):
    proc = _run(script, args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    for name in outputs:
        if name.endswith(".json"):
            assert json.loads((tmp_path / name).read_text())
        else:
            assert len((tmp_path / name).read_text().splitlines()) > 1
    if script == "source_size.py":
        figures = dict(line.split(": ") for line in proc.stdout.splitlines() if not line.startswith(" "))
        assert int(figures["src lines"]) > 0
        # the option and name counts only fall; a change that raises one says why in CHANGES.md
        assert int(figures["options"]) <= 36 and int(figures["exported names"]) <= 46
        # a fresh import loads neither scipy.interpolate nor scipy.optimize
        assert float(figures["import vpstab peak rss MB"]) > 0
        loaded = figures["import vpstab loads scipy"].split(", ")
        assert "linalg" in loaded and "interpolate" not in loaded and "optimize" not in loaded
    if script == "model_box.py":
        box = json.loads(proc.stdout)
        assert list(box) == [f"king W0={w0}" for w0 in ("0.001", "1", "3", "6", "9", "12")] + [
            f"polytrope q={q}" for q in ("0.5", "1", "2", "3", "3.4", "3.45")]
        # the ROADMAP's model-box table reads 1.000241 for King W0 = 3
        assert f"{box['king W0=3']['virial_2K_over_W']:.6f}" == "1.000241"
        # and `vpstab check --suite spectrum` reads k0_lowest 0.302713 for it
        assert f"{box['king W0=3']['k0_standard_n800']:.6f}" == "0.302713"
    if script == "run_spectral_report.py":
        rows = (tmp_path / outputs[0]).read_text().splitlines()
        assert rows[0] == "k,index,eigenvalue,dirichlet_normalized" and len(rows) == 1 + 2 * 2
    if script == "bench_pairs.py":
        table = json.loads((tmp_path / outputs[0]).read_text())["workloads"]["spectrum"]
        assert table["pairs"] == 1 and table["input_digest_equal"] and table["fail_ratio_max"]["change"] == 0.0
        assert all(table["setup_max_over_min_median"][side] >= 1.0 for side in ("parent", "change"))
        # every run's set-up samples, pooled per side
        pooled = table["setup_s_pooled"]
        assert all(0.0 < pooled[side]["q1"] <= pooled[side]["median"] <= pooled[side]["q3"] for side in ("parent", "change"))
        assert pooled["median_change_over_parent"] > 0.0
        solve = table["metrics"]["solve_s"]
        assert solve["parent"]["iqr"] == 0.0 and solve["change_wins_of_1"] in (0, 1)
        # one pair: the claim holds exactly when the change wins it
        assert solve["claim_rule_met"] == (solve["change_wins_of_1"] == 1)
        assert isinstance(solve["within_bound"], bool)
        # one traced run per side places a change by layer
        layer = table["per_layer"]["spectral.coercivity_s.n800"]
        assert sorted(layer) == ["change", "parent"] and all(value > 0 for value in layer.values())

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
    ],
    ids=["spectral-report", "stability-sweep", "source-size", "bench-pairs"],
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
        assert int(figures["options"]) <= 39 and int(figures["exported names"]) <= 46
        # a fresh import loads neither scipy.interpolate nor scipy.optimize
        assert float(figures["import vpstab peak rss MB"]) > 0
        loaded = figures["import vpstab loads scipy"].split(", ")
        assert "linalg" in loaded and "interpolate" not in loaded and "optimize" not in loaded
    if script == "run_spectral_report.py":
        rows = (tmp_path / outputs[0]).read_text().splitlines()
        assert rows[0] == "k,index,eigenvalue,dirichlet_normalized" and len(rows) == 1 + 2 * 2
    if script == "bench_pairs.py":
        table = json.loads((tmp_path / outputs[0]).read_text())["workloads"]["spectrum"]
        assert table["pairs"] == 1 and table["input_digest_equal"] and table["fail_ratio_max"]["change"] == 0.0
        assert all(table["setup_max_over_min_median"][side] >= 1.0 for side in ("parent", "change"))
        solve = table["metrics"]["solve_s"]
        assert solve["parent"]["iqr"] == 0.0 and solve["change_wins_of_1"] in (0, 1)
        # one pair: the claim holds exactly when the change wins it
        assert solve["claim_rule_met"] == (solve["change_wins_of_1"] == 1)
        assert isinstance(solve["within_bound"], bool)
        # one traced run per side places a change by layer
        layer = table["per_layer"]["spectral.coercivity_s.n800"]
        assert sorted(layer) == ["change", "parent"] and all(value > 0 for value in layer.values())

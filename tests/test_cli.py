import json
import re
import time

import numpy as np
import pytest

from vpstab.cli import main


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "king.json"
    code = main(["build", "--kind", "king", "--w0", "3", "--n-r", "400", "--out", str(path)])
    assert code == 0
    return path


def test_build_king_model(model_file):
    with open(model_file) as fh:
        doc = json.load(fh)
    assert doc["kind"] == "king"
    assert doc["e0"] < 0
    assert doc["config_digest"]
    assert (model_file.parent / (model_file.name + ".config.json")).exists()


def test_build_polytrope_reports_compact_support(tmp_path, capsys):
    out = tmp_path / "poly.json"
    code = main(["build", "--kind", "polytrope", "--q", "1", "--out", str(out)])
    assert code == 0
    assert "compact support" in capsys.readouterr().out
    with open(out) as fh:
        assert json.load(fh)["R_Q"] > 0


def test_build_reports_the_virial_ratio(tmp_path, capsys):
    # a steady state has 2K = W; King W0 = 3 is resolved on the default grid
    code = main(["build", "--kind", "king", "--w0", "3", "--out", str(tmp_path / "king.json")])
    assert code == 0
    ratio = float(re.search(r"2K/W=(\S+)", capsys.readouterr().out).group(1))
    assert abs(ratio - 1.0) <= 1e-3


def test_build_invalid_exponent_exits_2(tmp_path, capsys):
    code = main(["build", "--kind", "polytrope", "--q", "4", "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "7/2" in capsys.readouterr().err


def test_missing_model_exits_2(tmp_path):
    code = main(["evolve", "--model", str(tmp_path / "nope.json"), "--eta", "0",
                 "--t-dyn", "1", "--n", "1000", "--out-prefix", str(tmp_path / "r")])
    assert code == 2


def test_check_fixedpoint(model_file, tmp_path):
    out = tmp_path / "fp.json"
    code = main(["check", "--model", str(model_file), "--suite", "fixedpoint",
                 "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["passed"]
    assert doc["report"]["l1_error"] <= 1e-3


def test_check_monotonicity(model_file, tmp_path):
    out = tmp_path / "mono.json"
    code = main(["check", "--model", str(model_file), "--suite", "monotonicity",
                 "--seeds", "12", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["report"]["violations"] == 0


def test_check_spectrum(model_file, tmp_path, dirichlet_solves):
    out = tmp_path / "spec.json"
    code = main(["check", "--model", str(model_file), "--suite", "spectrum", "--out", str(out)])
    assert code == 0
    # three sectors on each rung of the ladder, none for the sector spectra
    assert sorted(dirichlet_solves) == [(n, k) for n in (800, 1600, 3200) for k in (0, 1, 2)]
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["report"]["c0"] > 0
    assert abs(doc["report"]["k1_lowest"]) <= 1e-3 * doc["report"]["V_max"]
    ladder = doc["report"]["ladder"]
    assert ladder["n"] == [800, 1600, 3200]
    assert ladder["c0"][0] == doc["report"]["c0"]
    assert 1.5 <= ladder["order"] <= 2.5
    assert abs(ladder["richardson"] - ladder["c0"][-1]) == pytest.approx(ladder["error_estimate"])
    assert ladder["error_estimate"] <= abs(ladder["c0"][-1] - ladder["c0"][-2])


def test_check_spectrum_report_is_strict_json_when_the_ladder_has_no_order(tmp_path):
    # q = 3.45's ladder is not monotone, so its order and extrapolation are
    # not numbers: the report holds null there, and its k = 1 gate fails
    model, out = tmp_path / "q345.json", tmp_path / "spec.json"
    assert main(["build", "--kind", "polytrope", "--q", "3.45", "--out", str(model)]) == 0
    assert main(["check", "--model", str(model), "--suite", "spectrum", "--out", str(out)]) == 1

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert not doc["passed"]
    ladder = doc["report"]["ladder"]
    assert ladder["order"] is None and ladder["richardson"] is None and ladder["error_estimate"] is None
    assert all(c0 > 0 for c0 in ladder["c0"])


def test_evolve_short_run_outputs(model_file, tmp_path):
    prefix = str(tmp_path / "run")
    code = main(["evolve", "--model", str(model_file), "--eta", "0.01",
                 "--t-dyn", "1", "--n", "5000", "--seed", "7", "--out-prefix", prefix])
    assert code == 0
    series = (tmp_path / "run_series.csv").read_text()
    assert series.startswith("# config ")
    header = [line for line in series.splitlines() if not line.startswith("#")][0]
    assert header == "t,hamiltonian,mass,orbital_distance,potential_distance"
    assert (tmp_path / "run_final.ckpt").exists()
    cfg = json.loads((tmp_path / "run_config.json").read_text())
    assert cfg["eta"] == 0.01


def test_evolve_determinism(model_file, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for prefix in (a, b):
        code = main(["evolve", "--model", str(model_file), "--eta", "0.005",
                     "--t-dyn", "0.5", "--n", "2000", "--seed", "3", "--out-prefix", prefix])
        assert code == 0
    sa = (tmp_path / "a_series.csv").read_text()
    sb = (tmp_path / "b_series.csv").read_text()
    assert sa == sb  # byte-identical under a fixed seed


def test_check_taylor(model_file, tmp_path):
    out = tmp_path / "taylor.json"
    code = main(["check", "--model", str(model_file), "--suite", "taylor", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["report"]["relative_mismatch"] <= 0.02


def test_check_hormander(model_file, tmp_path):
    out = tmp_path / "horm.json"
    code = main(["check", "--model", str(model_file), "--suite", "hormander", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["report"]["residual"] <= 1e-4


def test_check_lowerbound(model_file, tmp_path):
    out = tmp_path / "lb.json"
    code = main(["check", "--model", str(model_file), "--suite", "lowerbound",
                 "--seeds", "5", "--n-r-phase", "150", "--n-u-phase", "80", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["report"]["violations"] == 0


def test_rearrange_tables(model_file, tmp_path):
    prefix = str(tmp_path / "tables")
    code = main(["rearrange", "--model", str(model_file), "--out-prefix", prefix,
                 "--n-r-phase", "64", "--n-u-phase", "48"])
    assert code == 0
    for suffix in ("_mu.csv", "_fstar.csv", "_jacobian.csv"):
        assert (tmp_path / ("tables" + suffix)).exists()


def test_shift_on_model_potential(model_file, tmp_path):
    pot_file = tmp_path / "pot.json"
    pot_file.write_text(json.dumps({"use_model_potential": True, "center": [0.05, 0.0, 0.0]}))
    out = tmp_path / "shift.json"
    code = main(["shift", "--model", str(model_file), "--potential", str(pot_file),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert np.linalg.norm(np.array(doc["z"]) - [0.05, 0, 0]) <= 1e-4


def test_config_file_overrides(model_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "fixedpoint", "n_r_phase": 300, "n_u_phase": 150}))
    out = tmp_path / "rep.json"
    code = main(["--config", str(cfg), "check", "--model", str(model_file),
                 "--suite", "fixedpoint", "--out", str(out)])
    assert code == 0
    resolved = json.loads((tmp_path / "rep.json.config.json").read_text())
    assert resolved["n_r_phase"] == 300


def test_shift_on_tabulated_potential(model_file, tmp_path):
    # the exact model potential, serialised as a table and centred off the
    # origin: the recovered shift depends on the tabulated exterior gradient
    from vpstab.steady_state import SteadyStateModel

    model = SteadyStateModel.load(model_file)
    r = np.asarray(model.grid.nodes)
    pot_file = tmp_path / "table.json"
    pot_file.write_text(json.dumps({
        "r": r.tolist(), "phi": model.phi_fn(r).tolist(), "M": model.M, "center": [0.1, 0.0, 0.0],
    }))
    out = tmp_path / "shift.json"
    code = main(["shift", "--model", str(model_file), "--potential", str(pot_file), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert np.linalg.norm(np.array(doc["z"]) - [0.1, 0, 0]) <= 1e-4


def _bad_table(model, entry):
    """A 200-row table of the model's potential with one entry made unusable."""
    r = np.linspace(0.01, 2.0, 200) * model.R_Q
    table = {"r": r.tolist(), "phi": model.phi_fn(r).tolist(), "M": model.M, "center": [0.01, 0.0, 0.0]}
    if entry == "phi":
        table["phi"][57] = float("nan")
    elif entry == "phi objects":
        table["phi"] = [{"a": 1}] * r.size
    elif entry == "r string":
        table["r"] = "abc"
    elif entry == "center":
        table["center"] = [0.01, 0.0]
    elif entry == "M object":
        table["M"] = {"x": 1}
    else:
        table["M"] = {"M nan": float("nan"), "M negative": -1.0, "M zero": 0.0}[entry]
    return table


@pytest.mark.parametrize("entry", ["phi", "phi objects", "r string", "M nan", "M negative", "M zero", "M object", "center"])
def test_shift_rejects_an_unusable_table_naming_the_entry(model_file, tmp_path, capsys, entry):
    # before, a NaN in phi or M printed NaN residuals and exited 0, M = -1
    # exited 0 with a result, and a 2-number center failed in numpy; an
    # object entry exited 1 with a TypeError traceback, and a string entry
    # exited 2 with numpy's message, which did not name it
    from vpstab.steady_state import SteadyStateModel

    pot_file, out = tmp_path / "table.json", tmp_path / "shift.json"
    pot_file.write_text(json.dumps(_bad_table(SteadyStateModel.load(model_file), entry)))
    assert main(["shift", "--model", str(model_file), "--potential", str(pot_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{entry.split()[0]} must" in err and "Traceback" not in err
    assert not out.exists()


def _scipy_shift_doc(model, table):
    """z and the residuals for a potential table by the scipy form: the
    PchipInterpolator of (r, phi) and its PPoly derivative inside the table,
    the monopole law past it."""
    from scipy.interpolate import PchipInterpolator

    from vpstab.numerics import Grid1D
    from vpstab.poisson import PotentialX, RadialField3D
    from vpstab.spectral import modulation_shift

    r, phi, M = np.asarray(table["r"]), np.asarray(table["phi"]), table["M"]
    interp = PchipInterpolator(r, phi)
    dinterp = interp.derivative()
    grid = Grid1D(nodes=r, edges=np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [r[-1]]]))
    pot = PotentialX.from_callable(
        grid,
        lambda x: np.where(x < r[-1], interp(np.clip(x, r[0], r[-1])), -M / (4 * np.pi * np.clip(x, 1e-300, None))),
        lambda x: np.where(x < r[-1], dinterp(np.clip(x, r[0], r[-1])), M / (4 * np.pi * np.clip(x, 1e-300, None) ** 2)),
        M,
    )
    z, resid = modulation_shift(RadialField3D.of(pot, table["center"]), model)
    return {"z": z.tolist(), "orthogonality_residuals": resid.tolist()}


def test_shift_tables_match_scipys_pchip(model_file, tmp_path):
    # scipy is the oracle: a tabulated potential read through numerics.pchip
    # gives the z and residuals of scipy's PchipInterpolator to the last
    # byte, for the model's own table and for a table of two nodes
    from vpstab.steady_state import SteadyStateModel

    model = SteadyStateModel.load(model_file)
    r = np.asarray(model.grid.nodes)
    tables = {
        "model": {"r": r.tolist(), "phi": model.phi_fn(r).tolist(), "M": model.M, "center": [0.1, 0.0, 0.0]},
        "two nodes": {"r": [0.5, 1.5], "phi": [-1.0, -0.5], "M": 2.0, "center": [0.05, 0.0, 0.0]},
    }
    for name, table in tables.items():
        pot_file, out = tmp_path / f"{name}.json", tmp_path / f"{name}-shift.json"
        pot_file.write_text(json.dumps(table))
        assert main(["shift", "--model", str(model_file), "--potential", str(pot_file), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        want = _scipy_shift_doc(model, table)
        assert json.dumps([doc["z"], doc["orthogonality_residuals"]]) == json.dumps(
            [want["z"], want["orthogonality_residuals"]]), name


def test_check_rebuild_propagates_other_errors(model_file, tmp_path, monkeypatch):
    import vpstab.steady_state

    def broken(*args, **kwargs):
        raise LookupError("not a rebuild failure")

    monkeypatch.setitem(vpstab.steady_state._RECIPES, "king", (broken, ("W0",)))
    with pytest.raises(LookupError):
        main(["check", "--model", str(model_file), "--suite", "fixedpoint", "--out", str(tmp_path / "fp.json")])


def _set_meta(key, value):
    def edit(doc):
        doc["meta"][key] = value

    return edit


def _drop_meta(doc):
    del doc["meta"]


def _scale_phi5(doc):
    doc["phi"][5] *= 1 + 1e-9


def _set(entry, make):
    def edit(doc):
        doc[entry] = make(doc)

    return edit


# each edit with the entry that the error message must name
_EDITS = {
    "w0-negative": ("W0", _set_meta("W0", -1.0)),
    "w0-nan": ("W0", _set_meta("W0", float("nan"))),
    "w0-string": ("W0", _set_meta("W0", "3")),
    "no-meta": ("meta", _drop_meta),
    "phi5-scaled": ("phi", _scale_phi5),
    "r-object": ("r", _set("r", lambda doc: {"x": 1})),
    "r-objects": ("r", _set("r", lambda doc: [{"a": 1}])),
    "r-null": ("r", _set("r", lambda doc: None)),
    "r-empty": ("r", _set("r", lambda doc: [])),
    "r-2d": ("r", _set("r", lambda doc: [doc["r"]])),
    "edges-null": ("edges", _set("edges", lambda doc: None)),
    "edges-empty": ("edges", _set("edges", lambda doc: [])),
    "edges-short": ("edges", _set("edges", lambda doc: doc["edges"][:-1])),
    "kind-list": ("kind", _set("kind", lambda doc: ["king"])),
    "kind-object": ("kind", _set("kind", lambda doc: {"a": 1})),
}


@pytest.mark.parametrize("command", ["check", "evolve", "rearrange"])
@pytest.mark.parametrize("edit", sorted(_EDITS))
def test_edited_model_file_exits_2(edit, command, model_file, tmp_path, capsys):
    # a model file is a recipe checked against its tables: a recipe that does
    # not build, or a table the rebuild does not reproduce, is an input error.
    # Before, an object r or kind and null or empty edges exited 1 with a
    # traceback, and a null, empty or 2-d r or edges of the wrong length
    # exited 2 with numpy's message, which named no entry
    doc = json.loads(model_file.read_text())
    entry, change = _EDITS[edit]
    change(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    argv = {
        "check": ["check", "--model", str(path), "--suite", "fixedpoint", "--out", str(tmp_path / "o.json")],
        "evolve": ["evolve", "--model", str(path), "--eta", "0", "--t-dyn", "0.2", "--n", "2000",
                   "--out-prefix", str(tmp_path / "run")],
        "rearrange": ["rearrange", "--model", str(path), "--out-prefix", str(tmp_path / "tables")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert re.search(rf"error: .*\b{entry}\b", err) and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.json"]


@pytest.mark.parametrize("flags", [["--kind", "king", "--w0", "nan"], ["--kind", "king", "--w0", "inf"],
                                   ["--kind", "polytrope", "--depth", "nan"]],
                         ids=["w0-nan", "w0-inf", "depth-nan"])
def test_build_non_finite_parameter_exits_2(flags, tmp_path):
    out = tmp_path / "m.json"
    start = time.perf_counter()
    assert main(["build", *flags, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 5.0
    assert not out.exists()


@pytest.mark.parametrize("flags, message",
                         [(["--kind", "king", "--w0", w0], "does not converge") for w0 in ("13", "16", "18", "20", "1e3")]
                         + [(["--kind", "polytrope", "--q", "3.49"], "does not converge")]
                         + [(["--kind", "king", "--w0", w0], "below") for w0 in ("1e-6", "1e-9")]
                         + [(["--kind", "polytrope", "--q", "1", "--depth", d], "float range") for d in ("1e-300", "1e300")],
                         ids=["w0-13", "w0-16", "w0-18", "w0-20", "w0-1e3", "q-3.49", "w0-1e-6", "w0-1e-9",
                              "depth-1e-300", "depth-1e300"])
def test_build_unconverged_depth_exits_2(flags, message, tmp_path, capsys):
    # a depth past the range the build handles exits at once: before, a King
    # W0 of 1e-9 ran past 60 s, polytrope depth 1e-300 wrote a model with
    # R_Q = inf, and 1e300 ended in an OverflowError traceback
    out = tmp_path / "m.json"
    start = time.perf_counter()
    assert main(["build", *flags, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        return exc.code


def _bad_config_json(tmp, model):
    (tmp / "cfg.json").write_text("{not json")
    return ["--config", str(tmp / "cfg.json"), "check", "--model", model, "--suite", "fixedpoint"]


def _config_not_an_object(tmp, model):
    (tmp / "cfg.json").write_text("[1, 2]")
    return ["--config", str(tmp / "cfg.json"), "check", "--model", model, "--suite", "fixedpoint"]


def _config_dt_frac_zero(tmp, model):
    (tmp / "cfg.json").write_text(json.dumps({"dt_frac": 0}))
    return ["--config", str(tmp / "cfg.json"), "evolve", "--model", model, "--t-dyn", "0.1", "--n", "1000",
            "--out-prefix", str(tmp / "run")]


def _potential_without_r(tmp, model):
    (tmp / "pot.json").write_text(json.dumps({"phi": [-1.0, -0.5], "M": 1.0}))
    return ["shift", "--model", model, "--potential", str(tmp / "pot.json"), "--out", str(tmp / "o.json")]


def _potential_table(r, phi):
    def argv(tmp, model):
        (tmp / "pot.json").write_text(json.dumps({"r": r, "phi": phi, "M": 1.0}))
        return ["shift", "--model", model, "--potential", str(tmp / "pot.json"), "--out", str(tmp / "o.json")]

    return argv


def _evolve(dt_frac):
    def argv(tmp, model):
        return ["evolve", "--model", model, "--dt-frac", dt_frac, "--t-dyn", "0.1", "--n", "1000",
                "--out-prefix", str(tmp / "run")]

    return argv


def _no_seeds(tmp, model):
    return ["check", "--model", model, "--suite", "monotonicity", "--seeds", "0", "--out", str(tmp / "o.json")]


@pytest.mark.parametrize(
    "make_argv",
    [_bad_config_json, _config_not_an_object, _config_dt_frac_zero,
     _potential_without_r, _potential_table([1.0], [-1.0]), _potential_table([1.0, 0.5, 2.0], [-1.0, -0.8, -0.5]),
     _potential_table([0.5, 1.0], [-1.0, -0.8, -0.5]), _potential_table([0.5, float("inf")], [-1.0, -0.5]),
     _evolve("0"), _evolve("-0.01"), _no_seeds],
    ids=["config-not-json", "config-not-object", "config-dt-frac-zero",
         "potential-without-r", "potential-one-node", "potential-unsorted", "potential-lengths-differ",
         "potential-infinite-r", "dt-frac-zero", "dt-frac-negative", "seeds-zero"],
)
def test_bad_input_exits_2(make_argv, model_file, tmp_path):
    assert _exit_code(make_argv(tmp_path, str(model_file))) == 2
    assert not (tmp_path / "o.json").exists() and not (tmp_path / "run_series.csv").exists()


@pytest.mark.parametrize("version", [1, 2])
def test_check_reads_a_model_file_of_either_version(version, model_file, tmp_path):
    # version 2 writes no `params`; the block of a version-1 file, which
    # repeated e0 and the profile amplitude 1.0, is not read
    doc = json.loads(model_file.read_text())
    assert doc["version"] == 2 and "params" not in doc
    if version == 1:
        doc.update(version=1, params={"e0": doc["e0"], "amplitude": 1.0})
    (tmp_path / "m.json").write_text(json.dumps(doc))
    out = tmp_path / "o.json"
    assert main(["check", "--model", str(tmp_path / "m.json"), "--suite", "fixedpoint", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"]


@pytest.mark.parametrize("command, key, value", [("check", "out", 7), ("check", "out", [1]),
                                                 ("evolve", "out_prefix", {"a": 1}), ("build", "out", None)],
                         ids=["out-number", "out-list", "out-prefix-object", "build-out-null"])
def test_config_value_of_a_path_flag_that_is_not_a_string_exits_2(command, key, value, model_file, tmp_path,
                                                                  capsys, monkeypatch):
    # before, {"out": 7} made check open file descriptor 7 and {"out": [1]}
    # ended in a TypeError: a config value of a flag without a type was used
    # as it came
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
    argv = {
        "check": ["check", "--model", str(model_file), "--suite", "fixedpoint"],
        "evolve": ["evolve", "--model", str(model_file), "--t-dyn", "0.1", "--n", "1000"],
        "build": ["build", "--kind", "king"],
    }[command]
    assert main(["--config", "cfg.json", *argv]) == 2
    err = capsys.readouterr().err
    assert f"config {key} must be a string" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_null_keeps_a_path_flag_whose_default_is_none(model_file, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": None}))
    assert main(["--config", "cfg.json", "check", "--model", str(model_file), "--suite", "fixedpoint"]) == 0
    assert json.loads((tmp_path / "check_fixedpoint.json").read_text())["passed"]


@pytest.mark.parametrize("flag, value", [("--field-average", "0"), ("--field-average", "-2"), ("--eta", "nan")],
                         ids=["field-average-zero", "field-average-negative", "eta-nan"])
def test_evolve_bad_flag_exits_2_naming_it(flag, value, model_file, tmp_path, capsys):
    # before, --field-average 0 failed inside np.bincount after two
    # RuntimeWarnings, and --eta nan ran the unperturbed model
    argv = ["evolve", "--model", str(model_file), flag, value, "--t-dyn", "0.1", "--n", "1000",
            "--out-prefix", str(tmp_path / "run")]
    assert _exit_code(argv) == 2
    err = capsys.readouterr().err
    assert flag.lstrip("-") in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_rearrange_tables_read_back(model_file, tmp_path):
    # every row of every table parses as floats
    prefix = str(tmp_path / "tables")
    assert main(["rearrange", "--model", str(model_file), "--out-prefix", prefix,
                 "--n-r-phase", "64", "--n-u-phase", "48"]) == 0
    for suffix, width in (("_mu.csv", 2), ("_fstar.csv", 2), ("_jacobian.csv", 3)):
        lines = (tmp_path / ("tables" + suffix)).read_text().splitlines()[1:]
        rows = np.array([[float(v) for v in line.split(",")] for line in lines])
        assert rows.shape == (512, width) and np.all(np.isfinite(rows))


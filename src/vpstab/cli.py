"""Command-line entry point.

Subcommands: build, check, evolve, rearrange, shift. Every run writes its
fully resolved configuration (defaults included) next to the outputs, and all
emitted files carry the configuration digest so runs are reproducible byte
for byte under a fixed seed. A model file is read as a recipe: the model is
rebuilt from its kind and parameters on its stored grid, and a file whose
recipe does not build or whose tables differ from the rebuilt model's is an
input error. Exit codes: 0 pass, 1 assertion failure, 2 usage or input
error.
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__


def _load_config(path):
    """The JSON object of a --config file; a ValueError when the file is not
    JSON or holds something else than an object."""
    from .steady_state import _require

    with open(path) as fh:
        return _require(json.load(fh), (), f"config {path}")


def _positive(kind):
    """argparse type: a finite number of the given kind that is > 0."""

    def parse(text):
        value = kind(text)
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"{text} is not a positive finite number")
        return value

    return parse


_PATH_KEYS = {"out", "out_prefix", "model", "potential"}


def _resolved_config(args):
    """The run's flags (those of its subcommand, defaults included) with the
    package version and the schema, and the digest of all but the paths."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "config", "func")}
    cfg["version"] = __version__
    cfg["schema"] = 1
    # the digest covers the run parameters, not where outputs are written
    hashed = {k: v for k, v in cfg.items() if k not in _PATH_KEYS}
    digest = hashlib.sha256(json.dumps(hashed, sort_keys=True).encode()).hexdigest()[:16]
    return cfg, digest


def _emit_config(cfg, digest, path):
    """Write the resolved configuration with its digest."""
    doc = dict(cfg, digest=digest)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def cmd_build(args):
    from .poisson import field_energy
    from .steady_state import recipe_model, support_grid

    cfg, digest = _resolved_config(args)
    model = recipe_model(args.kind, {"W0": args.w0, "q": args.q, "depth": args.depth}, support_grid(args.n_r))
    doc = model.to_json()
    doc["config_digest"] = digest
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    _emit_config(cfg, digest, args.out + ".config.json")
    # the virial theorem gives 2K = W for a steady state; on the grid the
    # ratio shows how well the grid resolves the model
    virial = 2.0 * model.kinetic / field_energy(model.potential())
    print(
        f"built {args.kind}: R_Q={model.R_Q:.6g} M={model.M:.6g} e0={model.e0:.6g} "
        f"H={model.hamiltonian:.6g} 2K/W={virial:.6f} (compact support)"
    )
    return 0


def _check_fixedpoint(model, args):
    from .rearrangement import distribution_function, generalized_rearrangement, schwarz_rearrangement
    from .steady_state import phase_space_density

    f = phase_space_density(model, n_r=args.n_r_phase, n_u=args.n_u_phase)
    fstar = schwarz_rearrangement(distribution_function(f))
    fhat = generalized_rearrangement(fstar, model.rearrangement.jac, f.grid)
    err = fhat.l1_distance(f) / f.mass()
    return {"l1_error": err, "tolerance": 1e-3}, err <= 1e-3

def _check_monotonicity(model, args):
    from .functionals import monotonicity_gaps
    from .perturbations import ensemble

    gaps = []
    violations = 0
    for label, f in ensemble(model, args.seeds, seed=args.seed):
        rep = monotonicity_gaps(f)
        tol = rep.tolerance
        ok = rep.gap1 >= -tol and rep.gap2 >= -tol
        violations += 0 if ok else 1
        gaps.append({"case": label, "gap1": rep.gap1, "gap2": rep.gap2, "tol": tol, "pass": ok})
    return {"cases": gaps, "violations": violations}, violations == 0


def _check_spectrum(model, args):
    import dataclasses

    from .spectral import coercivity_ladder, harmonic_operator_spectrum

    rep1 = harmonic_operator_spectrum(model, 1, n_eigs=2)
    rep0 = harmonic_operator_spectrum(model, 0, n_eigs=2)
    rep2 = harmonic_operator_spectrum(model, 2, n_eigs=2)
    ladder = coercivity_ladder(model)
    c0 = ladder.c0[0]
    vmax = float(model.vq_fn(np.array([0.0]))[0])
    ok = (
        abs(rep1.eigenvalues[0]) <= 1e-3 * vmax
        and rep1.kernel_residual <= 1e-3
        and rep0.eigenvalues[0] > 0
        and rep2.eigenvalues[0] > 0
        and c0 > 0
    )
    return {
        "k1_lowest": float(rep1.eigenvalues[0]),
        "k1_kernel_residual": rep1.kernel_residual,
        "k0_lowest": float(rep0.eigenvalues[0]),
        "k2_lowest": float(rep2.eigenvalues[0]),
        "c0": c0,
        "ladder": dataclasses.asdict(ladder),
        "V_max": vmax,
    }, ok


def _check_taylor(model, args):
    from .spectral import smooth_bump_direction, taylor_remainder

    direction = smooth_bump_direction(model, _seeded_center(args.seed))
    eps = (1e-1, 3e-2, 1e-2, 3e-3)
    rep = taylor_remainder(model, direction, eps)
    rel = abs(rep.hessian_extrapolated - rep.hessian_analytic) / abs(rep.hessian_analytic)
    ok = rel <= 0.02
    return {
        "hessian_analytic": rep.hessian_analytic,
        "hessian_extrapolated": rep.hessian_extrapolated,
        "relative_mismatch": rel,
        "remainders": rep.remainder_over_eps2.tolist(),
        "slopes": rep.first_slope.tolist(),
    }, ok


def _seeded_center(seed):
    rng = np.random.default_rng(seed)
    return float(rng.uniform(0.3, 0.7))


def _check_hormander(model, args):
    from .spectral import hormander_identity_check

    rng = np.random.default_rng(args.seed)
    sample = [
        (r, u)
        for r, u in zip(
            rng.uniform(0.2, 0.8, 12) * model.R_Q,
            rng.uniform(0.2, 0.6, 12) * float(model.u_escape(np.array([0.0]))[0]),
        )
    ]
    res = hormander_identity_check(model, sample)
    res2 = hormander_identity_check(model, sample, step_frac=2e-4)
    return {"residual": res, "residual_2x_step": res2, "order_ratio": res2 / res}, res <= 1e-4


def _check_lowerbound(model, args):
    from .functionals import stability_lower_bound
    from .perturbations import bump_perturbation, padded_phase_density
    from .spectral import coercivity_constant

    c0 = coercivity_constant(model)
    base = padded_phase_density(model, n_r=args.n_r_phase, n_u=args.n_u_phase)
    rng = np.random.default_rng(args.seed)
    rows = []
    fails = 0
    for k in range(args.seeds):
        f = bump_perturbation(base, rng.uniform(0.005, 0.02), rng.integers(2**31))
        rep = stability_lower_bound(f, model, c0, shift=np.zeros(3))
        tol = 1e-2 * max(abs(rep.lhs), abs(rep.rhs), 1e-12)
        ok = rep.slack >= -tol
        fails += 0 if ok else 1
        rows.append({"lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack, "pass": ok})
    return {"c0": c0, "cases": rows, "violations": fails}, fails == 0


_SUITES = {
    "fixedpoint": _check_fixedpoint,
    "monotonicity": _check_monotonicity,
    "spectrum": _check_spectrum,
    "taylor": _check_taylor,
    "hormander": _check_hormander,
    "lowerbound": _check_lowerbound,
}


def cmd_check(args):
    from .steady_state import SteadyStateModel

    cfg, digest = _resolved_config(args)
    model = SteadyStateModel.load(args.model)
    report, passed = _SUITES[args.suite](model, args)
    doc = {
        "suite": args.suite,
        "model": args.model,
        "config_digest": digest,
        "version": __version__,
        "passed": bool(passed),
        "report": report,
    }
    out = args.out or f"check_{args.suite}.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, default=float)
    _emit_config(cfg, digest, out + ".config.json")
    print(f"{args.suite}: {'PASS' if passed else 'FAIL'} (report: {out})")
    return 0 if passed else 1


def cmd_evolve(args):
    from .evolver import conservation_report, evolve, sample_particles
    from .perturbations import calibrated_bump
    from .steady_state import SteadyStateModel

    cfg, digest = _resolved_config(args)
    model = SteadyStateModel.load(args.model)
    f_init, value_fn = calibrated_bump(model, args.eta, args.seed)
    ens = sample_particles(f_init, args.n, seed=args.seed, value_fn=value_fn)
    diag = evolve(
        ens,
        model,
        dt=args.dt_frac * model.dynamical_time,
        t_end=args.t_dyn * model.dynamical_time,
        field_average=args.field_average,
    )
    rep = conservation_report(diag)
    series = args.out_prefix + "_series.csv"
    diag.write_csv(series, header_lines=[f"config {digest}", f"vpstab {__version__}"])
    ens.save(args.out_prefix + "_final.ckpt", time=args.t_dyn * model.dynamical_time)
    _emit_config(cfg, digest, args.out_prefix + "_config.json")
    print(
        f"evolve eta={args.eta}: mass drift {rep.mass_drift:.2e}, "
        f"H drift {rep.hamiltonian_drift:.2e}, max distance {rep.max_orbital:.4g}"
    )
    return 0 if rep.passed else 1


def cmd_rearrange(args):
    from .rearrangement import distribution_function, export_tables, schwarz_rearrangement
    from .steady_state import SteadyStateModel, phase_space_density

    cfg, digest = _resolved_config(args)
    model = SteadyStateModel.load(args.model)
    f = phase_space_density(model, n_r=args.n_r_phase, n_u=args.n_u_phase)
    mu = distribution_function(f)
    fstar = schwarz_rearrangement(mu)
    paths = export_tables(args.out_prefix, mu, fstar, model.rearrangement.jac)
    _emit_config(cfg, digest, args.out_prefix + "_config.json")
    print("wrote " + ", ".join(paths.values()))
    return 0


def _finite_entry(doc, key, where):
    """doc[key] as a float array, InvalidArgumentError unless all finite."""
    from .numerics import InvalidArgumentError

    try:
        values = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):  # an object, a string, a ragged list
        values = np.nan
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError(f"{where}: {key} must hold finite numbers only")
    return values


def _table_potential(doc, where):
    """The PCHIP of a table's phi on r (clamped below r[0]), continued past
    r[-1] by `poisson.monopole_continued` with the table's mass M > 0."""
    from .numerics import Grid1D, InvalidArgumentError, pchip
    from .poisson import PotentialX, monopole_continued
    from .steady_state import _require

    _require(doc, ("r", "phi", "M"), where)
    r, phi, M = (_finite_entry(doc, key, where) for key in ("r", "phi", "M"))
    if r.ndim != 1 or r.size < 2 or phi.shape != r.shape:
        raise InvalidArgumentError("potential table needs finite r and phi lists of one length, at least 2")
    if M.ndim != 0 or not M > 0:
        raise InvalidArgumentError(f"{where}: M must be a positive number")
    edges = np.concatenate([[0.0], 0.5 * (r[1:] + r[:-1]), [r[-1]]])
    grid = Grid1D(nodes=r, edges=edges)  # r positive and strictly increasing
    interp = pchip(r, phi)
    dinterp = interp.derivative()
    clip = lambda x: np.clip(x, r[0], r[-1])
    phi_fn, dphi_fn = monopole_continued(r[-1], float(M), lambda x: interp(clip(x)), lambda x: dinterp(clip(x)))
    return PotentialX.from_callable(grid, phi_fn, dphi_fn, float(M))


def cmd_shift(args):
    from .numerics import InvalidArgumentError
    from .poisson import RadialField3D
    from .spectral import modulation_shift
    from .steady_state import SteadyStateModel, _require

    cfg, digest = _resolved_config(args)
    model = SteadyStateModel.load(args.model)
    where = f"potential file {args.potential}"
    with open(args.potential) as fh:
        doc = _require(json.load(fh), (), where)
    center = _finite_entry(doc, "center", where) if "center" in doc else np.zeros(3)
    if center.shape != (3,):
        raise InvalidArgumentError(f"{where}: center must be 3 finite numbers")
    pot = model.potential() if doc.get("use_model_potential") else _table_potential(doc, where)
    field = RadialField3D.of(pot, center)
    z, resid = modulation_shift(field, model)
    doc = {
        "z": z.tolist(),
        "orthogonality_residuals": resid.tolist(),
        "config_digest": digest,
        "version": __version__,
    }
    out = args.out or "shift.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
    _emit_config(cfg, digest, out + ".config.json")
    print(f"shift z = {z} (residuals {resid})")
    return 0


def make_parser(overrides=None):
    p = argparse.ArgumentParser(prog="vpstab", description=__doc__)
    p.add_argument("--config", help="JSON file with defaults; flags override")
    sub = p.add_subparsers(dest="command", required=True)
    overrides = overrides or {}

    b = sub.add_parser("build", help="build and serialize a steady state")
    b.add_argument("--kind", choices=["king", "polytrope"], required=True)
    b.add_argument("--q", type=float, default=1.0)
    b.add_argument("--depth", type=float, default=1.0)
    b.add_argument("--w0", type=float, default=3.0)
    b.add_argument("--n-r", dest="n_r", type=int, default=400)
    b.add_argument("--out", default="model.json")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("check", help="run a verification suite on a model")
    c.add_argument("--model", required=True)
    c.add_argument("--suite", choices=sorted(_SUITES), required=True)
    c.add_argument("--seeds", type=_positive(int), default=50)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--n-r-phase", dest="n_r_phase", type=int, default=400)
    c.add_argument("--n-u-phase", dest="n_u_phase", type=int, default=200)
    c.add_argument("--out")
    c.set_defaults(func=cmd_check)

    e = sub.add_parser("evolve", help="self-consistent particle evolution")
    e.add_argument("--model", required=True)
    e.add_argument("--eta", type=float, default=0.0, help="relative L1 perturbation size")
    e.add_argument("--t-dyn", dest="t_dyn", type=_positive(float), default=50.0)
    e.add_argument("--dt-frac", dest="dt_frac", type=_positive(float), default=0.01)
    e.add_argument("--n", type=int, default=100_000)
    e.add_argument("--seed", type=int, default=1)
    e.add_argument("--field-average", dest="field_average", type=_positive(int), default=1)
    e.add_argument("--out-prefix", dest="out_prefix", default="run")
    e.set_defaults(func=cmd_evolve)

    r = sub.add_parser("rearrange", help="dump distribution/rearrangement/Jacobian tables")
    r.add_argument("--model", required=True)
    r.add_argument("--out-prefix", dest="out_prefix", default="tables")
    r.add_argument("--n-r-phase", dest="n_r_phase", type=int, default=200)
    r.add_argument("--n-u-phase", dest="n_u_phase", type=int, default=100)
    r.set_defaults(func=cmd_rearrange)

    s = sub.add_parser("shift", help="modulation shift of a potential file")
    s.add_argument("--model", required=True)
    s.add_argument("--potential", required=True)
    s.add_argument("--out")
    s.set_defaults(func=cmd_shift)
    if overrides:
        for sp in sub.choices.values():
            # argparse runs a flag's type on a string default: a config value
            # is checked as the same flag on the command line would be
            types = {a.dest: a.type for a in sp._actions}
            sp.set_defaults(**{k: v if types[k] is None else str(v) for k, v in overrides.items() if k in types})
    return p


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    overrides = None
    if "--config" in argv:
        try:
            overrides = _load_config(argv[argv.index("--config") + 1])
        except (OSError, IndexError, ValueError) as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    parser = make_parser(overrides)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

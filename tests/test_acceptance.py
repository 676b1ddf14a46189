"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria are property-based at desk scale; every tolerance is pinned here.
The dynamical-stability criterion runs a multi-minute particle sweep and
dominates the suite runtime.
"""

import time

import numpy as np
import pytest

from vpstab.functionals import monotonicity_gaps, stability_lower_bound
from vpstab.perturbations import ensemble
from vpstab.poisson import RadialField3D
from vpstab.rearrangement import (
    JacobianMap,
    distribution_function,
    generalized_rearrangement,
    schwarz_rearrangement,
)
from vpstab.spectral import (
    coercivity_constant,
    harmonic_operator_spectrum,
    hormander_identity_check,
    modulation_shift,
    smooth_bump_direction,
    taylor_remainder,
)
from vpstab.steady_state import phase_space_density


def _report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def c0_king(king):
    return coercivity_constant(king)


def _fixed_point_error(model, n_r, n_u):
    f = phase_space_density(model, n_r=n_r, n_u=n_u)
    pot = model.potential()
    fstar = schwarz_rearrangement(distribution_function(f))
    fhat = generalized_rearrangement(fstar, JacobianMap(pot), f.grid)
    return fhat.l1_distance(f) / f.mass()


def test_criterion_1_fixed_point(king, poly):
    t0 = time.time()
    errs = {name: _fixed_point_error(m, 400, 200) for name, m in (("king", king), ("poly", poly))}
    elapsed = time.time() - t0
    ratios = {
        name: errs[name] / _fixed_point_error(m, 800, 400)
        for name, m in (("king", king), ("poly", poly))
    }
    ok = all(e <= 1e-3 for e in errs.values()) and all(r >= 3.0 for r in ratios.values()) and elapsed <= 10.0
    _report(
        1,
        ok,
        f"rearrangement fixed point: L1 errors {errs['king']:.2e}/{errs['poly']:.2e} "
        f"(<= 1e-3), refinement gains {ratios['king']:.2f}x/{ratios['poly']:.2f}x (>= 3x), "
        f"default-grid runtime {elapsed:.1f}s (<= 10s)",
    )


def test_criterion_2_monotonicity_chain(king):
    t0 = time.time()
    worst1 = worst2 = np.inf
    violations = 0
    for label, f in ensemble(king, 200, seed=2024):
        rep = monotonicity_gaps(f)
        tol = rep.tolerance
        worst1 = min(worst1, rep.gap1 + tol)
        worst2 = min(worst2, rep.gap2 + tol)
        if rep.gap1 < -tol or rep.gap2 < -tol:
            violations += 1
    # equality case
    f0 = phase_space_density(king, n_r=200, n_u=100)
    rep0 = monotonicity_gaps(f0)
    tol0 = rep0.tolerance
    equality_ok = abs(rep0.gap1) <= tol0 and abs(rep0.gap2) <= tol0
    elapsed = time.time() - t0
    ok = violations == 0 and equality_ok and elapsed <= 120.0
    _report(
        2,
        ok,
        f"monotonicity chain over 200 seeded perturbations: {violations} violations, "
        f"equality gaps ({rep0.gap1:.1e}, {rep0.gap2:.1e}) within tol {tol0:.1e}, "
        f"runtime {elapsed:.0f}s (<= 120s)",
    )


def test_criterion_3_equimeasurability(king):
    f = phase_space_density(king, n_r=200, n_u=100)
    mu_f = distribution_function(f)
    fstar = schwarz_rearrangement(mu_f)
    # exact at the cell level for the bathtub itself
    levels = fstar.step_values[:: max(1, fstar.step_values.size // 50)][:50]
    exact = np.max(np.abs(fstar.level_measure(levels) - mu_f.evaluate(levels)))
    # generalized rearrangement matches within the discrete measure resolution
    pot = king.potential()
    fhat = generalized_rearrangement(fstar, JacobianMap(pot), f.grid)
    mu_hat = distribution_function(fhat)
    probe = np.linspace(0.02, 0.98, 50) * f.sup()
    resolution = 6.0 * f.measure.max() * np.sqrt(f.values.size)
    dev = np.max(np.abs(mu_hat.evaluate(probe) - mu_f.evaluate(probe)))
    ok = exact <= 1e-12 * mu_f.total_measure and dev <= resolution
    _report(
        3,
        ok,
        f"equimeasurability: bathtub exact to {exact:.1e}, generalized rearrangement "
        f"within resolution ({dev:.2e} <= {resolution:.2e}) at 50 levels",
    )


def test_criterion_4_variations(king):
    eps = (1e-1, 3e-2, 1e-2, 3e-3)
    params = [(0.35, 0.18), (0.5, 0.25), (0.65, 0.2), (0.45, 0.3), (0.3, 0.12)]
    worst_hess = 0.0
    all_ok = True
    details = []
    for cf, wf in params:
        d = smooth_bump_direction(king, cf, wf)
        rep = taylor_remainder(king, d, eps)
        slope_ratio = rep.first_slope / rep.epsilons
        linear = np.allclose(slope_ratio, slope_ratio.mean(), rtol=0.15)
        rem = np.abs(rep.remainder_over_eps2)
        decreasing = rem[1] < rem[0]
        floor_ok = rem.max() <= 2e-2 * abs(rep.hessian_analytic)
        hess_rel = abs(rep.hessian_extrapolated - rep.hessian_analytic) / abs(rep.hessian_analytic)
        worst_hess = max(worst_hess, hess_rel)
        all_ok &= linear and decreasing and floor_ok and hess_rel <= 0.02
        details.append(hess_rel)
    _report(
        4,
        all_ok,
        f"first variation vanishes (linear slopes), remainder decays to the quadrature "
        f"floor, Hessian matches extrapolated differences within 2% "
        f"(worst {worst_hess:.2%}) over 5 directions",
    )


def test_criterion_5_spectrum(king, c0_king):
    t0 = time.time()
    rep1 = harmonic_operator_spectrum(king, 1, n_eigs=2)
    rep0 = harmonic_operator_spectrum(king, 0, n_eigs=1)
    rep2 = harmonic_operator_spectrum(king, 2, n_eigs=1)
    rep3 = harmonic_operator_spectrum(king, 3, n_eigs=1)
    vmax = float(king.vq_fn(np.array([0.0]))[0])
    c0_fine = coercivity_constant(king, n=1600)
    elapsed = time.time() - t0
    kernel_ok = abs(rep1.eigenvalues[0]) <= 1e-3 * vmax and rep1.kernel_residual <= 1e-3
    positive_ok = rep0.eigenvalues[0] > 0 and rep2.eigenvalues[0] > 0 and rep3.eigenvalues[0] > 0
    stable_ok = abs(c0_fine - c0_king) / c0_king <= 0.05
    ok = kernel_ok and positive_ok and stable_ok and elapsed <= 60.0
    _report(
        5,
        ok,
        f"spectral analysis: translation mode |lambda| = {abs(rep1.eigenvalues[0]):.1e} "
        f"(<= 1e-3 V_max), cosine {1 - rep1.kernel_residual:.5f} (>= 0.999), sectors "
        f"k=0/2/3 positive, c0 = {c0_king:.4f} stable to "
        f"{abs(c0_fine - c0_king) / c0_king:.2%} under 2x refinement, "
        f"runtime {elapsed:.0f}s (<= 60s)",
    )


def test_criterion_6_commuting_operator_identity(king):
    rng = np.random.default_rng(0)
    u_esc = float(king.u_escape(np.array([0.0]))[0])
    sample = [
        (r, u)
        for r, u in zip(rng.uniform(0.2, 0.8, 12) * king.R_Q, rng.uniform(0.2, 0.6, 12) * u_esc)
    ]
    res = hormander_identity_check(king, sample, step_frac=1e-4)
    res2 = hormander_identity_check(king, sample, step_frac=2e-4)
    order = res2 / res
    ok = res <= 1e-4 and 3.0 <= order <= 5.0
    _report(
        6,
        ok,
        f"commuting-operator identity: residual {res:.2e} (<= 1e-4) at default step, "
        f"halving ratio {order:.2f} (second order)",
    )


def _translate_recovery_error(model):
    """Distance between the translate c of phi_Q and the shift that
    modulation_shift recovers for it, started away from c: the barycenter
    default would start at the answer."""
    c = np.array([0.1, 0.0, 0.0])
    field = RadialField3D.of(model.potential(), center=c)
    z, _ = modulation_shift(field, model, seed=c + np.array([0.02, 0.01, -0.01]))
    return float(np.linalg.norm(z - c))


def test_criterion_7_recovery_fails_for_a_shift_that_returns_its_start(king, monkeypatch):
    # mutant: the minimizer returns its start point; the recovery bound of
    # criterion 7 must see it
    from scipy import optimize

    def start_point(fun, x0, **kwargs):
        return optimize.OptimizeResult(x=np.asarray(x0, dtype=float), fun=fun(x0), success=True, message="start")

    monkeypatch.setattr(optimize, "minimize", start_point)
    assert _translate_recovery_error(king) > 1e-4


def test_criterion_7_quantitative_lower_bound(king, c0_king):
    from vpstab.perturbations import bump_perturbation, padded_phase_density

    rng = np.random.default_rng(77)
    base = padded_phase_density(king, n_r=150, n_u=80)
    worst = np.inf
    violations = 0
    tol = 1e-3 * abs(king.hamiltonian)
    for _ in range(100):
        f = bump_perturbation(base, rng.uniform(0.002, 0.02), rng.integers(2**31))
        rep = stability_lower_bound(f, king, c0_king, shift=np.zeros(3))
        worst = min(worst, rep.slack)
        if rep.slack < -tol:
            violations += 1
    # exact-translate shift recovery
    shift_err = _translate_recovery_error(king)
    ok = violations == 0 and shift_err <= 1e-4
    _report(
        7,
        ok,
        f"quantitative lower bound: 0 violations over 100 perturbations "
        f"(worst slack {worst:.2e} >= -{tol:.1e}), translate recovery error "
        f"{shift_err:.1e} (<= 1e-4)",
    )


def test_criterion_8_dynamical_stability(king):
    from vpstab.evolver import conservation_report, evolve, sample_particles, stability_sweep

    t0 = time.time()
    # conservation on the plain (unfiltered) scheme
    f0 = phase_space_density(king, n_r=400, n_u=200)
    q_fn = lambda r, u: king.profile.evaluate(0.5 * u**2 + king.phi_fn(r))
    ens = sample_particles(f0, 100_000, seed=3, value_fn=q_fn)
    diag0 = evolve(
        ens, king, dt=0.01 * king.dynamical_time, t_end=50 * king.dynamical_time,
        field_average=1, cadence=250,
    )
    rep0 = conservation_report(diag0)
    assert rep0.tolerances == {"mass": 1e-6, "hamiltonian": 1e-3}  # criterion 8's bounds

    # perturbation-size sweep with the variance-reduced field and common seeds
    sweep = stability_sweep(
        king, etas=(0.0, 0.0025, 0.005, 0.01, 0.02), n_particles=100_000, seed=12345
    )
    elapsed = time.time() - t0
    dmax = sweep["max_distance"]
    sizes = sorted(dmax)
    monotone = all(dmax[a] < dmax[b] for a, b in zip(sizes[:-1], sizes[1:]))
    exponent = sweep["exponent"]
    # quiescent run: bounded noise floor, no late-time secular growth
    orb0 = np.asarray(sweep["diagnostics"][0.0].orbital)
    n = orb0.size
    late = orb0[3 * n // 4 :].mean()
    mid = orb0[n // 3 : n // 2].mean()
    floor_ok = late <= 1.5 * mid and max(orb0) < dmax[sizes[0]]
    ok = (
        rep0.mass_drift <= 1e-6
        and rep0.hamiltonian_drift <= 1e-3
        and monotone
        and exponent <= 1.3
        and floor_ok
        and elapsed <= 600.0
    )
    _report(
        8,
        ok,
        f"dynamical stability: mass drift {rep0.mass_drift:.1e} (<= 1e-6), energy drift "
        f"{rep0.hamiltonian_drift:.1e} (<= 1e-3) over 50 dynamical times; max distance "
        f"grows monotonically with size, fitted exponent {exponent:.2f} (<= 1.3); "
        f"quiescent floor saturates (late/mid = {late / mid:.2f}); "
        f"runtime {elapsed:.0f}s (<= 600s)",
    )


def test_criterion_9_field_estimates(king):
    from vpstab.perturbations import bump_perturbation, padded_phase_density
    from vpstab.poisson import field_energy, potential_distance, solve_poisson_radial

    base = padded_phase_density(king, n_r=100, n_u=60)

    def interp_ratio(f):
        grad2 = 2 * field_energy(solve_poisson_radial(f.grid.radial, f.rho()))
        bound = (2 * f.kinetic()) ** 0.5 * f.mass() ** (7 / 6) * f.sup() ** (1 / 3)
        return grad2 / bound

    def stability_ratio(f, g):
        pf = solve_poisson_radial(f.grid.radial, f.rho())
        pg = solve_poisson_radial(g.grid.radial, g.rho())
        d_inf, d_grad = potential_distance(pf, pg, (0.0, 0.0, 0.0))
        l1 = float(np.sum(f.measure * np.abs(f.values - g.values)))
        return (d_inf + d_grad) / l1 ** (1 / 6)

    cal = np.random.default_rng(1)
    c_interp = 2.0 * max(
        interp_ratio(bump_perturbation(base, cal.uniform(0.05, 0.5), cal.integers(2**31)))
        for _ in range(25)
    )
    c_stab = 2.0 * max(
        stability_ratio(
            bump_perturbation(base, cal.uniform(0.02, 0.4), cal.integers(2**31)),
            bump_perturbation(base, cal.uniform(0.02, 0.4), cal.integers(2**31)),
        )
        for _ in range(25)
    )
    rng = np.random.default_rng(20240817)
    viol_i = sum(
        interp_ratio(bump_perturbation(base, rng.uniform(0.05, 0.5), rng.integers(2**31))) > c_interp
        for _ in range(100)
    )
    viol_s = sum(
        stability_ratio(
            bump_perturbation(base, rng.uniform(0.02, 0.4), rng.integers(2**31)),
            bump_perturbation(base, rng.uniform(0.02, 0.4), rng.integers(2**31)),
        )
        > c_stab
        for _ in range(100)
    )
    ok = viol_i == 0 and viol_s == 0
    _report(
        9,
        ok,
        f"interpolation and field-stability estimates hold with once-calibrated "
        f"constants over 100 random densities each ({viol_i}/{viol_s} violations)",
    )

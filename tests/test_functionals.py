import numpy as np
import pytest

from vpstab.numerics import InvalidArgumentError
from vpstab.poisson import DegenerateInputError, field_energy
from vpstab.rearrangement import (
    JacobianMap,
    ModelRearrangement,
    MonotoneRearrangement,
    distribution_function,
    schwarz_rearrangement,
)
from vpstab.functionals import (
    hamiltonian,
    monotonicity_gaps,
    reduced_functional,
    stability_lower_bound,
    transport_pairing,
)
from vpstab.perturbations import (
    bump_perturbation,
    ensemble,
    equimeasurable_scramble,
    padded_phase_density,
    velocity_squeeze,
)
from vpstab.steady_state import phase_space_density


def test_hamiltonian_zero_density(king_phase):
    rep = hamiltonian(king_phase.with_values(np.zeros_like(king_phase.values)))
    assert rep.kinetic == rep.potential == rep.hamiltonian == 0.0


def test_hamiltonian_rejects_negative(king_phase):
    bad = king_phase.values.copy()
    bad[3, 4] = -1.0
    with pytest.raises(InvalidArgumentError):
        hamiltonian(king_phase.with_values(bad))


def test_hamiltonian_steady_state(king, king_phase):
    rep = hamiltonian(king_phase)
    assert rep.hamiltonian < 0
    assert rep.hamiltonian == pytest.approx(king.hamiltonian, rel=5e-3)
    # virial: twice the kinetic term equals half the squared field norm
    assert 2 * rep.kinetic == pytest.approx(-rep.potential, rel=2e-3)


def test_hamiltonian_velocity_scaling(king, king_phase):
    # f(r, u) := Q(r, 2u) scales the mass by 1/8 and the kinetic term by 1/32
    r = king_phase.grid.radial.nodes
    u = king_phase.grid.speeds.nodes
    phi = king.phi_fn(r)
    scaled = king.profile.evaluate(0.5 * (2 * u[None, :]) ** 2 + phi[:, None])
    f2 = king_phase.with_values(scaled)
    rep1 = hamiltonian(king_phase)
    rep2 = hamiltonian(f2)
    assert rep2.mass == pytest.approx(rep1.mass / 8, rel=2e-3)
    assert rep2.kinetic == pytest.approx(rep1.kinetic / 32, rel=5e-3)


def test_reduced_functional_at_steady_state(king, king_jac, king_phase):
    rep = reduced_functional(king.rearrangement, king_jac, king_phase.grid)
    # the coupling term vanishes at the fixed point and J equals H(Q)
    assert rep.coupling <= 5e-4 * abs(king.hamiltonian)
    assert rep.J_value == pytest.approx(king.hamiltonian, rel=5e-3)
    assert rep.J0_value <= 0.0
    assert np.isfinite(rep.J0_value)
    # primitive-route consistency
    assert rep.J0_check == pytest.approx(rep.J0_value, abs=2e-2 * abs(rep.J0_value))


def test_reduced_functional_zero_profile(king_pot, king_jac, king_phase):
    zero = MonotoneRearrangement(breaks=np.array([1.0]), step_values=np.array([0.0]))
    rep = reduced_functional(zero, king_jac, king_phase.grid)
    assert rep.J_value == pytest.approx(field_energy(king_pot), rel=1e-12)


def test_reduced_difference_identity(king, rng):
    # J_{f*}(phi) - J_{Q*}(phi) = int a^{-1}(s) (f*(s) - Q*(s)) ds at a fixed
    # field, with both sides through the primitive route
    from vpstab.functionals import _j0_energy_route
    from vpstab.poisson import solve_poisson_radial

    base = padded_phase_density(king, n_r=150, n_u=80)
    f = bump_perturbation(base, 0.2, int(rng.integers(2**31)))
    pot_f = solve_poisson_radial(f.grid.radial, f.rho())
    jac_f = JacobianMap(pot_f)
    fstar = schwarz_rearrangement(distribution_function(f))
    qstar = king.rearrangement
    lhs = _j0_energy_route(fstar, jac_f) - _j0_energy_route(qstar, jac_f)
    # right side: integrate a^{-1} against the difference of the profiles
    t = np.unique(np.concatenate([[0.0], fstar.breaks, np.linspace(0, king.L0 * 1.1, 4096)]))
    mids = 0.5 * (t[:-1] + t[1:])
    diff = fstar.value(mids) - qstar.value(mids)
    rhs = float(np.dot(np.diff(t), jac_f.a_inv(mids) * diff))
    assert lhs == pytest.approx(rhs, abs=2e-3 * max(abs(lhs), abs(king.hamiltonian) * 1e-2))


def test_transport_pairing_identities(king, king_phase, rng):
    rep = hamiltonian(king_phase)
    assert transport_pairing(king_phase, king_phase, rep.pot) == 0.0
    # full reconstitution identity for random pairs, with energies booked
    # through the same node-shell Green pair energy used by monotonicity_gaps
    from vpstab.poisson import _shell_pair

    base = padded_phase_density(king, n_r=120, n_u=60)
    grid = base.grid.radial
    for _ in range(5):
        f = bump_perturbation(base, rng.uniform(0.05, 0.3), rng.integers(2**31))
        g = bump_perturbation(base, rng.uniform(0.05, 0.3), rng.integers(2**31))
        rho_f, rho_g = f.rho(), g.rho()
        h_f = f.kinetic() + _shell_pair(grid, rho_f, rho_f)
        h_g = g.kinetic() + _shell_pair(grid, rho_g, rho_g)
        coupling = -_shell_pair(grid, rho_f - rho_g, rho_f - rho_g)
        kin = float(
            np.sum(f.measure * 0.5 * f.grid.speeds.nodes[None, :] ** 2 * (f.values - g.values))
        )
        pairing = kin + 2.0 * _shell_pair(grid, rho_f, rho_f - rho_g)
        assert h_f == pytest.approx(h_g + coupling + pairing, abs=1e-10 * abs(h_f))


def test_pairing_nonnegative_against_own_rearrangement(king, rng):
    # the pairing against the field-aligned rearrangement has a sign
    from vpstab.functionals import monotonicity_gaps

    base = padded_phase_density(king, n_r=120, n_u=60)
    for k in range(20):
        f = bump_perturbation(base, rng.uniform(0.05, 0.3), rng.integers(2**31))
        rep = monotonicity_gaps(f)
        tol = rep.tolerance
        assert rep.pairing >= -tol


def test_j0_energy_route_matches_the_per_panel_loop(king):
    from vpstab.functionals import _j0_energy_route
    from vpstab.numerics import gl_points
    from vpstab.poisson import solve_poisson_radial

    f = bump_perturbation(padded_phase_density(king, n_r=100, n_u=60), 0.1, seed=5)
    pot = solve_poisson_radial(f.grid.radial, f.rho())
    fstar = schwarz_rearrangement(distribution_function(f))
    jac = JacobianMap(pot)
    # the loop over 96 panels of 8 nodes that the composite rule replaced
    L0 = fstar.support_measure()
    e_star = float(jac.a_inv(np.array([L0]))[0])
    t = np.linspace(0.0, 1.0, 97)
    bounds = pot.min_phi + (e_star - pot.min_phi) * 0.5 * (1.0 - np.cos(np.pi * t))
    total = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        e, w = gl_points(a, b, 8)
        total += float(np.dot(w, fstar.primitive(jac.a(e))))
    g_tot = float(fstar.primitive(np.array([L0 * (1 + 1e-12)]))[0])
    reference = -(total - g_tot * e_star)
    # the same 768 terms summed in another order
    assert _j0_energy_route(fstar, jac) == pytest.approx(reference, rel=768 * np.finfo(float).eps)


def test_monotonicity_gaps_equality_case(king):
    f = padded_phase_density(king, n_r=200, n_u=100)
    rep = monotonicity_gaps(f)
    tol = rep.tolerance
    assert abs(rep.gap1) <= tol
    assert abs(rep.gap2) <= tol
    # the decomposition H(f) = J_direct + pairing is exact in the Green form
    assert rep.identity_residual <= 1e-8 * abs(rep.hamiltonian_f)


def test_monotonicity_gaps_scramble_strict(king):
    f = equimeasurable_scramble(king, 96, 64, 0.2, seed=7)
    rep = monotonicity_gaps(f)
    tol = rep.tolerance
    assert rep.gap1 > tol  # strictly positive: scrambled state is not its rearrangement
    assert rep.gap2 >= 0.0


def test_monotonicity_gaps_rescaled_model(king):
    f = padded_phase_density(king, n_r=150, n_u=80)
    doubled = f.with_values(2.0 * f.values)
    rep = monotonicity_gaps(doubled)
    tol = rep.tolerance
    assert rep.gap1 >= -tol
    assert rep.gap2 >= -tol


def test_monotonicity_gaps_zero_density(king_phase):
    with pytest.raises(DegenerateInputError):
        monotonicity_gaps(king_phase.with_values(np.zeros_like(king_phase.values)))


def test_monotonicity_ensemble(king):
    # three perturbation families, all satisfying the chain within the
    # self-calibrated tolerance
    count = 0
    for label, f in ensemble(king, 45, seed=99):
        rep = monotonicity_gaps(f)
        tol = rep.tolerance
        assert rep.gap1 >= -tol, label
        assert rep.gap2 >= -tol, label
        count += 1
    assert count == 45


def test_equality_characterization(king, rng):
    # small gap1 only for densities close to their own rearrangement
    base = padded_phase_density(king, n_r=150, n_u=80)
    rep0 = monotonicity_gaps(base)
    scr = equimeasurable_scramble(king, 96, 64, 0.25, seed=3)
    rep1 = monotonicity_gaps(scr)
    assert abs(rep0.gap1) < 0.01 * rep1.gap1


def test_velocity_squeeze_preserves_density(king):
    base = padded_phase_density(king, n_r=120, n_u=60)
    squeezed = velocity_squeeze(king, base, 1.07)
    # exact in the continuum; on the grid the support edge moves between cells
    assert np.allclose(squeezed.rho(), base.rho(), atol=5e-4 * base.rho().max())


def test_stability_lower_bound_at_q(king):
    from vpstab.spectral import coercivity_constant

    c0 = coercivity_constant(king)
    f = padded_phase_density(king, n_r=200, n_u=100)
    rep = stability_lower_bound(f, king, c0, shift=np.zeros(3))
    # both sides vanish at the steady state up to quadrature noise
    scale = abs(king.hamiltonian)
    assert abs(rep.rhs) <= 1e-4 * scale
    assert rep.slack >= -1e-3 * scale


def test_stability_lower_bound_perturbations(king, rng):
    from vpstab.spectral import coercivity_constant

    c0 = coercivity_constant(king)
    base = padded_phase_density(king, n_r=150, n_u=80)
    for _ in range(10):
        f = bump_perturbation(base, rng.uniform(0.005, 0.02), rng.integers(2**31))
        rep = stability_lower_bound(f, king, c0, shift=np.zeros(3))
        assert rep.slack >= -1e-3 * abs(king.hamiltonian)
        assert rep.reliable


@pytest.mark.parametrize("shift", [np.zeros(3), np.array([0.02, 0.0, 0.0])])
def test_stability_lower_bound_one_potential_distance(king, monkeypatch, shift):
    import vpstab.functionals as functionals
    from vpstab.poisson import grad_distance2, potential_distance
    from vpstab.spectral import coercivity_constant

    c0 = coercivity_constant(king)
    f = bump_perturbation(padded_phase_density(king, n_r=150, n_u=80), 0.01, 7)
    calls = {"potential_distance": 0, "grad_distance2": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(functionals, "potential_distance", counted(potential_distance))
    monkeypatch.setattr(functionals, "grad_distance2", counted(grad_distance2))
    rep = stability_lower_bound(f, king, c0, shift=shift)
    # one distance call, and no separate gradient distance beside it
    assert calls == {"potential_distance": 1, "grad_distance2": 0}

    # the two separate distance evaluations this call replaces
    pot_f = hamiltonian(f).pot
    if np.any(shift):
        dist2 = potential_distance(pot_f, king.potential(), shift)[1] ** 2
    else:
        dist2 = grad_distance2(pot_f, king.potential())
    d_inf, d_grad = potential_distance(pot_f, king.potential(), shift)
    assert rep.rhs == pytest.approx(c0 * dist2, rel=1e-12)
    assert rep.slack == pytest.approx(rep.lhs - c0 * dist2, rel=1e-12, abs=1e-15 * abs(rep.lhs))
    assert rep.reliable == bool(d_inf + d_grad < 0.5 * abs(king.phi_center))


def test_shifted_distance_is_continuous_at_the_snap(king):
    # stability_lower_bound takes a shift below 1e-9 R_Q as zero, and with it
    # the aligned radial quadrature; the shifted rule agrees there
    from vpstab.poisson import potential_distance

    pot_f = hamiltonian(bump_perturbation(padded_phase_density(king, n_r=150, n_u=80), 0.01, 7)).pot
    aligned = potential_distance(pot_f, king.potential(), np.zeros(3))[1]
    shifted = potential_distance(pot_f, king.potential(), np.array([1e-9, 0.0, 0.0]))[1]
    assert shifted == pytest.approx(aligned, rel=1e-3)


@pytest.mark.parametrize("shift", [np.zeros(3), np.array([0.02, 0.0, 0.0])])
def test_stability_lower_bound_matches_fresh_objects(king, shift):
    import dataclasses

    from vpstab.poisson import PotentialX, potential_distance
    from vpstab.spectral import coercivity_constant

    model = dataclasses.replace(king)
    c0 = coercivity_constant(model)
    base = padded_phase_density(model, n_r=150, n_u=80)
    f = bump_perturbation(base, 0.01, 11)
    # reference: every model-scoped object built afresh for this one call
    rep_f = hamiltonian(f)
    pot_q = PotentialX.from_model(model)
    qstar = ModelRearrangement(model)
    fstar = schwarz_rearrangement(distribution_function(f))
    h_ref = hamiltonian(phase_space_density(model, grid=f.grid)).hamiltonian
    lhs = rep_f.hamiltonian - h_ref + abs(rep_f.pot.min_phi) * qstar.l1_distance(fstar)
    d_inf, d_grad = potential_distance(rep_f.pot, pot_q, shift)
    rhs = c0 * d_grad**2
    reliable = bool(d_inf + d_grad < 0.5 * abs(model.phi_center))
    # the first call builds the caches, the later ones reuse them; another
    # density on the same grid in between must not leak into the next report
    for g in (f, bump_perturbation(base, 0.02, 12), f):
        rep = stability_lower_bound(g, model, c0, shift=shift)
    assert (rep.lhs, rep.rhs, rep.slack, rep.reliable) == (lhs, rhs, lhs - rhs, reliable)


def test_stability_lower_bound_matches_the_plain_form_bit_for_bit(king, monkeypatch, plain_forms):
    # the plain forms evaluate both branches of every potential, sample the
    # reference potential afresh on each call and take L1 from np.unique,
    # with Q* from scipy's PchipInterpolator and a search per midpoint; each
    # model copy builds its own Q*, potential and H(Q) under its form
    import dataclasses

    import vpstab.functionals as functionals
    import vpstab.poisson as poisson
    import vpstab.rearrangement as rearrangement
    from vpstab.spectral import coercivity_constant

    c0 = coercivity_constant(king)
    base = padded_phase_density(king, n_r=150, n_u=80)
    rng = np.random.default_rng(17)
    bumps = [bump_perturbation(base, rng.uniform(0.002, 0.02), rng.integers(2**31)) for _ in range(50)]

    def report_bits(model):
        reps = [stability_lower_bound(f, model, c0, shift=np.zeros(3)) for f in bumps]
        return np.array([(r.lhs, r.rhs, r.slack, r.reliable) for r in reps]).tobytes()

    fast = report_bits(dataclasses.replace(king))
    # a model's laws are its potential's, which poisson's branchwise picks
    for module in (poisson, rearrangement):
        monkeypatch.setattr(module, "branchwise", plain_forms.branchwise)
    monkeypatch.setattr(rearrangement, "l1_distance", plain_forms.l1_distance)
    monkeypatch.setattr(functionals, "potential_distance", plain_forms.potential_distance)
    assert report_bits(dataclasses.replace(king)) == fast


def test_lower_bound_reads_qstar_through_the_merge_ranks_and_counts_the_scan(king, monkeypatch):
    # one stability_lower_bound call, with PiecewisePoly.locate and its
    # counting path wrapped: Q*'s interpolant is never located inside
    # l1_distance, whose merge already ranked each midpoint among Q*'s
    # breaks, and the 8192-point sup-norm scan of phi_f is counted, not
    # searched for point by point
    import vpstab.functionals as functionals
    import vpstab.rearrangement as rearrangement
    from vpstab.numerics import PiecewisePoly

    f = bump_perturbation(padded_phase_density(king, n_r=150, n_u=80), 0.01, 7)
    qstar = king.rearrangement._interp
    stability_lower_bound(f, king, 1.0, shift=np.zeros(3))  # builds the model's caches
    phase, calls = ["other"], []
    locate, count = PiecewisePoly.locate, PiecewisePoly._count_pieces

    def counted_locate(self, t):
        calls.append(("locate", phase[0], self is qstar, np.shape(t)))
        return locate(self, t)

    def counted_count(self, t):
        calls.append(("count", phase[0], self is qstar, t.shape))
        return count(self, t)

    def within(name, fn):
        def wrapper(*args, **kwargs):
            phase[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "other"

        return wrapper

    monkeypatch.setattr(PiecewisePoly, "locate", counted_locate)
    monkeypatch.setattr(PiecewisePoly, "_count_pieces", counted_count)
    monkeypatch.setattr(rearrangement, "l1_distance", within("l1", rearrangement.l1_distance))
    monkeypatch.setattr(functionals, "potential_distance", within("distance", functionals.potential_distance))
    stability_lower_bound(f, king, 1.0, shift=np.zeros(3))

    assert not [c for c in calls if c[1] == "l1"]
    assert not [c for c in calls if c[2]]
    # the scan's points inside f's grid make one ascending set, counted
    r_max = max(f.grid.radial.x_max, king.potential().r_max)
    inside = int(np.count_nonzero(np.linspace(0.0, r_max, 8192) < f.grid.radial.x_max))
    distance = [c[0] for c in calls if c[1] == "distance" and c[3] == (inside,)]
    assert distance == ["locate", "count"]


def test_transport_pairing_rejects_densities_on_different_grids(king, king_pot):
    f = phase_space_density(king, n_r=40, n_u=20)
    g = phase_space_density(king, n_r=41, n_u=20)
    with pytest.raises(InvalidArgumentError, match="different grids"):
        transport_pairing(f, g, king_pot)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vpstab.numerics import InvalidArgumentError, OutOfRangeError, make_grids
from vpstab.rearrangement import (
    JacobianMap,
    ModelRearrangement,
    MonotoneRearrangement,
    _ascending_order,
    distribution_function,
    export_tables,
    generalized_rearrangement,
    l1_distance,
    path_derivative_a,
    pseudo_inverse_level,
    schwarz_rearrangement,
)
from vpstab.steady_state import PhaseSpaceDensity, phase_space_density

# frozen oracles for phi(r) = -1/(1+r) computed by adaptive quadrature of
# the explicit sublevel-volume formulas
A_PHI_REFERENCE = 1.4363232281774354  # a(-1/2)
A_PRIME_REFERENCE = 18.7493264429128  # a'(-1/2)


@pytest.fixture(scope="module")
def small_grid():
    return make_grids(1.0, 16, 1.0, 16)


def _density_from_values(grid, values):
    return PhaseSpaceDensity(grid=grid, values=np.asarray(values, dtype=float))


@pytest.fixture(scope="module")
def reference_pot():
    from vpstab.numerics import make_1d_grid
    from vpstab.poisson import PotentialX

    grid = make_1d_grid(40.0, 640)
    return PotentialX.from_callable(
        grid,
        lambda r: -1.0 / (1.0 + np.asarray(r, dtype=float)),
        lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float)) ** 2,
        4 * np.pi,
    )


def test_distribution_indicator(small_grid):
    values = np.zeros((16, 16))
    values[2:5, 3:7] = 1.0
    f = _density_from_values(small_grid, values)
    mu = distribution_function(f)
    m = float(np.sum(f.measure[2:5, 3:7]))
    assert mu.evaluate(np.array([0.0]))[0] == pytest.approx(m, rel=1e-14)
    assert mu.evaluate(np.array([0.5]))[0] == pytest.approx(m, rel=1e-14)
    assert mu.evaluate(np.array([1.0]))[0] == 0.0


def test_distribution_scaling(small_grid, rng):
    values = rng.uniform(0.0, 2.0, (16, 16))
    f = _density_from_values(small_grid, values)
    lam = 3.0
    g = _density_from_values(small_grid, lam * values)
    s = np.array([0.1, 0.5, 1.3])
    assert np.allclose(
        distribution_function(g).evaluate(lam * s), distribution_function(f).evaluate(s)
    )


def test_support_measure_matches_jacobian_at_cutoff(king, king_jac):
    f = phase_space_density(king, n_r=200, n_u=100)
    mu = distribution_function(f)
    # mu(0+) equals the phase volume of the sublevel set at the cutoff energy
    a_e0 = float(king_jac.a_direct(np.array([king.e0]))[0])
    assert a_e0 == pytest.approx(king.L0, rel=1e-6)
    resolution = 4.0 * f.measure.max() * np.sqrt(f.values.size)
    assert abs(mu.support_measure() - king.L0) <= resolution


def _bathtub_value_sets(king_phase):
    """Cell values of each sign class and their mixes, with ties among the
    positives and among the negatives, on the 16 x 16 grid; and the King
    W0 = 3 density."""
    rng = np.random.default_rng(7)
    tiny = np.finfo(float).tiny
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, -5e-324, tiny, -tiny, np.nan, -0.0]
    positives = rng.choice(rng.uniform(0.5, 2.0, 6), 256)
    levels = rng.choice([-1.0, -0.25, 0.0, -0.0, 0.3, 1.0, 5e-324], 256)
    mixed = levels * rng.choice([1.0, 1.0, rng.uniform()], 256)
    mixed[rng.choice(256, len(specials), replace=False)] = specials
    return {
        "mixed": mixed,
        "ties and specials": np.concatenate([specials, rng.choice([1.0, 2.0, 0.0, -3.0, 5e-324], 244)]),
        "all zeros": np.where(rng.uniform(size=256) < 0.5, 0.0, -0.0),
        "no zeros": positives,
        "no zeros, subnormal": positives * 1e-320,
        "distinct": rng.uniform(-1.0, 1.0, 256),
        "King W0 = 3": king_phase.values.ravel(),
    }


@pytest.mark.parametrize("kind", ["mixed", "ties and specials", "all zeros", "no zeros", "no zeros, subnormal",
                                  "distinct", "King W0 = 3"])
def test_bathtub_order_is_the_stable_argsort(small_grid, king_phase, same_bits, kind):
    # the sign-class order of distribution_function and the step profile
    # built on it are those of the stable float sort, bit for bit
    values = _bathtub_value_sets(king_phase)[kind]
    grid = small_grid if values.size == 256 else king_phase.grid
    f = _density_from_values(grid, values.reshape(grid.cell_measure.shape))
    order = np.argsort(values, kind="stable")
    assert same_bits(_ascending_order(values), order)
    mu = distribution_function(f)
    assert same_bits(mu.values_asc, values[order])
    assert same_bits(mu.measures_asc, grid.cell_measure.ravel()[order])
    fstar = schwarz_rearrangement(mu)
    assert same_bits(fstar.step_values, values[order][::-1])
    assert same_bits(fstar.breaks, np.cumsum(grid.cell_measure.ravel()[order][::-1]))


def test_schwarz_indicator(small_grid):
    values = np.zeros((16, 16))
    values[4:8, 2:9] = 1.0
    f = _density_from_values(small_grid, values)
    fstar = schwarz_rearrangement(distribution_function(f))
    m = float(np.sum(f.measure[4:8, 2:9]))
    t = np.array([0.0, 0.5 * m, 0.999 * m, 1.001 * m, 2 * m])
    assert np.allclose(fstar.value(t), [1, 1, 1, 0, 0])


def test_schwarz_two_level():
    # hand-built bathtub: value 2 on measure 1, value 1 on further measure 2
    fstar = MonotoneRearrangement(breaks=np.array([1.0, 3.0]), step_values=np.array([2.0, 1.0]))
    t = np.array([0.0, 0.5, 1.5, 2.9, 3.1])
    assert np.allclose(fstar.value(t), [2, 2, 1, 1, 0])
    assert fstar.sup == 2.0
    assert fstar.support_measure() == 3.0
    assert fstar.total == pytest.approx(1 * 2 + 2 * 1)


def test_schwarz_invariants(king_phase):
    fstar = schwarz_rearrangement(distribution_function(king_phase))
    assert fstar.sup == king_phase.sup()
    assert fstar.value(np.array([0.0]))[0] == king_phase.sup()
    support = float(np.sum(king_phase.measure[king_phase.values > 0]))
    assert fstar.support_measure() == pytest.approx(support, rel=1e-14)


def test_casimir_preservation_exact(king_phase):
    fstar = schwarz_rearrangement(distribution_function(king_phase))
    for beta in (lambda s: s, lambda s: s**2, lambda s: np.minimum(s, 3.0)):
        grid_side = float(np.sum(king_phase.measure * beta(king_phase.values)))
        assert fstar.casimir(beta) == pytest.approx(grid_side, rel=1e-12)


def test_schwarz_permutation_invariant(king):
    # scrambling cell values among equal-measure cells leaves f* unchanged
    from vpstab.perturbations import equal_measure_speed_grid, equimeasurable_scramble
    from vpstab.steady_state import phase_space_density as sample_density

    scrambled = equimeasurable_scramble(king, 64, 48, 0.25, seed=5)
    reference = sample_density(king, grid=scrambled.grid)
    f1 = schwarz_rearrangement(distribution_function(reference))
    f2 = schwarz_rearrangement(distribution_function(scrambled))
    assert f1.l1_distance(f2) <= 1e-12 * king.M


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, (5, 5), elements=st.floats(min_value=0, max_value=3)),
    arrays(np.float64, (5, 5), elements=st.floats(min_value=0, max_value=3)),
)
def test_l1_contraction(values_f, values_g):
    grid = make_grids(1.0, 16, 1.0, 16)
    # embed the 5x5 blocks in the 16x16 grid
    vf = np.zeros((16, 16))
    vg = np.zeros((16, 16))
    vf[:5, :5] = values_f
    vg[:5, :5] = values_g
    f = PhaseSpaceDensity(grid=grid, values=vf)
    g = PhaseSpaceDensity(grid=grid, values=vg)
    fstar = schwarz_rearrangement(distribution_function(f))
    gstar = schwarz_rearrangement(distribution_function(g))
    assert fstar.l1_distance(gstar) <= f.l1_distance(g) + 1e-9


def test_jacobian_reference_values(reference_pot):
    jac = JacobianMap(reference_pot)
    assert float(jac.a_direct(np.array([-0.5]))[0]) == pytest.approx(A_PHI_REFERENCE, rel=1e-8)
    assert float(jac.a_prime_direct(np.array([-0.5]))[0]) == pytest.approx(
        A_PRIME_REFERENCE, rel=1e-8
    )
    # vanishing below the minimum of the potential
    assert float(jac.a(np.array([-1.5]))[0]) == 0.0


def test_jacobian_divergence(reference_pot):
    jac = JacobianMap(reference_pot)
    es = np.array([-1e-1, -1e-2, -1e-3, -1e-4])
    vals = jac.a_direct(es) * (-es) ** 1.5
    # a(e) |e|^{3/2} approaches the finite monopole constant from below
    assert np.all(np.diff(vals) > 0)
    ratio = float(jac.a_direct(np.array([-1e-4]))[0] / jac.a_direct(np.array([-1e-1]))[0])
    assert ratio > 1e4 / 2


def test_jacobian_inverse_roundtrip(king_jac):
    e = np.linspace(king_jac.min_phi * 0.999, king_jac._e_tab[-1], 200)
    a = king_jac.a(e)
    back = king_jac.a_inv(a)
    assert np.max(np.abs(back - e)) <= 1e-10 * abs(king_jac.min_phi)


def test_jacobian_derivative_consistency(king_jac):
    e = np.linspace(0.9 * king_jac.min_phi, 0.2 * king_jac.min_phi, 40)
    h = 1e-6 * abs(king_jac.min_phi)
    fd = (king_jac.a_direct(e + h) - king_jac.a_direct(e - h)) / (2 * h)
    an = king_jac.a_prime_direct(e)
    assert np.max(np.abs(fd - an) / np.abs(an)) <= 1e-6


def test_jacobian_rejects_non_member():
    from vpstab.numerics import make_1d_grid
    from vpstab.poisson import PotentialX

    grid = make_1d_grid(5.0, 64)
    zero = PotentialX.from_callable(
        grid, lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)), 0.0
    )
    with pytest.raises(InvalidArgumentError):
        JacobianMap(zero)


def test_fixed_point_both_models(king, poly):
    for model in (king, poly):
        f = phase_space_density(model, n_r=400, n_u=200)
        fstar = schwarz_rearrangement(distribution_function(f))
        pot = model.potential()
        fhat = generalized_rearrangement(fstar, JacobianMap(pot), f.grid)
        assert fhat.l1_distance(f) / f.mass() <= 1e-3


def test_zero_rearrangement(king_jac, small_grid):
    fstar = MonotoneRearrangement(breaks=np.array([1.0]), step_values=np.array([0.0]))
    out = generalized_rearrangement(fstar, king_jac, small_grid)
    assert np.all(out.values == 0)


def test_equimeasurability_roundtrip(king, rng):
    # rearranging and re-measuring returns the same bathtub profile
    from vpstab.perturbations import bump_perturbation, padded_phase_density

    base = padded_phase_density(king, n_r=150, n_u=80)
    f = bump_perturbation(base, 0.25, int(rng.integers(2**31)))
    from vpstab.poisson import solve_poisson_radial

    pot = solve_poisson_radial(f.grid.radial, f.rho())
    jac = JacobianMap(pot)
    fstar = schwarz_rearrangement(distribution_function(f))
    fhat = generalized_rearrangement(fstar, jac, f.grid)
    fstar2 = schwarz_rearrangement(distribution_function(fhat))
    tol = 20.0 * f.measure.max() * np.sqrt(f.values.size) * f.sup()
    assert fstar.l1_distance(fstar2) <= tol
    # norm preservation
    assert fhat.mass() == pytest.approx(f.mass(), rel=2e-3)
    assert fhat.sup() <= f.sup() * (1 + 1e-12)


def test_equimeasurability_at_levels(king, king_jac):
    f = phase_space_density(king, n_r=200, n_u=100)
    mu_f = distribution_function(f)
    fstar = schwarz_rearrangement(mu_f)
    fhat = generalized_rearrangement(fstar, king_jac, f.grid)
    mu_hat = distribution_function(fhat)
    levels = np.linspace(0.02, 0.98, 50) * f.sup()
    m1 = mu_f.evaluate(levels)
    m2 = mu_hat.evaluate(levels)
    # within the discrete measure resolution at each level (boundary cells)
    resolution = 6.0 * f.measure.max() * np.sqrt(f.values.size)
    assert np.max(np.abs(m1 - m2)) <= resolution


def test_pseudo_inverse_level_limits(king, king_jac, king_phase):
    fstar = schwarz_rearrangement(distribution_function(king_phase))
    sup = fstar.sup
    e_hi = pseudo_inverse_level(fstar, king_jac, 0.999 * sup)
    e_lo = pseudo_inverse_level(fstar, king_jac, 1e-6 * sup)
    assert e_hi < e_lo < 0
    assert e_hi == pytest.approx(king.phi_center, rel=5e-2)
    with pytest.raises(OutOfRangeError):
        pseudo_inverse_level(fstar, king_jac, 2 * sup)


def test_pseudo_inverse_level_model_energy(king, king_jac):
    # s = F(e) inverts back to e for the smooth steady-state profile
    qstar = ModelRearrangement(king)
    for frac in (0.3, 0.6):
        e_ref = king.phi_center + frac * (king.e0 - king.phi_center)
        s = float(king.profile.evaluate(np.array([e_ref]))[0])
        e_back = pseudo_inverse_level(qstar, king_jac, s)
        assert e_back == pytest.approx(e_ref, rel=1e-4)


def test_pseudo_inverse_two_level(king_jac):
    fstar = MonotoneRearrangement(breaks=np.array([2.0, 5.0]), step_values=np.array([3.0, 1.0]))
    e = pseudo_inverse_level(fstar, king_jac, 2.0)
    assert e == pytest.approx(float(king_jac.a_inv(np.array([2.0]))[0]), rel=1e-12)


def test_pseudo_inverse_implications(king, king_jac, king_phase):
    # f-hat > s implies e <= e_s; f-hat <= s implies e >= e_s, on sampled cells
    pot = king.potential()
    fstar = schwarz_rearrangement(distribution_function(king_phase))
    s = 0.3 * fstar.sup
    e_s = pseudo_inverse_level(fstar, king_jac, s)
    phi = pot.phi_fn(king_phase.grid.radial.nodes)
    e = 0.5 * king_phase.grid.speeds.nodes[None, :] ** 2 + phi[:, None]
    # f-hat = f*(a(e)) at the cell nodes, 0 where e >= 0
    neg = e < 0
    fhat = np.zeros_like(e)
    fhat[neg] = fstar.value(king_jac.a(e[neg]))
    above = fhat > s
    below = (fhat <= s) & neg
    slack = 1e-9 * abs(king.phi_center)
    assert np.all(e[above] <= e_s + slack)
    assert np.all(e[below] >= e_s - slack)


def test_path_derivative_zero_direction(king_pot, king_jac):
    val = path_derivative_a(king_pot, king_pot, 0.5, 0.7 * king_pot.min_phi)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_path_derivative_sign_for_deepening(king, king_pot):
    # doubling the potential depth increases the sublevel volume along the path
    from vpstab.numerics import make_1d_grid
    from vpstab.poisson import PotentialX

    deeper = PotentialX.from_callable(
        king_pot.grid,
        lambda r: 2.0 * king_pot.phi_fn(r),
        lambda r: 2.0 * king_pot.dphi_fn(r),
        2.0 * king_pot.M,
    )
    val = path_derivative_a(king_pot, deeper, 0.5, 0.5 * king.e0)
    assert val >= 0


def test_path_derivative_domain_error(king_pot):
    from vpstab.steady_state import DomainError

    with pytest.raises(DomainError):
        path_derivative_a(king_pot, king_pot, 0.5, 0.1)


def test_path_derivative_matches_central_difference(king, king_pot):
    # second-order convergence of the finite-difference quotient to the
    # analytic path derivative, King field vs a uniform-ball potential
    from vpstab.numerics import make_1d_grid
    from vpstab.poisson import CellMoments, solve_poisson_radial

    grid = make_1d_grid(3 * king.R_Q, 400)
    rho0 = king.M / (4 * np.pi * king.R_Q**3 / 3)
    rho = np.where(grid.nodes < king.R_Q, rho0, 0.0)
    ball = solve_poisson_radial(grid, CellMoments.of(grid, rho))
    lam, e = 0.5, 0.5 * king.e0
    analytic = path_derivative_a(king_pot, ball, lam, e)

    def a_lam(lmb):
        mix = lambda r: (1 - lmb) * king_pot.phi_fn(r) + lmb * ball.phi_fn(r)
        dmix = lambda r: (1 - lmb) * king_pot.dphi_fn(r) + lmb * ball.dphi_fn(r)
        from vpstab.poisson import PotentialX

        pot = PotentialX.from_callable(
            king_pot.grid, mix, dmix, (1 - lmb) * king_pot.M + lmb * ball.M
        )
        return float(JacobianMap(pot).a_direct(np.array([e]))[0])

    errs = []
    for delta in (0.16, 0.08, 0.04):
        fd = (a_lam(lam + delta) - a_lam(lam - delta)) / (2 * delta)
        errs.append(abs(fd - analytic))
    # second order until the quadrature floor of the volume evaluations
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 1.7)
    assert errs[-1] <= 1e-4 * abs(analytic)


@pytest.mark.parametrize("ratio", [5.0, 15.0, 50.0])
def test_path_derivative_exterior_tail_matches_central_difference(king_pot, ratio):
    # unequal masses with the turning radius r_e = ratio * r_max far past the
    # grid, so most of the derivative is the exterior tail: the analytic
    # value against the central quotient of a_lambda(e) = a_direct of the
    # mixed potential, second order in the step
    from vpstab.poisson import PotentialX

    doubled = PotentialX.from_callable(
        king_pot.grid, lambda r: 2.0 * king_pot.phi_fn(r), lambda r: 2.0 * king_pot.dphi_fn(r), 2.0 * king_pot.M
    )
    lam = 0.5
    e = -(1.0 + lam) * king_pot.M / (4 * np.pi * ratio * king_pot.r_max)
    analytic = path_derivative_a(king_pot, doubled, lam, e)

    def a_lam(lmb):
        mixed = PotentialX.from_callable(
            king_pot.grid,
            lambda r: (1 - lmb) * king_pot.phi_fn(r) + lmb * doubled.phi_fn(r),
            lambda r: (1 - lmb) * king_pot.dphi_fn(r) + lmb * doubled.dphi_fn(r),
            (1 - lmb) * king_pot.M + lmb * doubled.M,
        )
        return float(JacobianMap(mixed).a_direct(np.array([e]))[0])

    errs = [abs((a_lam(lam + h) - a_lam(lam - h)) / (2 * h) - analytic) / abs(analytic) for h in (1e-2, 5e-3)]
    assert errs[1] <= 1e-5 and errs[0] / errs[1] > 3.0


def test_kinetic_energy_bound_calibrated(king, rng):
    # kinetic energy of the rearranged density controlled by field and norms
    from vpstab.perturbations import bump_perturbation, padded_phase_density
    from vpstab.poisson import field_energy, solve_poisson_radial

    base = padded_phase_density(king, n_r=100, n_u=60)

    def ratio(f):
        pot = solve_poisson_radial(f.grid.radial, f.rho())
        fstar = schwarz_rearrangement(distribution_function(f))
        fhat = generalized_rearrangement(fstar, JacobianMap(pot), f.grid)
        grad_norm = np.sqrt(2 * field_energy(pot))
        bound = grad_norm ** (4 / 3) * f.mass() ** (7 / 9) * f.sup() ** (2 / 9)
        return fhat.kinetic() / bound

    cal_rng = np.random.default_rng(2)
    c_cal = 2.0 * max(
        ratio(bump_perturbation(base, cal_rng.uniform(0.05, 0.5), cal_rng.integers(2**31)))
        for _ in range(20)
    )
    for _ in range(100):
        f = bump_perturbation(base, rng.uniform(0.05, 0.5), rng.integers(2**31))
        assert ratio(f) <= c_cal


def test_change_of_variables_identity(king, king_pot, king_jac, king_phase):
    # for alpha(e) = e and gamma = f*: the phase-space integral of
    # e f*(a(e)) equals int a^{-1}(s) f*(s) ds
    fstar = schwarz_rearrangement(distribution_function(king_phase))
    fhat = generalized_rearrangement(fstar, king_jac, king_phase.grid)
    phi = king_pot.phi_fn(king_phase.grid.radial.nodes)
    e = 0.5 * king_phase.grid.speeds.nodes[None, :] ** 2 + phi[:, None]
    lhs = float(np.sum(king_phase.measure * e * fhat.values))
    # right-hand side on the bathtub parameter
    t = np.concatenate([[0.0], fstar.breaks])
    mids = 0.5 * (t[:-1] + t[1:])
    rhs = float(np.dot(np.diff(t), king_jac.a_inv(mids) * fstar.step_values))
    assert lhs == pytest.approx(rhs, rel=3e-3)


def test_export_tables(tmp_path, king_phase, king_jac):
    mu = distribution_function(king_phase)
    fstar = schwarz_rearrangement(mu)
    paths = export_tables(str(tmp_path / "t"), mu, fstar, king_jac)
    for p in paths.values():
        with open(p) as fh:
            header = fh.readline()
            assert "," in header
            assert len(fh.readlines()) > 10


def test_export_tables_read_back(tmp_path, king_phase, king_jac):
    # every row parses as floats; the Jacobian rows are its table exactly
    mu = distribution_function(king_phase)
    fstar = schwarz_rearrangement(mu)
    paths = export_tables(str(tmp_path / "t"), mu, fstar, king_jac)
    rows = {}
    for name, p in paths.items():
        with open(p) as fh:
            next(fh)
            rows[name] = np.array([[float(v) for v in line.split(",")] for line in fh])
    assert rows["mu"].shape == rows["fstar"].shape == (512, 2)
    assert np.array_equal(rows["mu"][:, 1], mu.evaluate(rows["mu"][:, 0]))
    assert np.array_equal(rows["fstar"][:, 1], fstar.value(rows["fstar"][:, 0]))
    jac_rows = rows["jacobian"]
    assert np.array_equal(jac_rows[:, 0], king_jac._e_tab)
    assert np.array_equal(jac_rows[:, 1], king_jac._a_tab)
    assert np.array_equal(jac_rows[:, 2], king_jac._ap_tab)


def test_l1_distance_is_symmetric_across_profile_kinds(king, king_phase):
    # a step profile against the smooth Q*: both orders take the union of breaks
    fstar = schwarz_rearrangement(distribution_function(king_phase))
    qstar = king.rearrangement
    d = fstar.l1_distance(qstar)
    assert d == qstar.l1_distance(fstar)
    assert 0.0 < d < 1e-2 * fstar.total


def _step(breaks, values):
    return MonotoneRearrangement(breaks=np.asarray(breaks, dtype=float), step_values=np.asarray(values, dtype=float))


def _l1_edge_profiles(king):
    qstar = king.rearrangement
    L0 = qstar.L0
    one_up = np.nextafter(1.0, 2.0)
    grid = make_grids(1.0, 16, 1.0, 16)
    return {
        "Q*": qstar,
        # repeated breaks are cells of zero measure
        "repeated breaks": _step([0.0, 0.1 * L0, 0.1 * L0, 0.5 * L0, 0.5 * L0, 0.5 * L0, 2.0 * L0, 2.0 * L0],
                                 [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0]),
        "on Q* breaks": _step(qstar.breaks[1::5], np.linspace(3.0, 0.0, qstar.breaks[1::5].size)),
        "shorter than L0": _step(np.linspace(0.01, 0.5, 300) * L0, np.linspace(2.0, 0.5, 300)),
        "longer than L0": _step(np.linspace(0.01, 30.0, 3000) * L0, np.clip(np.linspace(2.0, -1.0, 3000), 0.0, None)),
        # midpoints of adjacent floats that round up onto the next break
        "adjacent floats": _step([one_up, np.nextafter(one_up, 2.0), np.nextafter(np.nextafter(one_up, 2.0), 2.0), 2.0],
                                 [4.0, 3.0, 2.0, 1.0]),
        "all-zero f": schwarz_rearrangement(distribution_function(_density_from_values(grid, np.zeros((16, 16))))),
    }


def test_l1_distance_matches_the_unique_form_bit_for_bit(king, king_phase, plain_forms):
    # every pair of step and model profiles, in both orders, equals the
    # np.unique + search form bit for bit and is symmetric exactly
    profiles = _l1_edge_profiles(king)
    profiles["f* of Q"] = schwarz_rearrangement(distribution_function(king_phase))
    adjacent = profiles["adjacent floats"].breaks
    assert np.any(0.5 * (adjacent[:-1] + adjacent[1:]) == adjacent[1:])
    for a, p in profiles.items():
        for b, q in profiles.items():
            d = l1_distance(p, q)
            assert np.float64(d).tobytes() == np.float64(plain_forms.l1_distance(p, q)).tobytes(), (a, b)
            assert d == l1_distance(q, p), (a, b)
    # against f* = 0 the midpoint rule integrates Q* itself, to second order
    assert l1_distance(profiles["all-zero f"], profiles["Q*"]) == pytest.approx(profiles["Q*"].total, rel=1e-5)


def test_l1_distance_does_not_depend_on_the_blas_thread_count(king, serial_blas):
    # f* of a bump on the 150x80 padded base has 12000 steps, so the union
    # with the breaks of Q* is past the size where a BLAS dot product is
    # split across threads; the pairwise sum gives the same bits on any count
    from vpstab.perturbations import bump_perturbation, padded_phase_density

    base = padded_phase_density(king, n_r=150, n_u=80)
    fstars = [schwarz_rearrangement(distribution_function(bump_perturbation(base, 0.01, seed))) for seed in range(10)]
    assert min(fstar.breaks.size for fstar in fstars) > 10_000
    default = [king.rearrangement.l1_distance(fstar) for fstar in fstars]
    with serial_blas():
        serial = [king.rearrangement.l1_distance(fstar) for fstar in fstars]
    assert np.array(default).tobytes() == np.array(serial).tobytes()

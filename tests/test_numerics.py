import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from vpstab.numerics import (
    Grid1D,
    InvalidArgumentError,
    OutOfRangeError,
    eig_tridiag,
    exterior_power_tail,
    gl_points,
    hermite_coefficients,
    make_1d_grid,
    make_grids,
    panel_rule,
    power_eval,
    serial_blas,
    solve_profile_ode,
    turning_point_integral,
    turning_radius,
)
from vpstab.numerics import _openblas_thread_controls


def invert_monotone(fn, target, lo, hi, rtol=1e-12):
    """Solve fn(x) = target for nondecreasing fn on [lo, hi].

    Bracketing bisection/secant via Brent; the result satisfies
    |fn(x) - target| <= rtol * max(1, |target|).
    """
    flo, fhi = fn(lo), fn(hi)
    tol = rtol * max(1.0, abs(target))
    if target < flo - tol or target > fhi + tol:
        raise OutOfRangeError(f"target {target} outside [{flo}, {fhi}]")
    if abs(flo - target) <= tol:
        return lo
    if abs(fhi - target) <= tol:
        return hi
    x = brentq(lambda t: fn(t) - target, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    if abs(fn(x) - target) > tol:
        # plateaus can stall Brent's secant steps; polish by bisection
        a, b = lo, hi
        for _ in range(200):
            m = 0.5 * (a + b)
            if fn(m) < target:
                a = m
            else:
                b = m
            if abs(fn(m) - target) <= tol:
                return m
        raise OutOfRangeError("monotone inversion did not reach tolerance")
    return x


def test_uniform_grid_basics():
    g = make_1d_grid(1.0, 100)
    assert g.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert g.nodes[0] == pytest.approx(0.005, abs=0.002)
    assert g.nodes[1] == pytest.approx(0.015, abs=0.002)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.nodes > 0)


def test_grid_second_moment_exact():
    g = make_1d_grid(2.5, 64)
    assert g.integrate_sq(np.ones(g.n)) == pytest.approx(2.5**3 / 3, rel=1e-10)


def test_derived_grid_moments_are_exact_and_read_only():
    # a non-uniform grid: the equal-volume speed grid of the scrambles
    from vpstab.perturbations import equal_measure_speed_grid

    g = equal_measure_speed_grid(1.0, 16, 2.5, 64).speeds
    a, b = g.edges[:-1], g.edges[1:]
    assert np.array_equal(g.weights, np.diff(g.edges))
    assert np.array_equal(g.sq_moments, (b**3 - a**3) / 3.0)
    assert np.allclose(g.sq_moments, g.sq_moments[0], rtol=1e-12)  # equal volumes
    assert g.integrate_sq(np.ones(g.n)) == pytest.approx(2.5**3 / 3, rel=1e-14)
    for arr in (g.nodes, g.edges, g.weights, g.sq_moments):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_phase_grid_box_measure():
    ps = make_grids(1.0, 32, 1.0, 32)
    vol = (4 * np.pi / 3) ** 2
    assert ps.cell_measure.sum() == pytest.approx(vol, rel=1e-6)
    # boundary-aligned sub-box: the first 16 radial cells end at r = 0.5
    sub = ps.cell_measure[:16].sum()
    assert sub == pytest.approx((4 * np.pi / 3) * 0.5**3 * (4 * np.pi / 3), rel=1e-6)


def test_cell_measure_is_one_read_only_array_per_grid(king):
    # built once per PhaseSpaceGrid and shared by every density on it; the
    # layers that read it (energies, the bathtub sort, the lower bound and
    # the monotonicity gaps, perturbations, particle sampling) leave it as it is
    from vpstab.evolver import sample_particles
    from vpstab.functionals import hamiltonian, monotonicity_gaps, stability_lower_bound
    from vpstab.perturbations import bump_perturbation, padded_phase_density, velocity_squeeze
    from vpstab.rearrangement import distribution_function

    f = padded_phase_density(king, n_r=48, n_u=32)
    grid = f.grid
    measure = grid.cell_measure
    assert grid.cell_measure is measure
    assert np.array_equal(measure, 16.0 * np.pi**2 * np.outer(grid.radial.sq_moments, grid.speeds.sq_moments))
    with pytest.raises(ValueError, match="read-only"):
        measure[0, 0] = 1.0
    expected = measure.copy()
    g = bump_perturbation(f, 0.01, seed=3)
    densities = [f, g, f.with_values(2.0 * f.values), velocity_squeeze(king, f, 1.01)]
    assert all(h.measure is measure for h in densities)
    hamiltonian(g)
    distribution_function(g)
    stability_lower_bound(g, king, 0.4, shift=np.zeros(3))
    monotonicity_gaps(g)
    sample_particles(g, 2000, 5, lambda r, u: np.ones_like(r))
    assert grid.cell_measure is measure
    assert np.array_equal(measure, expected)


def test_make_grids_validation():
    with pytest.raises(InvalidArgumentError):
        make_grids(1.0, 8, 1.0, 32)
    with pytest.raises(InvalidArgumentError):
        make_grids(-1.0, 32, 1.0, 32)


def test_quadrature_convergence_order():
    f = lambda r: np.cos(3 * r) * np.exp(-r)
    exact = quad(f, 0, 2, epsabs=1e-14)[0]
    errs = []
    for n in (64, 128, 256):
        g = make_1d_grid(2.0, n)
        errs.append(abs(np.dot(f(g.nodes), g.weights) - exact))
    slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(slopes >= 1.9)


def test_invert_monotone_identity_and_cube():
    assert invert_monotone(lambda x: x, 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-12)
    assert invert_monotone(lambda x: x**3, 8.0, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_invert_monotone_out_of_range():
    with pytest.raises(OutOfRangeError):
        invert_monotone(lambda x: x, 2.0, 0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=2.0), min_size=3, max_size=6),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_invert_monotone_roundtrip_random(coeffs, frac):
    # random strictly increasing polynomial-ish function on [0, 1]
    c = np.asarray(coeffs)

    def fn(x):
        return sum(ck * x ** (k + 1) for k, ck in enumerate(c))

    target = fn(frac)
    x = invert_monotone(fn, target, 0.0, 1.0)
    assert abs(fn(x) - target) <= 1e-12 * max(1.0, abs(target))


def test_invert_monotone_phase_volume_roundtrip(king_jac):
    # quadrature-backed monotone map: invert a(e) through the generic solver
    e_ref = 0.6 * king_jac.min_phi
    target = float(king_jac.a_direct(np.array([e_ref]))[0])
    e_back = invert_monotone(
        lambda e: float(king_jac.a_direct(np.array([e]))[0]),
        target,
        king_jac.min_phi,
        -1e-6,
        rtol=1e-9,
    )
    assert e_back == pytest.approx(e_ref, rel=1e-7)


def test_eig_tridiag_laplacian_spectrum():
    n = 4
    vals, vecs = eig_tridiag(np.full(n, 2.0), np.full(n - 1, -1.0), n)
    expected = 2 - 2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))
    assert np.allclose(vals, np.sort(expected), atol=1e-12)
    # orthonormal eigenvectors, small residuals
    assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-8)
    A = np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1) + np.diag(np.full(n - 1, -1.0), -1)
    for k in range(n):
        assert np.linalg.norm(A @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-8


def test_eig_tridiag_diagonal():
    vals, _ = eig_tridiag([1.0, 2.0, 3.0], [0.0, 0.0], 2)
    assert np.allclose(vals, [1.0, 2.0])


def test_eig_tridiag_harmonic_oscillator():
    # -d^2/dx^2 + x^2 on [-8, 8]: ground state energy 1
    n = 400
    x = np.linspace(-8, 8, n)
    h = x[1] - x[0]
    vals, _ = eig_tridiag(2 / h**2 + x**2, np.full(n - 1, -1 / h**2), 3)
    assert vals[0] == pytest.approx(1.0, abs=1e-3)
    assert np.all(np.diff(vals) > 0)


def test_eig_tridiag_validation():
    with pytest.raises(InvalidArgumentError):
        eig_tridiag([1.0, 2.0], [0.1, 0.2], 1)


def test_serial_blas_runs_one_thread_and_restores_the_count():
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("numpy and scipy do not bundle OpenBLAS here")
    before = [get() for get, _ in controls]
    with pytest.raises(RuntimeError):
        with serial_blas():
            assert [get() for get, _ in controls] == [1] * len(controls)
            raise RuntimeError
    assert [get() for get, _ in controls] == before


def test_gauss_rules_are_built_on_one_blas_thread(monkeypatch):
    import contextlib

    from scipy import special

    import vpstab.numerics as numerics

    entered = []

    @contextlib.contextmanager
    def recorded():
        entered.append(True)
        with serial_blas():
            yield

    monkeypatch.setattr(numerics, "serial_blas", recorded)
    for rule, args, (x_ref, w_ref) in (
        (numerics._gl_rule, (17,), np.polynomial.legendre.leggauss(17)),
        (numerics._jacobi_rule, (33, 0.5, 0.0), special.roots_jacobi(33, 0.5, 0.0)),
    ):
        rule.cache_clear()
        entered.clear()
        x, w = rule(*args)
        assert entered == [True]
        assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)
        assert not (x.flags.writeable or w.flags.writeable)  # shared by every caller


def test_hermite_eval_reproduces_polynomials():
    xs = np.linspace(0, 2, 9)
    f = xs**3 - 2 * xs**2 + 0.5
    fp = 3 * xs**2 - 4 * xs
    x = np.linspace(0.01, 1.99, 57)
    coef = hermite_coefficients(xs, f, fp)
    assert np.allclose(power_eval(xs, coef, x), x**3 - 2 * x**2 + 0.5, atol=1e-12)
    assert np.allclose(power_eval(xs, coef, x, derivative=True), 3 * x**2 - 4 * x, atol=1e-10)
    # quintic variant is exact for quintics
    f5, fp5, fpp5 = xs**5, 5 * xs**4, 20 * xs**3
    coef5 = hermite_coefficients(xs, f5, fp5, fpp5)
    assert np.allclose(power_eval(xs, coef5, x), x**5, rtol=1e-12)
    assert np.allclose(power_eval(xs, coef5, x, derivative=True), 5 * x**4, rtol=1e-10)


def _basis_hermite(x_nodes, y, yp, x, ypp=None):
    # reference: the two-point Hermite basis functions, summed term by term
    idx = np.clip(np.searchsorted(x_nodes, x) - 1, 0, len(x_nodes) - 2)
    x0, x1 = x_nodes[idx], x_nodes[idx + 1]
    h = x1 - x0
    t = (x - x0) / h
    y0, y1 = y[idx], y[idx + 1]
    d0, d1 = yp[idx] * h, yp[idx + 1] * h
    if ypp is None:
        val = (1 + 2 * t) * (1 - t) ** 2 * y0 + t * (1 - t) ** 2 * d0 + t**2 * (3 - 2 * t) * y1 + t**2 * (t - 1) * d1
        der = (6 * t * (t - 1) * (y0 - y1) + (1 - t) * (1 - 3 * t) * d0 + t * (3 * t - 2) * d1) / h
        return val, der
    a0, a1 = ypp[idx] * h * h, ypp[idx + 1] * h * h
    t2, t3, t4, t5 = t**2, t**3, t**4, t**5
    val = (
        (1 - 10 * t3 + 15 * t4 - 6 * t5) * y0
        + (t - 6 * t3 + 8 * t4 - 3 * t5) * d0
        + (0.5 * t2 - 1.5 * t3 + 1.5 * t4 - 0.5 * t5) * a0
        + (10 * t3 - 15 * t4 + 6 * t5) * y1
        + (-4 * t3 + 7 * t4 - 3 * t5) * d1
        + (0.5 * t3 - t4 + 0.5 * t5) * a1
    )
    db0 = -30 * t2 + 60 * t3 - 30 * t4
    der = (
        db0 * y0
        + (1 - 18 * t2 + 32 * t3 - 15 * t4) * d0
        + (t - 4.5 * t2 + 6 * t3 - 2.5 * t4) * a0
        - db0 * y1
        + (-12 * t2 + 28 * t3 - 15 * t4) * d1
        + (1.5 * t2 - 4 * t3 + 2.5 * t4) * a1
    ) / h
    return val, der


def test_power_form_hermite_matches_basis_formula(king):
    # the profile ODE's dense output, at random points and on every node
    ode = king.interior.ode
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(0.0, ode.r[-1], 20000), ode.r])
    val, der = _basis_hermite(ode.r, ode.y, ode.yp, x, ode.ypp)
    assert np.all(np.abs(ode(x) - val) <= 1e-13 * np.abs(val))
    assert np.max(np.abs(ode(x, 1) - der)) <= 1e-11 * np.max(np.abs(der))
    val3, der3 = _basis_hermite(ode.r, ode.y, ode.yp, x)
    coef3 = hermite_coefficients(ode.r, ode.y, ode.yp)
    got3, gotd3 = power_eval(ode.r, coef3, x), power_eval(ode.r, coef3, x, derivative=True)
    assert np.all(np.abs(got3 - val3) <= 1e-13 * np.abs(val3))
    assert np.max(np.abs(gotd3 - der3)) <= 1e-11 * np.max(np.abs(der3))


def _searchsorted_power_eval(x_nodes, coef, x, derivative=False):
    # reference: the interval found by binary search
    idx = np.clip(np.searchsorted(x_nodes, x) - 1, 0, len(x_nodes) - 2)
    x0 = x_nodes[idx]
    h = x_nodes[idx + 1] - x0
    t = (x - x0) / h
    deg = coef.shape[0] - 1
    if not derivative:
        out = coef[deg][idx]
        for j in range(deg - 1, -1, -1):
            out = out * t + coef[j][idx]
        return out
    out = deg * coef[deg][idx]
    for j in range(deg - 1, 0, -1):
        out = out * t + j * coef[j][idx]
    return out / h


@pytest.mark.parametrize("which", ["king", "poly"])
def test_power_eval_arithmetic_index_matches_searchsorted(which, request):
    ode = request.getfixturevalue(which).interior.ode
    r = ode.r
    x = np.concatenate([
        r, np.nextafter(r, -np.inf), np.nextafter(r, np.inf),  # every node and its neighbours
        [-1.0, -1e-12, ode.r_zero, 0.5 * (ode.r_zero + r[-1]), 1.5 * r[-1]],  # below 0, past r_zero
        np.random.default_rng(3).uniform(0.0, r[-1], 20000),
    ])
    val = power_eval(r, ode._coef, x)
    ref = _searchsorted_power_eval(r, ode._coef, x)
    # relative to the value, except from the last interior interval on, where
    # y falls through zero and only its scale is meaningful
    scale = np.where(x < r[-2], np.abs(ref), np.max(np.abs(ode.y)))
    assert np.all(np.abs(val - ref) <= 1e-15 * scale)
    der = power_eval(r, ode._coef, x, derivative=True)
    der_ref = _searchsorted_power_eval(r, ode._coef, x, derivative=True)
    assert np.max(np.abs(der - der_ref)) <= 1e-12 * np.max(np.abs(der_ref))
    # off the nodes both searches find the same interval, and the in-place
    # Horner rounds as the plain one
    cloud = slice(-20000, None)
    assert np.array_equal(val[cloud], ref[cloud])
    assert np.array_equal(der[cloud], der_ref[cloud])


def test_hermite_coefficients_need_uniform_nodes():
    xs = np.linspace(0.0, 2.0, 9)
    ys = xs**2
    hermite_coefficients(xs, ys, 2 * xs)
    xs[4] += 1e-3
    with pytest.raises(InvalidArgumentError, match="uniform"):
        hermite_coefficients(xs, ys, 2 * xs)


def test_panel_rule_is_the_per_panel_gauss_rule():
    bounds = np.array([0.0, 0.1, 0.35, 0.4, 1.0])
    x, w = panel_rule(bounds, 6)
    panels = [gl_points(a, b, 6) for a, b in zip(bounds[:-1], bounds[1:])]
    assert np.array_equal(x, np.concatenate([p[0] for p in panels]))
    assert np.array_equal(w, np.concatenate([p[1] for p in panels]))
    # exact for polynomials of degree 2 n_gl - 1
    assert np.dot(w, x**11) == pytest.approx(1.0 / 12.0, rel=1e-14)


def test_turning_radius_against_closed_form():
    # Plummer potential -1/sqrt(1 + r^2): phi(r) = e at r = sqrt(1/e^2 - 1)
    phi = lambda r: -1.0 / np.sqrt(1.0 + np.asarray(r) ** 2)
    dphi = lambda r: np.asarray(r) / (1.0 + np.asarray(r) ** 2) ** 1.5
    r_max = 5.0
    e = np.linspace(-0.999, phi(r_max) - 1e-9, 400)
    exact = np.sqrt(1.0 / e**2 - 1.0)
    assert np.max(np.abs(turning_radius(phi, dphi, e, r_max) - exact)) <= 1e-13 * r_max
    # r_max where the level leaves the table, 0 below the minimum; scalars stay scalars
    assert np.array_equal(turning_radius(phi, dphi, np.array([phi(r_max), -0.01, -1.5]), r_max), [r_max, r_max, 0.0])
    assert turning_radius(phi, dphi, -0.5, r_max).shape == ()


def test_turning_point_integral_vs_quad():
    phi = lambda r: -1.0 / (1.0 + np.asarray(r))
    e = -0.5
    exact = quad(lambda r: (e - phi(r)) ** 1.5 * r**2, 0.0, 1.0, epsabs=1e-14)[0]
    val = turning_point_integral(phi, e, 1.0, 1.5)
    assert val == pytest.approx(exact, rel=1e-10)


def test_exterior_power_tail_vs_quad():
    # the tail of a(e) and a'(e) (r^2) and of path_derivative_a (r^1)
    mass, e, r0 = 7.0, -0.05, 2.0
    beta = mass / (4 * np.pi)
    r_e = beta / (-e)
    for p, k in ((1.5, 2), (0.5, 2), (0.5, 1)):
        exact = quad(lambda r: (e + beta / r) ** p * r**k, r0, r_e, epsabs=1e-13)[0]
        assert exterior_power_tail(mass, e, r0, p, k) == pytest.approx(exact, rel=1e-10)
        # elementwise over an array of energies; the last turns inside r0
        energies = np.array([e, -0.02, -0.3])
        tails = exterior_power_tail(mass, energies, r0, p, k)
        assert tails.shape == (3,) and tails[2] == 0.0
        for got, ek in zip(tails, energies):
            assert got == pytest.approx(exterior_power_tail(mass, float(ek), r0, p, k), rel=1e-15)
        with pytest.raises(InvalidArgumentError):
            exterior_power_tail(mass, np.array([e, 0.0]), r0, p, k)


def test_profile_ode_lane_emden_analytic():
    # constant source: y = y0 - r^2/6, zero at sqrt(6)
    ode0 = solve_profile_ode(lambda y: 1.0, 1.0, 1e-3)
    assert ode0.r_zero == pytest.approx(np.sqrt(6.0), rel=1e-10)
    # linear source: y = sin(r)/r, zero at pi
    ode1 = solve_profile_ode(lambda y: max(y, 0.0), 1.0, 1e-3)
    assert ode1.r_zero == pytest.approx(np.pi, rel=1e-10)
    r = np.array([0.5, 1.5, 2.5])
    assert np.allclose(ode1(r), np.sin(r) / r, atol=1e-9)


def _unit_cosine(n):
    # the clustering each caller wrote out before cosine_mesh
    return 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, n)))


def _recorded(monkeypatch, module, name, at=0):
    """Replace module.name by a wrapper that records its positional argument
    at index `at`."""
    seen, fn = [], getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(np.array(args[at]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return seen


def _jacobian_table_mesh(king, monkeypatch):
    from vpstab.rearrangement import JacobianMap

    seen = _recorded(monkeypatch, JacobianMap, "_sublevel_integral", at=1)  # after self
    pot = king.potential()
    JacobianMap(pot)
    lo = pot.min_phi
    hi = -1e-5 * abs(lo)
    return [seen[0]], lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, 512)))


def _model_rearrangement_breaks(king, monkeypatch):
    from vpstab.rearrangement import ModelRearrangement

    return [ModelRearrangement(king).breaks], king.L0 * 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, 2048)))


def _j0_panel_bounds(king, monkeypatch):
    import vpstab.functionals as functionals

    seen = _recorded(monkeypatch, functionals, "panel_rule")
    jac = king.rearrangement.jac
    functionals._j0_energy_route(king.rearrangement, jac)
    e_star = float(jac.a_inv(np.array([king.rearrangement.support_measure()]))[0])
    lo = jac.min_phi
    return seen, lo + (e_star - lo) * 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, 97)))


def _taylor_mesh(n):
    def captured(king, monkeypatch):
        import vpstab.spectral as spectral

        seen = _recorded(monkeypatch, spectral, "panel_rule")
        spectral.taylor_remainder(king, spectral.smooth_bump_direction(king), (2e-2, 1e-2))
        return seen, _unit_cosine(n)

    return captured


@pytest.mark.parametrize(
    "caller",
    [_jacobian_table_mesh, _model_rearrangement_breaks, _j0_panel_bounds, _taylor_mesh(41), _taylor_mesh(97)],
    ids=["JacobianMap", "ModelRearrangement", "_j0_energy_route", "_delta_phase_volume", "taylor_remainder"],
)
def test_cosine_mesh_keeps_each_callers_mesh_bit_for_bit(caller, king, monkeypatch, same_bits):
    # scaling by 0.5 is exact, so lo + (hi - lo) u with u = (1 - cos)/2 has
    # the bits of each inline form it replaced
    meshes, inline = caller(king, monkeypatch)
    assert any(same_bits(mesh, inline) for mesh in meshes)


def _pchip_tables(king, poly, pchip_branch_densities):
    """(x, y) tables by name: Q*'s 2048-point table and the Jacobian's a and
    a' tables for King W0 = 3 and q = 1, and the PCHIP slope branches."""
    tables = {}
    for label, model in (("king W0=3", king), ("polytrope q=1", poly)):
        jac = model.rearrangement.jac
        tables[f"Q* {label}"] = (model.rearrangement.breaks, model.rearrangement._v)
        tables[f"a {label}"] = (jac._e_tab, jac._a_tab)
        tables[f"a' {label}"] = (jac._e_tab, jac._ap_tab)
    for name, (grid, rho) in pchip_branch_densities.items():
        tables[name] = (grid.nodes, rho)
    # two nodes, where scipy's PCHIP is the secant line
    tables["two nodes"] = (np.array([0.5, 1.5]), np.array([-1.0, -0.5]))
    return tables


@pytest.mark.parametrize("name", [
    "Q* king W0=3", "a king W0=3", "a' king W0=3", "Q* polytrope q=1", "a polytrope q=1", "a' polytrope q=1",
    "flat run", "sign change", "end clamp to 0", "end clamp to 3 m0", "two nodes",
])
def test_pchip_has_scipys_bits(name, king, poly, pchip_branch_densities, same_bits):
    # scipy is the oracle: the coefficients of PchipInterpolator, its values
    # and those of its PPoly antiderivative and derivative, byte for byte
    from scipy.interpolate import PchipInterpolator

    from vpstab.numerics import pchip

    x, y = _pchip_tables(king, poly, pchip_branch_densities)[name]
    ours, scipys = pchip(x, y), PchipInterpolator(x, y)
    ours_g, scipys_g = ours.antiderivative(), scipys.antiderivative()
    ours_d, scipys_d = ours.derivative(), scipys.derivative()
    assert same_bits(ours.c, scipys.c)
    assert same_bits(ours_g.c, scipys_g.c)
    assert same_bits(ours_d.c, scipys_d.c)
    lo, hi, span = x[0], x[-1], x[-1] - x[0]
    mids = 0.5 * (x[:-1] + x[1:])
    points = {
        "breaks": x,
        "midpoints": mids,
        "ends": np.array([lo, hi, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf)]),
        "outside": np.array([lo - span, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), hi + span]),
        "nan": np.array([np.nan, mids[0], np.nan]),
        "dense line": np.linspace(lo - 0.1 * span, hi + 0.1 * span, 3 * x.size + 1),
        "unsorted 2-d": np.random.default_rng(7).uniform(lo - 0.1 * span, hi + 0.1 * span, (40, 50)),
        "0-d": np.array(mids[-1]),
    }
    for kind, t in points.items():
        assert same_bits(ours(t), scipys(t)), kind
        assert same_bits(ours_g(t), scipys_g(t)), kind
        assert same_bits(ours_d(t), scipys_d(t)), kind


def _searched_pieces(x, t):
    """The pieces and offsets of PiecewisePoly.locate by its search form."""
    i = np.clip(x.searchsorted(t, "right") - 1, 0, x.size - 2)
    return i, t - x[i]


def _bytes_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def _breaks_and_ascending_points(draw):
    """Strictly increasing breaks, and ascending points drawn from the
    breaks themselves and from a span reaching past both ends, with
    repeats."""
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    x = np.sort(np.array(draw(st.lists(finite, min_size=2, max_size=40, unique=True))))
    span = x[-1] - x[0]
    point = st.one_of(st.sampled_from(x.tolist()), st.floats(x[0] - span, x[-1] + span))
    t = np.sort(np.array(draw(st.lists(point, min_size=1, max_size=80)), dtype=float))
    return x, t


@settings(max_examples=300, deadline=None)
@given(case=_breaks_and_ascending_points())
@example(case=(np.array([0.0, 1.0, 2.0, 3.0]), np.array([1.0, 1.0, 2.0, 2.0, 2.0])))  # on breaks, repeated
@example(case=(np.array([0.0, 1.0, 2.0]), np.array([-5.0, -1.0, 0.0, 2.0, 7.0])))  # below and above the breaks
@example(case=(np.array([0.0, 0.5, 1.0, 2.0, 4.0]), np.array([0.7])))  # one point, fewer than the breaks
@example(case=(np.array([0.0, 0.5, 1.0, 2.0, 4.0]), np.array([4.0, 9.0])))  # only the last piece
def test_locate_counts_ascending_points_as_the_search_does(case):
    # the piece of each ascending point, from a count of the breaks below
    # it, equals the search form's piece byte for byte, and so does locate
    from vpstab.numerics import PiecewisePoly

    x, t = case
    pp = PiecewisePoly(x, np.zeros((1, x.size - 1)))
    i, s = _searched_pieces(x, t)
    assert _bytes_equal(pp._count_pieces(t), i)
    got_i, got_s = pp.locate(t)
    assert _bytes_equal(got_i, i) and _bytes_equal(got_s, s)


def test_locate_counts_only_ascending_1d_points_without_nan(monkeypatch, same_bits):
    # the input alone picks the path: a 1-d ascending t without NaN is
    # counted, anything else is searched for point by point; both give the
    # search form's pieces and offsets
    from vpstab.numerics import PiecewisePoly

    x = np.array([0.0, 1.0, 2.0, 3.0])
    pp = PiecewisePoly(x, np.zeros((1, 3)))
    counted = []
    count = PiecewisePoly._count_pieces
    monkeypatch.setattr(PiecewisePoly, "_count_pieces", lambda self, t: counted.append(t.size) or count(self, t))
    cases = {
        "ascending": (np.array([-1.0, 0.0, 0.0, 1.5, 3.0, 9.0]), True),
        "one point": (np.array([2.5]), True),
        "infinite ends": (np.array([-np.inf, 1.0, np.inf]), True),
        "unsorted": (np.array([1.5, 0.5, 2.5]), False),
        "descending": (np.array([2.5, 1.5]), False),
        "one NaN": (np.array([np.nan]), False),
        "NaN first": (np.array([np.nan, 1.0, 2.0]), False),
        "NaN inside": (np.array([0.5, np.nan, 2.0]), False),
        "NaN last": (np.array([0.5, 1.0, np.nan]), False),
        "2-d": (np.linspace(0.0, 3.0, 6).reshape(2, 3), False),
        "0-d": (np.array(1.5), False),
        "empty": (np.zeros(0), False),
    }
    for name, (t, counts) in cases.items():
        counted.clear()
        i, s = pp.locate(t)
        want_i, want_s = _searched_pieces(x, t)
        assert same_bits(i, want_i) and i.dtype == want_i.dtype, name
        assert same_bits(s, want_s), name
        assert counted == ([t.size] if counts else []), name


def test_a_run_loads_neither_scipy_interpolate_nor_optimize():
    # in a fresh process: the import, a lower-bound check, a coercivity
    # constant and a 5-step evolution load scipy.interpolate and
    # scipy.optimize at no point (modulation_shift imports optimize when it
    # is called)
    import os
    import subprocess
    import sys
    from pathlib import Path

    import vpstab

    script = """
import sys
import numpy as np
import vpstab
from vpstab.evolver import evolve, sample_particles
from vpstab.functionals import stability_lower_bound
from vpstab.perturbations import bump_perturbation, padded_phase_density
from vpstab.spectral import coercivity_constant
from vpstab.steady_state import king_model, phase_space_density

def loaded():
    return [name for name in ("scipy.interpolate", "scipy.optimize") if name in sys.modules]

seen = {"import": loaded()}
model = king_model(3.0, n_r=400)
c0 = coercivity_constant(model)
seen["coercivity_constant"] = loaded()
f = bump_perturbation(padded_phase_density(model, n_r=150, n_u=80), 0.01, seed=1)
stability_lower_bound(f, model, c0, shift=np.zeros(3))
seen["stability_lower_bound"] = loaded()
q_fn = lambda r, u: model.profile.evaluate(0.5 * u**2 + model.phi_fn(r))
ens = sample_particles(phase_space_density(model, n_r=100, n_u=50), 2000, seed=1, value_fn=q_fn)
dt = 0.01 * model.dynamical_time
evolve(ens, model, dt=dt, t_end=5 * dt)
seen["evolve"] = loaded()
print(seen)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(vpstab.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(
        {"import": [], "coercivity_constant": [], "stability_lower_bound": [], "evolve": []}
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: Grid1D(nodes=np.array([0.0, 1.0]), edges=np.array([0.0, 0.5, 1.5])),
        lambda: Grid1D(nodes=np.array([-0.5, 1.0]), edges=np.array([0.0, 0.5, 1.5])),
        lambda: eig_tridiag(np.ones(3), np.zeros(2), 0),
        lambda: eig_tridiag(np.ones(3), np.zeros(2), 4),
        lambda: solve_profile_ode(lambda y: 0.0, 1.0, 1e-2),
        lambda: solve_profile_ode(lambda y: -1.0, 1.0, 1e-2),
    ],
    ids=["grid-zero-node", "grid-negative-node", "eig-k-zero", "eig-k-past-n", "ode-zero-source", "ode-negative-source"],
)
def test_numerics_input_guards_raise(call):
    with pytest.raises(InvalidArgumentError):
        call()

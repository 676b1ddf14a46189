import numpy as np
import pytest

from vpstab.numerics import InvalidArgumentError, gl_points, make_1d_grid, panel_rule
from vpstab.poisson import (
    CellMoments,
    DegenerateInputError,
    PotentialX,
    RadialField3D,
    check_X_membership,
    field_energy,
    potential_distance,
    solve_poisson_radial,
)


@pytest.fixture(scope="module")
def ball_grid():
    return make_1d_grid(3.0, 300)


@pytest.fixture(scope="module")
def ball(ball_grid):
    rho0, R = 2.0, 1.0
    rho = np.where(ball_grid.nodes < R, rho0, 0.0)
    return solve_poisson_radial(ball_grid, CellMoments.of(ball_grid, rho)), rho0, R


def test_uniform_ball_interior_exterior(ball, ball_grid):
    pot, rho0, R = ball
    r = ball_grid.nodes
    exact = np.where(r < R, -rho0 * (3 * R**2 - r**2) / 6, -rho0 * R**3 / (3 * r))
    assert np.allclose(pot.phi_fn(r), exact, atol=1e-13)


def test_shell_constant_inside(ball_grid):
    r = ball_grid.nodes
    rho = np.where(np.abs(r - 1.5) < 0.05, 1.0, 0.0)
    pot = solve_poisson_radial(ball_grid, CellMoments.of(ball_grid, rho))
    phi = pot.phi_fn(r)
    inner = phi[r < 1.0]
    assert np.allclose(inner, inner[0], rtol=1e-12)
    outer = r > 2.0
    assert np.allclose(phi[outer], -pot.M / (4 * np.pi * r[outer]), rtol=1e-12)


def test_king_roundtrip(king):
    pot = solve_poisson_radial(king.grid, np.array(king.rho))
    err = np.max(np.abs(pot.phi_fn(king.grid.nodes) - king.phi)) / abs(king.phi_center)
    assert err <= 1e-6


def test_from_model_fields(king, tmp_path):
    from vpstab.steady_state import SteadyStateModel

    path = tmp_path / "king.json"
    king.save(path)
    for model in (king, SteadyStateModel.load(path)):  # built, then rebuilt from its file
        pot = PotentialX.from_model(model)
        assert pot.grid is model.grid and pot.M == model.M
        assert np.array_equal(pot.phi_fn(pot.grid.nodes), model.phi)
        assert pot.min_phi == float(model.phi_fn(np.array([0.0]))[0])
        r = np.linspace(0.0, 1.2 * model.grid.x_max, 97)
        assert np.array_equal(pot.phi_fn(r), model.phi_fn(r))
        assert np.array_equal(pot.dphi_fn(r), model.dphi_fn(r))


def test_cell_moments_must_be_built_on_the_solve_grid(ball, ball_grid):
    for other in (make_1d_grid(3.0, 200), make_1d_grid(2.0, 300)):
        cells = CellMoments.of(other, np.where(other.nodes < 1.0, 2.0, 0.0))
        with pytest.raises(InvalidArgumentError, match="another grid"):
            solve_poisson_radial(ball_grid, cells)
    # a grid built again with the same extent and cells is the same grid
    cells = CellMoments.of(ball_grid, np.where(ball_grid.nodes < 1.0, 2.0, 0.0))
    r = np.linspace(0.0, 4.0, 101)
    assert np.array_equal(solve_poisson_radial(make_1d_grid(3.0, 300), cells).phi_fn(r), ball[0].phi_fn(r))


def test_zero_mass_degenerate(ball_grid):
    with pytest.raises(DegenerateInputError):
        solve_poisson_radial(ball_grid, np.zeros(ball_grid.n))


def test_field_energy_uniform_ball(ball):
    pot, rho0, R = ball
    M = 4 * np.pi * rho0 * R**3 / 3
    # half the squared gradient norm of the ball potential: 3 M^2 / (20 pi R)
    assert field_energy(pot) == pytest.approx(3 * M**2 / (20 * np.pi * R), rel=1e-4)


def test_field_energy_exterior_only():
    # potential -M/(4 pi r) outside R, constant inside: energy M^2/(8 pi R)
    grid = make_1d_grid(5.0, 200)
    M, R = 3.0, 1.0

    def phi_fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < R, -M / (4 * np.pi * R), -M / (4 * np.pi * np.clip(r, 1e-300, None)))

    def dphi_fn(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < R, 0.0, M / (4 * np.pi * np.clip(r, 1e-300, None) ** 2))

    pot = PotentialX.from_callable(grid, phi_fn, dphi_fn, M)
    assert field_energy(pot) == pytest.approx(M**2 / (8 * np.pi * R), rel=1e-3)


def test_field_energy_quadratic_in_density(ball_grid):
    rho = np.exp(-ball_grid.nodes**2)
    e1 = field_energy(solve_poisson_radial(ball_grid, rho))
    e2 = field_energy(solve_poisson_radial(ball_grid, 2 * rho))
    assert e2 == pytest.approx(4 * e1, rel=1e-12)


def test_linearity(ball_grid, rng):
    r1 = rng.uniform(0.0, 1.0, ball_grid.n) * np.exp(-ball_grid.nodes)
    r2 = np.where(ball_grid.nodes < 1.5, 0.7, 0.0)
    p1 = solve_poisson_radial(ball_grid, r1)
    p2 = solve_poisson_radial(ball_grid, r2)
    p12 = solve_poisson_radial(ball_grid, r1 + r2)
    r = ball_grid.nodes
    assert np.allclose(p12.phi_fn(r), p1.phi_fn(r) + p2.phi_fn(r), atol=1e-10)


def test_membership_zero_potential(ball_grid):
    pot = PotentialX.from_callable(
        ball_grid, lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)), 0.0
    )
    member, m_phi = check_X_membership(pot)
    assert not member
    assert m_phi == 0.0


def test_membership_reference_decay(ball_grid):
    # phi = -1/(1+r): decay margin exactly 1
    M_eff = 4 * np.pi  # r phi -> -1/(4 pi) * 4 pi
    pot = PotentialX.from_callable(
        ball_grid,
        lambda r: -1.0 / (1.0 + np.asarray(r, dtype=float)),
        lambda r: 1.0 / (1.0 + np.asarray(r, dtype=float)) ** 2,
        M_eff,
    )
    member, m_phi = check_X_membership(pot)
    assert member
    assert m_phi == pytest.approx(1.0, rel=1e-6)


def test_membership_built_model(king, king_pot):
    member, m_phi = check_X_membership(king_pot)
    assert member
    # lower bound from half the mass within R_Q
    assert m_phi >= king.M / (8 * np.pi * (1 + king.R_Q))


def test_potential_distance_identity(king_pot):
    d_inf, d_grad = potential_distance(king_pot, king_pot, (0.0, 0.0, 0.0))
    assert d_inf == 0.0
    assert d_grad == 0.0


def test_potential_distance_zero_reference(king_pot):
    grid = king_pot.grid
    zero = PotentialX.from_callable(
        grid, lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        lambda r: np.zeros_like(np.asarray(r, dtype=float)), 0.0
    )
    _, d_grad = potential_distance(king_pot, zero, (0.0, 0.0, 0.0))
    assert d_grad**2 == pytest.approx(2 * field_energy(king_pot), rel=1e-4)


def test_potential_distance_small_shift_linear(king_pot):
    # gradient distance to a slightly shifted copy grows linearly in the shift
    eps = np.array([0.01, 0.02, 0.04])
    d = np.array([potential_distance(king_pot, king_pot, (e, 0.0, 0.0))[1] for e in eps])
    slope = np.polyfit(np.log(eps), np.log(d), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_potential_distance_vs_bipolar_oracle(king_pot):
    # independent 1D oracle: |grad(phi - phi_z)|^2 = 2 |grad phi|^2 - 2 X with
    # X = <grad phi, grad phi_z> = -int rho(x) phi(|x - z|) dx, reduced to
    # radial integrals through the spherical average of the shifted potential;
    # |grad phi|^2 = -int rho phi dx is booked by the same shell sum, so the
    # shell discretization cancels at z -> 0
    from scipy.integrate import quad

    pot = king_pot
    z = 0.04

    def phi_avg(s):
        lo, hi = abs(s - z), s + z
        val = quad(lambda t: float(pot.phi_fn(np.array([t]))[0]) * t, lo, hi, epsabs=1e-12)[0]
        return val / (2 * s * z)

    edges = pot.grid.edges
    shell = np.diff(4 * np.pi * edges**2 * pot.dphi_fn(edges))
    occupied = [(m_k, s_k) for m_k, s_k in zip(shell, pot.grid.nodes) if m_k > 0]
    cross = -sum(m_k * phi_avg(s_k) for m_k, s_k in occupied)
    self_term = -sum(m_k * float(pot.phi_fn(np.array([s_k]))[0]) for m_k, s_k in occupied)
    expected = np.sqrt(max(2 * self_term - 2 * cross, 0.0))
    d3d = potential_distance(pot, pot, (z, 0.0, 0.0))[1]
    assert d3d == pytest.approx(expected, rel=2e-3)


def _axisymmetric_distance(pot, d, n_r, n_mu):
    """|grad phi - grad phi(. - d e_3)| by a product rule in (r, cos theta)
    about the origin, where the integrand has no azimuthal dependence:
    n_r Gauss panels of 8 points on [0, r_max + d], n_r / 5 Gauss points in
    t for the exterior r = (r_max + d) / t, n_mu Gauss panels of 8 points in
    cos theta."""
    r_b = pot.r_max + d
    r, w_r = panel_rule(np.linspace(0.0, r_b, n_r + 1), 8)
    t, w_t = gl_points(0.0, 1.0, n_r // 5)
    radii = np.concatenate([r, r_b / t])
    w_radii = np.concatenate([w_r * r**2, r_b**3 * w_t / t**4])
    mu, w_mu = panel_rule(np.linspace(-1.0, 1.0, n_mu + 1), 8)
    rho_cyl = radii[:, None] * np.sqrt(1.0 - mu**2)[None, :]
    x = np.stack([rho_cyl, np.zeros_like(rho_cyl), radii[:, None] * mu[None, :]], axis=-1)
    diff = RadialField3D.of(pot).grad_at(x) - RadialField3D.of(pot, (0.0, 0.0, d)).grad_at(x)
    return float(np.sqrt(2.0 * np.pi * w_radii @ np.sum(diff**2, axis=-1) @ w_mu))


@pytest.mark.parametrize("d, value", [(0.001, 0.012561), (0.01, 0.125589), (0.04, 0.500854), (0.1, 1.231778)])
def test_shifted_distance_vs_axisymmetric_reference(king_pot, d, value):
    ref = _axisymmetric_distance(king_pot, d, 100, 12)
    assert ref == pytest.approx(_axisymmetric_distance(king_pot, d, 200, 24), rel=1e-9)
    assert ref == pytest.approx(value, abs=1e-6)
    # an off-axis shift of the same length: the spherical rule has no symmetry to lean on
    z = d * np.array([2.0, -1.0, 2.0]) / 3.0
    assert potential_distance(king_pot, king_pot, z)[1] == pytest.approx(ref, rel=1e-4)


def test_shifted_distance_has_no_floor(king_pot):
    # |grad phi - grad phi(. - eps e)| / eps tends to |e . grad grad phi|: no
    # quadrature floor as the shift shrinks
    eps = np.array([1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    slopes = np.array([potential_distance(king_pot, king_pot, (e, 0.0, 0.0))[1] / e for e in eps])
    assert np.ptp(slopes) <= 1e-3 * slopes[0]


def test_interpolation_estimate_calibrated(king, rng):
    # |grad phi_g|^2 <= C ||v|^2 g|^{1/2} |g|^{7/6} |g|^{1/3}_sup across random
    # densities, with C calibrated once on the steady state and then frozen
    from vpstab.perturbations import bump_perturbation, padded_phase_density

    base = padded_phase_density(king, n_r=100, n_u=60)

    def ratio(f):
        grad2 = 2 * field_energy(solve_poisson_radial(f.grid.radial, f.rho()))
        kin2 = 2 * f.kinetic()
        bound = kin2**0.5 * f.mass() ** (7 / 6) * f.sup() ** (1 / 3)
        return grad2 / bound

    c_ref = ratio(base)
    c_cal = 2.0 * c_ref
    for k in range(100):
        f = bump_perturbation(base, rng.uniform(0.05, 0.5), rng.integers(2**31))
        assert ratio(f) <= c_cal


def test_potential_stability_estimate(king, rng):
    # |grad dphi| + |dphi|_inf <= C |f - g|_1^{1/6} on random pairs
    from vpstab.perturbations import bump_perturbation, padded_phase_density

    base = padded_phase_density(king, n_r=100, n_u=60)

    def lhs_rhs(f, g):
        pf = solve_poisson_radial(f.grid.radial, f.rho())
        pg = solve_poisson_radial(g.grid.radial, g.rho())
        d_inf, d_grad = potential_distance(pf, pg, (0.0, 0.0, 0.0))
        l1 = float(np.sum(f.measure * np.abs(f.values - g.values)))
        return d_inf + d_grad, l1 ** (1 / 6)

    # calibrate once on an independent seeded ensemble, then verify on fresh
    # pairs (the constant depends only on the energy norms, which the bump
    # family keeps within a fixed band)
    cal_rng = np.random.default_rng(1)
    ratios = []
    for _ in range(25):
        f = bump_perturbation(base, cal_rng.uniform(0.02, 0.4), cal_rng.integers(2**31))
        g = bump_perturbation(base, cal_rng.uniform(0.02, 0.4), cal_rng.integers(2**31))
        lhs, rhs = lhs_rhs(f, g)
        ratios.append(lhs / rhs)
    c_cal = 2.0 * max(ratios)
    for k in range(50):
        f = bump_perturbation(base, rng.uniform(0.02, 0.4), rng.integers(2**31))
        g = bump_perturbation(base, rng.uniform(0.02, 0.4), rng.integers(2**31))
        lhs, rhs = lhs_rhs(f, g)
        assert lhs <= c_cal * rhs


def test_shifted_sup_scan_evaluates_pot1_on_radii_only(king_pot):
    # the fan's pot1 term depends on the radius alone: 2048 points, not
    # 2048 x 257
    import dataclasses

    sizes = []

    def counting_phi(r):
        sizes.append(np.asarray(r).size)
        return king_pot.phi_fn(r)

    pot1 = dataclasses.replace(king_pot, phi_fn=counting_phi)
    dist_inf, _ = potential_distance(pot1, king_pot, (0.01, -0.005, 0.0))
    assert max(sizes) == 2048
    assert dist_inf == potential_distance(king_pot, king_pot, (0.01, -0.005, 0.0))[0]


@pytest.mark.parametrize("method", ["spline", "cells"])
def test_solved_potential_matches_the_where_form_bit_for_bit(king, method, monkeypatch, plain_forms, radius_kinds,
                                                             same_bits):
    # the solve's phi_fn and dphi_fn evaluate the interior formula only on
    # the grid and the monopole law only past it; with the np.where form of
    # branchwise each is evaluated at every radius
    import vpstab.poisson as poisson

    rho = king.rho if method == "spline" else CellMoments.of(king.grid, king.rho)
    pot = solve_poisson_radial(king.grid, rho)
    kinds = radius_kinds(king.grid.x_max, king.R_Q)
    kinds["below tiny"] = np.array([0.0, 0.5e-12, 1e-12, 2e-12]) * king.grid.x_max
    fast = {kind: (pot.phi_fn(r), pot.dphi_fn(r)) for kind, r in kinds.items()}
    monkeypatch.setattr(poisson, "branchwise", plain_forms.branchwise)
    for kind, r in kinds.items():
        assert same_bits(fast[kind][0], pot.phi_fn(r)), kind
        assert same_bits(fast[kind][1], pot.dphi_fn(r)), kind


@pytest.mark.parametrize("method", ["spline", "cells"])
def test_dphi_from_the_sq_moment_alone_matches_the_two_moment_form(king, method, radius_kinds, same_bits):
    # dphi_fn reads the s^2 moment alone; the form that evaluated both
    # moments at each radius and kept the first gives the same bytes, for
    # node samples and for a CellMoments (the evolver records' path)
    from vpstab.poisson import FOUR_PI, _center_value, _moment_spline

    grid = king.grid
    x_max, tiny = grid.x_max, 1e-12 * grid.x_max
    if method == "spline":
        rho = king.rho
        sq, lin = _moment_spline(np.concatenate([[0.0], grid.nodes]),
                                 np.concatenate([[_center_value(grid.nodes, rho)], rho]))

        def moments(r):
            i, s = sq.locate(np.clip(r, 0.0, x_max))
            return sq.at(i, s), lin.at(i, s)

    else:
        rho = cells = CellMoments.of(grid, king.rho)

        def moments(r):
            r = np.clip(r, 0.0, x_max)
            i = np.clip(np.searchsorted(grid.edges, r) - 1, 0, grid.n - 1)
            return cells.cum_sq(r, i), cells.cum_lin(r, i)

    pot = solve_poisson_radial(grid, rho)

    def two_moment_dphi(r):
        r = np.asarray(r, dtype=float)
        rs = np.clip(r, tiny, None)
        inner = np.where(r < tiny, 0.0, moments(rs)[0] / rs**2)
        return np.where(r < x_max, inner, pot.M / (FOUR_PI * rs**2))

    kinds = radius_kinds(x_max, king.R_Q)
    kinds["nodes"] = grid.nodes
    kinds["below tiny"] = np.array([0.0, 0.5e-12, 1e-12, 2e-12]) * x_max
    for kind, r in kinds.items():
        assert same_bits(np.asarray(pot.dphi_fn(r)), two_moment_dphi(r)), kind


@pytest.fixture(scope="module")
def spline_densities(king, poly, ball_grid, pchip_branch_densities):
    """(grid, rho) lists by name: the King W0 = 3 and 6 and q = 1 polytrope
    profiles, the uniform ball, 20 bumps of King W0 = 3 on the lower bound's
    padded 150 x 80 grid, and `pchip_branch_densities`."""
    from vpstab.perturbations import bump_perturbation, padded_phase_density
    from vpstab.steady_state import king_model

    king6 = king_model(6.0, n_r=400)
    base = padded_phase_density(king, n_r=150, n_u=80)
    eps = np.random.default_rng(11).uniform(0.002, 0.02, 20)
    bumps = [bump_perturbation(base, e, seed=300 + i) for i, e in enumerate(eps)]
    return {
        "king W0=3": [(king.grid, king.rho)],
        "king W0=6": [(king6.grid, king6.rho)],
        "polytrope q=1": [(poly.grid, poly.rho)],
        "uniform ball": [(ball_grid, np.where(ball_grid.nodes < 1.0, 2.0, 0.0))],
        "20 bumps": [(f.grid.radial, f.rho()) for f in bumps],
        **{name: [pair] for name, pair in pchip_branch_densities.items()},
    }


@pytest.mark.parametrize("name", ["king W0=3", "king W0=6", "polytrope q=1", "uniform ball", "20 bumps", "flat run",
                                  "sign change", "end clamp to 0", "end clamp to 3 m0"])
def test_spline_solve_matches_scipys_pchip_construction(spline_densities, pchip_potential, name):
    # the moment spline built in closed form gives the potential of scipy's
    # PchipInterpolator integrated exactly against s^2 and s, to rounding
    for grid, rho in spline_densities[name]:
        pot = solve_poisson_radial(grid, rho)
        phi_fn, dphi_fn, M, min_phi = pchip_potential(grid, rho)
        r = np.concatenate([np.linspace(0.0, 1.5 * grid.x_max, 4001), grid.nodes, grid.edges])
        phi, dphi = phi_fn(r), dphi_fn(r)
        assert np.max(np.abs(pot.phi_fn(r) - phi)) <= 1e-14 * np.max(np.abs(phi))
        assert np.max(np.abs(pot.dphi_fn(r) - dphi)) <= 1e-14 * np.max(np.abs(dphi))
        assert abs(pot.M - M) <= 1e-14 * M
        assert abs(pot.min_phi - min_phi) <= 1e-14 * abs(min_phi)


@pytest.mark.parametrize("name", ["king W0=3", "20 bumps", "flat run", "end clamp to 3 m0"])
def test_moment_splines_have_the_bits_of_one_two_column_ppoly(spline_densities, name, same_bits):
    # the two moments as separate polynomials, the first without its zero
    # t^6 row, read as scipy's PPoly of both columns stacked reads them
    from scipy.interpolate import PPoly

    from vpstab.poisson import _center_value, _moment_spline

    for grid, rho in spline_densities[name]:
        x = np.concatenate([[0.0], grid.nodes])
        sq, lin = _moment_spline(x, np.concatenate([[_center_value(grid.nodes, rho)], rho]))
        both = PPoly.construct_fast(np.stack([sq.c, np.vstack([np.zeros((1, lin.c.shape[1])), lin.c])], axis=-1), x)
        r = np.concatenate([np.linspace(0.0, grid.x_max, 4001), x, grid.edges])
        i, s = sq.locate(r)
        assert same_bits(np.stack([sq.at(i, s), lin.at(i, s)], axis=-1), both(r))


def test_center_value_is_the_least_squares_fit():
    # the closed form against LAPACK's least squares on the 3 x 2 problem
    # [1, r_i^2] (a, b) = v_i, over node triples and values spanning 5 and 12
    # decades, and one uniform grid
    from vpstab.poisson import _center_value

    rng = np.random.default_rng(2026)
    triples = [
        (np.cumsum(rng.uniform(0.1, 1.0, 3)) * 10.0 ** rng.uniform(-3, 2), rng.uniform(0.0, 1.0, 3) * 10.0 ** rng.uniform(-6, 6))
        for _ in range(200)
    ]
    nodes = 0.01 * (np.arange(150) + 0.5)
    triples.append((nodes, np.exp(-nodes**2)))
    for r, v in triples:
        fit = np.vstack([np.ones(3), r[:3] ** 2]).T
        expected = np.linalg.lstsq(fit, v[:3], rcond=None)[0][0]
        assert abs(_center_value(r, v) - expected) <= 1e-13 * max(abs(expected), np.max(np.abs(v[:3])))


def test_potential_distance_samples_the_reference_once(king, king_pot):
    # against a model's potential, the second distance reads the samples of
    # the first: the reference's laws are not evaluated again
    import dataclasses

    from vpstab.functionals import hamiltonian
    from vpstab.perturbations import bump_perturbation, padded_phase_density

    calls = []

    def counted(name):
        law = getattr(king_pot, name)

        def wrapper(r):
            calls.append(name)
            return law(r)

        return wrapper

    # a fresh copy of the model's potential, with no samples kept yet
    pot_q = dataclasses.replace(king_pot, phi_fn=counted("phi_fn"), dphi_fn=counted("dphi_fn"))
    base = padded_phase_density(king, n_r=150, n_u=80)
    pot_f, pot_g = (hamiltonian(bump_perturbation(base, 0.01, seed)).pot for seed in (7, 8))
    calls.clear()
    first = potential_distance(pot_f, pot_q)
    assert sorted(calls) == ["dphi_fn", "phi_fn"]
    calls.clear()
    assert potential_distance(pot_f, pot_q) == first
    second = potential_distance(pot_g, pot_q)
    assert calls == []
    assert second != first


def test_potential_samples_are_kept_read_only_per_extent(king_pot):
    import dataclasses

    pot = dataclasses.replace(king_pot)
    line = pot._phi_on_line(2.0, 8192)
    grid, dphi = pot._dphi_on_grid(2.0, 512)
    assert pot._phi_on_line(2.0, 8192) is line and pot._dphi_on_grid(2.0, 512)[1] is dphi
    for arr in (line, dphi):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert np.array_equal(line, king_pot.phi_fn(np.linspace(0.0, 2.0, 8192)))
    assert np.array_equal(dphi, king_pot.dphi_fn(make_1d_grid(2.0, 512).nodes))
    # another extent or node count is sampled afresh and replaces the entry
    assert np.array_equal(pot._phi_on_line(3.0, 8192), king_pot.phi_fn(np.linspace(0.0, 3.0, 8192)))
    assert np.array_equal(pot._dphi_on_grid(2.0, 600)[1], king_pot.dphi_fn(make_1d_grid(2.0, 600).nodes))
    assert pot._phi_on_line(2.0, 8192) is not line


def test_shifted_distance_does_not_depend_on_the_blas_thread_count(king, serial_blas):
    # the spherical rule has 14976 nodes, past the size where a BLAS dot
    # product is split across threads
    from vpstab.functionals import hamiltonian
    from vpstab.perturbations import bump_perturbation, padded_phase_density
    from vpstab.poisson import _space_rule, grad_distance2_shifted

    assert _space_rule()[1].size > 10_000
    base = padded_phase_density(king, n_r=150, n_u=80)
    pots = [hamiltonian(bump_perturbation(base, 0.01, seed)).pot for seed in (7, 8)]
    shifts = [(e, 0.0, 0.0) for e in (1e-4, 1e-3, 1e-2)] + [(0.01, -0.005, 0.02)]
    pairs = [(RadialField3D.of(p), RadialField3D.of(king.potential(), z)) for p in pots for z in shifts]
    default = [grad_distance2_shifted(a, b) for a, b in pairs]
    with serial_blas():
        serial = [grad_distance2_shifted(a, b) for a, b in pairs]
    assert np.array(default).tobytes() == np.array(serial).tobytes()


def _dense_pair(grid, rho1, rho2):
    """The node-shell Green pair energy through the dense kernel
    1/(4 pi max(r, s)) on node masses: the O(n^2) oracle."""
    kernel = 1.0 / (4.0 * np.pi * np.maximum.outer(grid.nodes, grid.nodes))
    m1, m2 = 4.0 * np.pi * grid.sq_moments * rho1, 4.0 * np.pi * grid.sq_moments * rho2
    return -0.5 * float(m1 @ kernel @ m2)


def test_shell_pair_matches_the_dense_kernel(king, rng):
    from vpstab.perturbations import ensemble
    from vpstab.poisson import _shell_pair

    pairs = []
    # criterion 2's densities, against themselves and against a signed field
    for _, f in ensemble(king, 45, seed=99):
        grid, rho = f.grid.radial, f.rho()
        pairs += [(grid, rho, rho), (grid, rho, rho * rng.uniform(-1.0, 1.0, grid.n))]
    for n in (16, 100, 400):
        grid = make_1d_grid(rng.uniform(0.5, 5.0), n)
        pairs += [(grid, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)) for _ in range(10)]
    assert len(pairs) == 120
    for grid, rho1, rho2 in pairs:
        got, want = _shell_pair(grid, rho1, rho2), _dense_pair(grid, rho1, rho2)
        assert abs(got - want) <= 1e-13 * max(abs(got), abs(want))
        assert _shell_pair(grid, rho2, rho1) == pytest.approx(got, rel=1e-13)


def test_shell_self_pair_is_a_sum_of_squares(rng):
    # -1/(8 pi) sum_k (1/r_k - 1/r_{k+1}) M_k^2 over the enclosed masses M;
    # the coupling -P(delta, delta) is nonnegative exactly, not up to rounding
    from vpstab.poisson import _shell_pair

    grid = make_1d_grid(2.0, 200)
    w = -np.diff(np.append(1.0 / grid.nodes, 0.0))
    assert np.all(w >= 0.0)
    for _ in range(1000):
        delta = rng.normal(size=grid.n) * rng.uniform(1e-8, 1e2)
        M = np.cumsum(4.0 * np.pi * grid.sq_moments * delta)
        self_pair = _shell_pair(grid, delta, delta)
        assert self_pair == pytest.approx(-float((w * M * M).sum()) / (8.0 * np.pi), rel=1e-14)
        assert -self_pair >= 0.0


def _parent_model_laws(model):
    """A model's phi and phi' as they were written before the exterior law
    had one copy: the interior solution below R_Q, -M/(4 pi max(r, R_Q)) and
    its derivative from R_Q on, at least 1-d."""
    from vpstab.numerics import branchwise

    R_Q, M, e0, interior = model.R_Q, model.M, model.e0, model.interior

    def phi(r):
        r = np.asarray(r, dtype=float)
        return np.atleast_1d(branchwise(
            r, r < R_Q,
            lambda x: e0 - interior.psi(np.clip(x, 0.0, R_Q)),
            lambda x: -M / (4.0 * np.pi * np.maximum(x, R_Q)),
        ))

    def dphi(r):
        r = np.asarray(r, dtype=float)
        return np.atleast_1d(branchwise(
            r, r < R_Q,
            lambda x: -interior.dpsi(np.clip(x, 0.0, R_Q)),
            lambda x: M / (4.0 * np.pi * np.maximum(x, R_Q) ** 2),
        ))

    return phi, dphi


def _parent_green_laws(grid, rho):
    """solve_poisson_radial's phi and phi' as they were written before the
    exterior law had one copy, for node samples and for a CellMoments."""
    from vpstab.numerics import branchwise
    from vpstab.poisson import FOUR_PI, _center_value, _moment_spline

    if isinstance(rho, CellMoments):
        cells, M, tot1 = rho, rho.M, float(rho.edge_cum_lin[-1])

        def locate(r):
            r = np.clip(r, 0.0, grid.x_max)
            return r, np.clip(np.searchsorted(grid.edges, r) - 1, 0, grid.n - 1)

        cum_sq, cum_lin = cells.cum_sq, cells.cum_lin
    else:
        rho = np.clip(rho, 0.0, None)
        sq, lin = _moment_spline(np.concatenate([[0.0], grid.nodes]),
                                 np.concatenate([[_center_value(grid.nodes, rho)], rho]))

        def locate(r):
            return sq.locate(np.clip(r, 0.0, grid.x_max))

        cum_sq, cum_lin = sq.at, lin.at
        sq_max, tot1 = (float(moment(*locate(grid.x_max))) for moment in (cum_sq, cum_lin))
        M = FOUR_PI * sq_max
    tiny = 1e-12 * grid.x_max

    def phi_inner(r):
        at = locate(r)
        return -cum_sq(*at) / np.clip(r, 1e-300, None) - (tot1 - cum_lin(*at))

    def dphi_inner(r):
        rs = np.clip(r, tiny, None)
        return np.where(r < tiny, 0.0, cum_sq(*locate(rs)) / rs**2)

    def phi(r):
        r = np.asarray(r, dtype=float)
        return branchwise(r, r < grid.x_max, phi_inner, lambda x: -M / (FOUR_PI * np.clip(x, 1e-300, None)))

    def dphi(r):
        r = np.asarray(r, dtype=float)
        return branchwise(r, r < grid.x_max, dphi_inner, lambda x: M / (FOUR_PI * np.clip(x, tiny, None) ** 2))

    return phi, dphi


def _parent_table_laws(r, phi, M):
    """`vpstab shift`'s table potential as it was written before the exterior
    law had one copy: both laws at every radius, picked by np.where."""
    from vpstab.numerics import pchip

    interp = pchip(r, phi)
    dinterp = interp.derivative()
    return (
        lambda x: np.where(x < r[-1], interp(np.clip(x, r[0], r[-1])), -M / (4 * np.pi * np.clip(x, 1e-300, None))),
        lambda x: np.where(x < r[-1], dinterp(np.clip(x, r[0], r[-1])), M / (4 * np.pi * np.clip(x, 1e-300, None) ** 2)),
    )


def _edge_radii(R, x_max):
    """0, 1e-12 x_max (where the Green solve's phi' starts), R and x_max with
    one ulp either side of each, and a geometric line out to 1e3 R."""
    tiny = 1e-12 * x_max
    near = [0.0, 0.5 * tiny]
    for a in (tiny, R, x_max):
        near += [np.nextafter(a, 0.0), a, np.nextafter(a, np.inf)]
    return {
        "edges": np.array(near),
        "out to 1e3 R": np.geomspace(1e-14 * R, 1e3 * R, 4001),
        "0-d at x_max": np.array(x_max),
        "float at 1e3 R": 1e3 * R,
    }


@pytest.fixture(scope="module")
def continued_models(king):
    import dataclasses

    from vpstab.steady_state import king_model, polytrope_model

    models = {"king 3": king, "king 12": king_model(12.0), "q 1": polytrope_model(1.0), "q 3.45": polytrope_model(3.45)}
    models["king 3, e0 - 0.25"] = dataclasses.replace(king, e0=king.e0 - 0.25)
    return models


@pytest.mark.parametrize("name", ["king 3", "king 12", "q 1", "q 3.45", "king 3, e0 - 0.25"])
def test_monopole_continued_keeps_the_parent_laws_bit_for_bit(continued_models, name, radius_kinds, same_bits):
    # every continued potential reads -M/(4 pi r) and M/(4 pi r^2) from
    # poisson.monopole_continued; each gives the bytes of the laws it
    # replaced, on both sides of its edge and at the edge's neighbours
    from vpstab.cli import _table_potential

    model = continued_models[name]
    grid = model.grid
    radii = {**radius_kinds(model.R_Q, grid.x_max), **_edge_radii(model.R_Q, grid.x_max)}
    pot, (phi, dphi) = model.potential(), _parent_model_laws(model)
    cases = [("model", model.phi_fn, model.dphi_fn, phi, dphi)]
    # the potential's 0-d result is that of the law that covers it: (1,)
    # inside, as the interior's dense output is at least 1-d, and 0-d outside
    cases.append(("potential", lambda r: np.atleast_1d(pot.phi_fn(r)), lambda r: np.atleast_1d(pot.dphi_fn(r)),
                  phi, dphi))
    for kind, rho in (("spline", model.rho), ("cells", CellMoments.of(grid, model.rho))):
        green = solve_poisson_radial(grid, rho)
        cases.append((kind, green.phi_fn, green.dphi_fn, *_parent_green_laws(grid, rho)))
    r_tab = grid.nodes[::2]
    table = {"r": r_tab, "phi": model.phi_fn(r_tab), "M": model.M}
    tab = _table_potential(table, "table")
    cases.append(("table", tab.phi_fn, tab.dphi_fn, *_parent_table_laws(r_tab, table["phi"], model.M)))
    radii.update({f"table {k}": v for k, v in _edge_radii(r_tab[-1], r_tab[-1]).items()})
    with np.errstate(divide="ignore", invalid="ignore"):
        for label, new_phi, new_dphi, old_phi, old_dphi in cases:
            for kind, r in radii.items():
                assert same_bits(new_phi(r), old_phi(r)), (label, kind)
                assert same_bits(new_dphi(r), old_dphi(r)), (label, kind)
    assert np.shape(pot.phi_fn(np.array(2.0 * model.R_Q))) == () and np.shape(pot.phi_fn(0.5 * model.R_Q)) == (1,)
    # the model's table: psi clipped at 0 inside, -M/(4 pi r) from R_Q on
    nodes = grid.nodes
    table_phi = np.where(nodes < model.R_Q, model.e0 - np.clip(model.interior.psi(np.clip(nodes, 0.0, model.R_Q)),
                                                                0.0, None), -model.M / (4.0 * np.pi * nodes))
    if name != "king 3, e0 - 0.25":  # a copy keeps the table of the model it copies
        assert same_bits(model.phi, table_phi)


@pytest.mark.parametrize(
    "rho, message",
    [(lambda n: np.ones(n - 1), "shape"), (lambda n: np.full(n, -1.0), "nonnegative")],
    ids=["wrong-shape", "negative"],
)
def test_solve_rejects_a_density_it_cannot_read(ball_grid, rho, message):
    with pytest.raises(InvalidArgumentError, match=message):
        solve_poisson_radial(ball_grid, rho(ball_grid.n))

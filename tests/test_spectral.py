import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from vpstab.numerics import InvalidArgumentError
from vpstab.poisson import RadialField3D, solve_poisson_radial
from vpstab.spectral import (
    Direction,
    coercivity_constant,
    compactness_ratio,
    hardy_check,
    harmonic_operator_spectrum,
    hessian_form,
    hormander_identity_check,
    modulation_shift,
    project_energy,
    smooth_bump_direction,
    taylor_remainder,
)
from vpstab.steady_state import king_model, polytrope_model


def test_effective_potential_support_and_values(king):
    r = np.array([0.0, 0.3 * king.R_Q, 0.94 * king.R_Q, 1.2 * king.R_Q, 2.0 * king.R_Q])
    v = king.vq_fn(r)
    assert np.all(v >= 0)
    assert v[0] > v[1] > v[2] > 0
    assert v[3] == v[4] == 0.0
    # independent quadrature oracle at the centre
    phi0 = king.phi_center
    oracle = (
        4
        * np.pi
        * np.sqrt(2)
        * quad(lambda e: np.exp(king.e0 - e) * np.sqrt(e - phi0), phi0, king.e0, epsabs=1e-13)[0]
    )
    assert v[0] == pytest.approx(oracle, rel=1e-10)


def test_effective_potential_polytrope_closed_form(poly):
    # V = 4 pi sqrt(2) q B(q, 3/2) psi^(q + 1/2) for the polytrope family
    from scipy.special import beta as beta_fn

    r = np.array([0.2 * poly.R_Q, 0.6 * poly.R_Q])
    psi = poly.psi_fn(r)
    expected = 4 * np.pi * np.sqrt(2) * 1.0 * beta_fn(1.0, 1.5) * psi ** (1.0 + 0.5)
    assert np.allclose(poly.vq_fn(r), expected, rtol=1e-12)


def test_projector_fixes_constants(king):
    vals = project_energy(lambda r: np.full_like(np.asarray(r, dtype=float), 2.5), king)
    assert np.allclose(vals, 2.5, atol=1e-12)


@pytest.mark.parametrize("which", ["king", "poly"])
def test_energy_mesh_turning_radii_are_roots(which, request):
    model = request.getfixturevalue(which)
    mesh = model.energy_mesh
    for e, r_t in zip(mesh.e, mesh.r_turn):
        root = brentq(lambda r: float(model.phi_fn(np.array([r]))[0]) - e, 0.0, model.R_Q, xtol=1e-15, rtol=1e-15)
        assert abs(r_t - root) <= 1e-12 * model.R_Q


def test_radial_quad_matches_the_per_panel_loop(king):
    from vpstab.numerics import gl_points
    from vpstab.spectral import _radial_quad

    d = smooth_bump_direction(king, 0.45)
    fn = lambda r: king.vq_fn(r) * d.h(r) ** 2 * r**2
    bounds = np.linspace(0.0, king.R_Q, 65)
    reference = 0.0
    for a, b in zip(bounds[:-1], bounds[1:]):
        r, w = gl_points(a, b, 8)
        reference += float(np.dot(w, fn(r)))
    assert _radial_quad(fn, king.R_Q) == pytest.approx(reference, rel=512 * np.finfo(float).eps)


def test_projector_oracle_values(king):
    # direct quadrature of the weighted average at a few energies
    mesh = king.energy_mesh
    vals = project_energy(lambda r: king.phi_fn(r), king)
    for idx in (20, 120, 230):
        e = mesh.e[idx]
        r_t = mesh.r_turn[idx]
        num = quad(
            lambda r: float(king.phi_fn(np.array([r]))[0])
            * np.sqrt(max(e - float(king.phi_fn(np.array([r]))[0]), 0.0))
            * r**2,
            0.0,
            r_t,
            epsabs=1e-12,
        )[0]
        den = quad(
            lambda r: np.sqrt(max(e - float(king.phi_fn(np.array([r]))[0]), 0.0)) * r**2,
            0.0,
            r_t,
            epsabs=1e-12,
        )[0]
        assert vals[idx] == pytest.approx(num / den, rel=1e-6)


def test_projector_annihilates_centered_deviation(king):
    # subtract a radial function's energy average at one energy: the averaged
    # deviation vanishes at that energy (projector property, per energy shell)
    direction = smooth_bump_direction(king, 0.4, 0.2)
    ph = project_energy(direction.h, king)
    for idx in (30, 128, 220):
        c = ph[idx]
        ph_dev = project_energy(lambda r: direction.h(r) - c, king)
        assert abs(ph_dev[idx]) <= 1e-12 * max(abs(c), 1.0)


def test_hessian_form_constant_direction(king):
    from vpstab.spectral import Direction

    const = Direction(
        h=lambda r: np.full_like(np.asarray(r, dtype=float), 1.3),
        dh=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        extent=3.0 * king.R_Q,
    )
    val = hessian_form(const, king)
    scale = 4 * np.pi * king.vq_fn(np.array([0.0]))[0] * king.R_Q**3
    assert abs(val) <= 1e-8 * scale


def test_hessian_form_exterior_direction(king):
    # supported outside the model: only the Dirichlet term remains, positive
    direction = smooth_bump_direction(king, 0.5, 0.25)
    shifted = lambda r: direction.h(np.asarray(r, dtype=float) - 1.5 * king.R_Q)
    dshifted = lambda r: direction.dh(np.asarray(r, dtype=float) - 1.5 * king.R_Q)
    from vpstab.spectral import Direction

    outside = Direction(h=shifted, dh=dshifted, extent=4.0 * king.R_Q)
    # zero the part inside the support
    val = hessian_form(outside, king)
    from vpstab.spectral import _radial_quad

    grad = 4 * np.pi * _radial_quad(lambda r: outside.dh(r) ** 2 * r**2, outside.extent)
    assert val == pytest.approx(grad, rel=1e-6)
    assert val > 0


def test_hessian_positive_random_directions(king, rng):
    scale = 4 * np.pi * float(king.vq_fn(np.array([0.0]))[0]) * king.R_Q
    for _ in range(200):
        d = smooth_bump_direction(
            king,
            center_frac=rng.uniform(0.2, 0.8),
            width_frac=rng.uniform(0.1, 0.35),
        )
        assert hessian_form(d, king) >= -1e-10 * scale


def test_radial_coercivity_inequality(king, rng):
    # D2J(h, h) >= c0 |grad h|^2 for radial directions (away from the k=1
    # translation kernel, which radial h cannot touch)
    from vpstab.spectral import _radial_quad

    c0 = coercivity_constant(king)
    for _ in range(30):
        d = smooth_bump_direction(
            king, center_frac=rng.uniform(0.2, 0.8), width_frac=rng.uniform(0.1, 0.35)
        )
        grad2 = 4 * np.pi * _radial_quad(lambda r: d.dh(r) ** 2 * r**2, d.extent)
        assert hessian_form(d, king) >= 0.99 * c0 * grad2


def test_local_coercivity_of_reduced_functional(king):
    # J(phi_Q + eps h) - J(phi_Q) >= (c0/2) |grad(eps h)|^2 for small radial
    # perturbations: the functional-level statement behind the spectral gap
    from vpstab.spectral import _radial_quad

    c0 = coercivity_constant(king)
    d = smooth_bump_direction(king, 0.5, 0.25)
    rep = taylor_remainder(king, d, (3e-2, 1e-2))
    grad2 = 4 * np.pi * _radial_quad(lambda r: d.dh(r) ** 2 * r**2, d.extent)
    for eps, dj in zip(rep.epsilons, rep.delta_J):
        assert dj >= 0.5 * c0 * eps**2 * grad2


def test_k1_kernel(king):
    rep = harmonic_operator_spectrum(king, 1, n_eigs=2)
    vmax = float(king.vq_fn(np.array([0.0]))[0])
    assert abs(rep.eigenvalues[0]) <= 1e-3 * vmax
    assert rep.kernel_residual <= 1e-3  # cosine similarity >= 0.999
    assert rep.eigenvalues[1] > 0.1


def test_k0_k2_k3_positive(king):
    for k in (0, 2, 3):
        rep = harmonic_operator_spectrum(king, k, n_eigs=2)
        assert rep.eigenvalues[0] > 0
        assert np.all(np.diff(rep.eigenvalues) >= -1e-12)


def test_kernel_only_at_k1(king):
    # Dirichlet-normalized spectra: only k = 1 has a near-zero mode
    from vpstab.spectral import _SectorMatrices

    sm = _SectorMatrices(king)
    floors = {k: sm.dirichlet_eigenvalues(k, 2)[0] for k in (0, 1, 2, 3)}
    assert floors[1] <= 1e-3
    for k in (0, 2, 3):
        assert floors[k] > 0.3


def test_centrifugal_monotonicity(king):
    # fixed index eigenvalues increase with the harmonic number for k >= 1
    lams = [harmonic_operator_spectrum(king, k, n_eigs=1).eigenvalues[0] for k in (1, 2, 3, 4)]
    assert np.all(np.diff(lams) > 0)


def test_coercivity_constant_values(king, poly):
    c0 = coercivity_constant(king)
    assert c0 == pytest.approx(0.4126, rel=0.05)  # frozen regression value
    c0p = coercivity_constant(poly)
    assert c0p > 0


def test_coercivity_stable_under_refinement(king):
    c0 = coercivity_constant(king, n=800)
    c0_fine = coercivity_constant(king, n=1600)
    assert abs(c0_fine - c0) / c0 <= 0.05


def test_coercivity_pure_laplacian(king):
    # with the attraction switched off the form equals the Dirichlet energy
    from vpstab.spectral import _SectorMatrices
    from scipy import linalg

    sm = _SectorMatrices(king, n=400, r_max_factor=6.0)
    sm.V = np.zeros_like(sm.V)
    d, e = sm.sector_tridiag(2)
    A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    N = sm.dirichlet_matrix(2)
    vals = linalg.eigh(A, N, eigvals_only=True, subset_by_index=(0, 2))
    assert np.allclose(vals, 1.0, atol=1e-10)


def test_compactness_proxy(king):
    assert compactness_ratio(king, r_max_factor=10.0) <= 1e-2


def test_compactness_ratio_does_not_depend_on_the_blas_thread_count(king, serial_blas, same_bits):
    threaded = compactness_ratio(king)
    with serial_blas():
        assert same_bits(compactness_ratio(king), threaded)


def test_hormander_model_residual(king):
    rng = np.random.default_rng(0)
    u_esc = float(king.u_escape(np.array([0.0]))[0])
    sample = [
        (r, u)
        for r, u in zip(rng.uniform(0.2, 0.8, 10) * king.R_Q, rng.uniform(0.2, 0.6, 10) * u_esc)
    ]
    res = hormander_identity_check(king, sample, step_frac=1e-4)
    assert res <= 1e-4
    res2 = hormander_identity_check(king, sample, step_frac=2e-4)
    assert res2 / res == pytest.approx(4.0, rel=0.25)


def test_hormander_synthetic_harmonic_potential():
    # phi = r^2/2 with analytic derivatives: the commuting-operator identity
    # holds at the finite-difference floor
    class Synthetic:
        R_Q = 10.0

        @staticmethod
        def phi_fn(r):
            return 0.5 * np.asarray(r, dtype=float) ** 2

        @staticmethod
        def dphi_fn(r):
            return np.asarray(r, dtype=float)

        @staticmethod
        def rho_fn(r):
            return np.full_like(np.asarray(r, dtype=float), 3.0)

    sample = [(1.0, 1.0), (2.0, 0.7), (0.8, 1.3)]
    res = hormander_identity_check(Synthetic(), sample, step_frac=1e-5)
    assert res <= 1e-6  # finite-difference floor; the exact algebra is
    # covered by the symbolic identity test below


def test_hormander_symbolic_identity(king):
    # analytic second application of the transport operator on g = (r u)^3
    # against the closed form, no differencing involved
    def t2_over_g(r, u):
        rho = float(king.rho_fn(np.array([r]))[0])
        dphi = float(king.dphi_fn(np.array([r]))[0])
        return -3.0 * (rho + dphi / r) / (r * u) ** 4

    rng = np.random.default_rng(3)
    for _ in range(5):
        r = rng.uniform(0.2, 0.8) * king.R_Q
        u = rng.uniform(0.3, 0.8) * float(king.u_escape(np.array([r]))[0])
        # exact partial-derivative expansion of T^2 g for g = r^3 u^3:
        # T^2 g = -(3/(r u)) (rho + phi'/r)  [all other terms cancel]
        rho = float(king.rho_fn(np.array([r]))[0])
        dphi = float(king.dphi_fn(np.array([r]))[0])
        t2g = -(3.0 / (r * u)) * (rho + dphi / r)
        g = (r * u) ** 3
        assert -t2g / g == pytest.approx(-t2_over_g(r, u), rel=1e-12)


def test_hormander_excludes_boundary_points(king):
    with pytest.warns(UserWarning):
        with pytest.raises(InvalidArgumentError):
            hormander_identity_check(king, [(king.R_Q * 0.9999, 0.01)])


def test_taylor_remainder_zero_direction(king):
    from vpstab.spectral import Direction

    zero = Direction(
        h=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        dh=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        extent=king.R_Q,
    )
    rep = taylor_remainder(king, zero, (1e-1, 1e-2))
    assert np.allclose(rep.delta_J, 0.0, atol=1e-12)
    assert rep.hessian_analytic == pytest.approx(0.0, abs=1e-12)


def test_taylor_remainder_bump(king):
    d = smooth_bump_direction(king, 0.5, 0.25)
    eps = (1e-1, 3e-2, 1e-2, 3e-3)
    rep = taylor_remainder(king, d, eps)
    # vanishing first variation: slope decreases linearly with eps
    ratio = rep.first_slope / rep.epsilons
    assert np.allclose(ratio, ratio.mean(), rtol=0.05)
    assert abs(rep.first_slope[-1]) <= 1e-2 * np.sqrt(
        4 * np.pi * abs(rep.hessian_analytic)
    )
    # remainder decreases from the truncation regime to the quadrature floor
    assert abs(rep.remainder_over_eps2[1]) < abs(rep.remainder_over_eps2[0])
    assert np.max(np.abs(rep.remainder_over_eps2)) <= 2e-2 * abs(rep.hessian_analytic)
    # extrapolated Hessian matches the analytic quadratic form
    assert rep.hessian_extrapolated == pytest.approx(rep.hessian_analytic, rel=0.02)


def test_taylor_rejects_inadmissible(king):
    # a perturbation large enough to push the potential positive is refused
    bump = smooth_bump_direction(king, 0.5, 0.3)  # amplitude -0.1 |phi(0)|
    d = Direction(h=lambda r: -200.0 * bump.h(r), dh=lambda r: -200.0 * bump.dh(r), extent=bump.extent)
    with pytest.raises(InvalidArgumentError, match="admissible class"):
        taylor_remainder(king, d, (0.5, 0.25))


@pytest.mark.parametrize(
    "eps",
    [(1e-2,), (1e-2, 1e-2), (1e-2, 0.0), (1e-2, np.nan)],
    ids=["one", "repeated", "zero", "nan"],
)
def test_taylor_rejects_epsilons_without_a_richardson_pair(king, eps):
    # one epsilon failed with a bare IndexError in the Richardson step, and a
    # repeated or zero epsilon divided by zero there
    d = smooth_bump_direction(king, 0.5, 0.25)
    with pytest.raises(InvalidArgumentError, match="distinct, finite, positive epsilons"):
        taylor_remainder(king, d, eps)


def test_hardy_control(king, rng):
    for _ in range(5):
        d = smooth_bump_direction(
            king, center_frac=rng.uniform(0.2, 0.7), width_frac=rng.uniform(0.1, 0.3)
        )
        lhs, rhs = hardy_check(king, d)
        assert lhs >= rhs * (1 - 1e-9)
        assert rhs > 0


def test_modulation_shift_rejects_a_non_finite_objective(king, monkeypatch):
    # a field with a NaN in its gradient makes every objective value NaN, and
    # the failure guard res.fun > 1e-6 is false for NaN: before, a shift came
    # back, and then Nelder-Mead ran to its 600-iteration cap (about 3000
    # objective calls) before the guard on its result fired. The objective
    # at the start now fails it after one call
    import dataclasses

    import vpstab.spectral as spectral

    calls = []
    distance = spectral.grad_distance2_shifted
    monkeypatch.setattr(spectral, "grad_distance2_shifted", lambda field, ref: calls.append(1) or distance(field, ref))
    nan_pot = dataclasses.replace(king.potential(), dphi_fn=lambda r: np.full(np.shape(r), np.nan))
    with pytest.raises(spectral.ModulationError, match="objective nan"):
        modulation_shift(RadialField3D.of(nan_pot, (0.01, 0.0, 0.0)), king)
    assert len(calls) == 1


def test_modulation_identity(king):
    z, resid = modulation_shift(RadialField3D.of(king.potential()), king)
    assert np.linalg.norm(z) <= 1e-6 * king.R_Q
    assert np.max(np.abs(resid)) <= 1e-8


def test_modulation_exact_translate(king):
    field = RadialField3D.of(king.potential(), center=(0.1, 0.0, 0.0))
    z, resid = modulation_shift(field, king)
    assert np.linalg.norm(z - np.array([0.1, 0.0, 0.0])) <= 1e-4
    assert np.max(np.abs(resid)) <= 1e-6


def test_modulation_off_axis_translate(king):
    c = np.array([0.05, -0.03, 0.02])
    field = RadialField3D.of(king.potential(), center=c)
    z, resid = modulation_shift(field, king, seed=c + np.array([0.02, 0.01, -0.01]))
    assert np.linalg.norm(z - c) <= 1e-6 * king.R_Q
    assert np.max(np.abs(resid)) <= 1e-6


class _SumField:
    """Superposition of recentred radial fields, for a modulation_shift
    given a seed."""

    def __init__(self, *parts):
        self.parts = parts
        self.extent = max(p.extent for p in parts)

    def grad_at(self, pts):
        return sum(p.grad_at(pts) for p in self.parts)


def test_modulation_translate_plus_bump(king):
    # a small centred radial bump added to a translate: recovered shift stays
    # within a constant times the bump amplitude
    base = king.potential()
    grid = base.grid
    rho_bump = np.exp(-((grid.nodes - 0.5 * king.R_Q) ** 2) / (0.2 * king.R_Q) ** 2)
    z0 = np.array([0.08, 0.0, 0.0])
    errs = []
    amps = (1e-3, 4e-3)
    for amp in amps:
        bump_pot = solve_poisson_radial(grid, amp * king.rho.max() * rho_bump)
        field = _SumField(RadialField3D.of(base, center=z0), RadialField3D.of(bump_pot))
        z, _ = modulation_shift(field, king, seed=z0)
        errs.append(np.linalg.norm(z - z0))
    assert errs[0] <= 0.05 * king.R_Q
    # linear response: error scales roughly with the amplitude
    assert errs[1] / errs[0] == pytest.approx(amps[1] / amps[0], rel=0.6)


def _dense_sector(sm, k, projector):
    d, e = sm.sector_tridiag(k)
    A = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    if k == 0:
        A = A + projector
    return A, sm.dirichlet_matrix(k)


def _loop_projector(sm):
    # reference: the interpolation rows built one energy at a time
    mesh = sm.mesh
    b = np.zeros((mesh.e.size, sm.n))
    for m in range(mesh.e.size):
        rq = mesh.r_nodes[m]
        wq = mesh.r_weights[m] / mesh.denom[m]
        idx = np.clip(np.searchsorted(sm.r, rq) - 1, 0, sm.n - 2)
        r0, r1 = sm.r[idx], sm.r[idx + 1]
        t = np.clip((rq - r0) / (r1 - r0), 0.0, 1.0)
        np.add.at(b[m], idx, wq * (1 - t))
        np.add.at(b[m], idx + 1, wq * t)
    omega = mesh.w_fprime * mesh.a_prime
    c = (b * omega[:, None]).T @ b
    dinv = 1.0 / sm.r
    return (c * dinv[None, :]) * dinv[:, None] / (4 * np.pi * sm.dr)


@pytest.mark.parametrize("n", [400, 800])
@pytest.mark.parametrize("which", ["king", "poly"])
def test_structured_solves_match_dense_eigh(which, n, request):
    from scipy import linalg

    from vpstab.spectral import _SectorMatrices

    model = request.getfixturevalue(which)
    sm = _SectorMatrices(model, n=n)
    u = sm.projector_factor()
    ref = _loop_projector(sm)
    assert np.max(np.abs(u @ u.T - ref)) <= 1e-14 * np.max(np.abs(ref))
    lows = {}
    for k in range(4):
        A, N = _dense_sector(sm, k, ref)
        rep = harmonic_operator_spectrum(model, k, n_eigs=3, n=n)
        gvals = linalg.eigh(A, N, eigvals_only=True, subset_by_index=(0, 2))
        # the k = 1 translation eigenvalue is O(1e-4), at the rounding floor
        # of both solvers in absolute terms
        np.testing.assert_allclose(sm.dirichlet_eigenvalues(k, 3), gvals, rtol=1e-10, atol=1e-13)
        lows[k] = gvals
        if k == 0:
            vals, vecs = linalg.eigh(A, subset_by_index=(0, 2))
            np.testing.assert_allclose(rep.eigenvalues, vals, rtol=1e-10)
            signs = np.sign(np.sum(rep.eigenvectors * vecs, axis=0))
            np.testing.assert_allclose(rep.eigenvectors * signs, vecs, rtol=0, atol=1e-8)
    c0 = coercivity_constant(model, n=n)
    assert c0 == pytest.approx(min(lows[0][0], lows[1][1], lows[2][0]), rel=1e-10)


@pytest.mark.parametrize("which", ["king", "poly"])
def test_support_capacitance_matches_the_dense_one(which, request):
    # U and V vanish past the first n_s rows, and the capacitance built from
    # those rows (with the Schur corner of the exterior block) is the dense
    # I + U^T K^{-1} U, for the Dirichlet and the standard shift
    from vpstab.numerics import eig_tridiag
    from vpstab.spectral import _SectorMatrices

    model = request.getfixturevalue(which)
    sm = _SectorMatrices(model, n=400)
    u, n_s = sm._projector_factor
    assert sm.projector_factor() is u and n_s < sm.n
    assert np.all(u[n_s:] == 0.0) and np.any(u[n_s - 1] != 0.0)
    assert np.all(sm.V[n_s:] == 0.0)
    A, N = _dense_sector(sm, 0, 0.0)
    floor = eig_tridiag(*sm.sector_tridiag(0), 1)[0][0]
    for sigma, mass in ((-1.0, N), (floor - 1.0, np.eye(sm.n))):
        K = A - sigma * mass
        dense = np.eye(u.shape[1]) + u.T @ np.linalg.solve(K, u)
        cap = sm._capacitance(np.diag(K), np.diag(K, 1), sigma)
        assert np.max(np.abs(cap - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("which", ["king", "poly"])
def test_radial_sector_matches_dense_eigh_at_n1600(which, request):
    from scipy import linalg

    from vpstab.spectral import _SectorMatrices

    model = request.getfixturevalue(which)
    sm = _SectorMatrices(model, n=1600)
    u = sm.projector_factor()
    A, N = _dense_sector(sm, 0, u @ u.T)
    gvals = linalg.eigh(A, N, eigvals_only=True, subset_by_index=(0, 2))
    np.testing.assert_allclose(sm.dirichlet_eigenvalues(0, 3), gvals, rtol=1e-10)
    vals = linalg.eigh(A, eigvals_only=True, subset_by_index=(0, 2))
    np.testing.assert_allclose(sm.radial_eigenpairs(3)[0], vals, rtol=1e-10)


def test_inertia_certificate_rejects_a_shift_above_the_lowest_eigenvalue(king):
    # the standard k = 0 problem keeps the shift-invert solve and its count
    from vpstab.spectral import CoercivityError, _SectorMatrices

    sm = _SectorMatrices(king, n=400)
    lows = sm.radial_eigenpairs(3)[0]
    # just below the lowest eigenvalue the certificate holds
    sm._shift_invert(1, lows[0] - 1e-3)
    for count, sigma in ((1, 0.5 * (lows[0] + lows[1])), (2, 0.5 * (lows[1] + lows[2]))):
        with pytest.raises(CoercivityError, match=f"{count} eigenvalue"):
            sm._shift_invert(1, sigma)


@pytest.fixture(scope="module")
def deep():
    return {"king-12": king_model(12.0), "q-3.45": polytrope_model(3.45)}


@pytest.mark.parametrize("which", ["king-12", "q-3.45"])
def test_bisected_sectors_match_dense_eigh_where_they_set_c0(which, deep):
    # deep models, whose c0 at n = 400 comes from the k = 1 (King) or the
    # k = 2 (polytrope) sector
    from scipy import linalg

    from vpstab.spectral import _SectorMatrices

    model = deep[which]
    sm = _SectorMatrices(model, n=400)
    lows = {}
    for k in (1, 2, 3):
        A, N = _dense_sector(sm, k, 0.0)
        lows[k] = linalg.eigh(A, N, eigvals_only=True, subset_by_index=(0, 2))
        np.testing.assert_allclose(sm.dirichlet_eigenvalues(k, 3), lows[k], rtol=1e-10, atol=1e-13)
    c0 = coercivity_constant(model, n=400)
    assert c0 < sm.dirichlet_eigenvalues(0, 1)[0]
    assert c0 == pytest.approx(min(lows[1][1], lows[2][0]), rel=1e-10)


def _support_oracle(sm):
    """Lowest three eigenvalues of the k = 0 Dirichlet pencil by a dense eigh
    of its reduction to the first m rows, with the exterior rows eliminated
    by a dense solve: (V_s - U_s U_s^T) x = (1 - lambda) S x."""
    from scipy import linalg

    u, n_s = sm._projector_factor
    m = max(n_s, int(np.flatnonzero(sm.V)[-1]) + 1)
    T = sm.dirichlet_matrix(0)
    S = T[:m, :m].copy()
    if m < sm.n:
        S[-1, -1] -= T[m - 1, m] ** 2 * np.linalg.solve(T[m:, m:], np.eye(sm.n - m)[:, 0])[0]
    mu = linalg.eigh(np.diag(sm.V[:m]) - u[:m] @ u[:m].T, S, eigvals_only=True, subset_by_index=(m - 3, m - 1))
    return np.sort(1.0 - mu)


@pytest.mark.parametrize("n", [800, 1600, 3200])
@pytest.mark.parametrize("which", ["king", "poly"])
def test_coercivity_constant_keeps_the_lanczos_bits_where_k0_sets_it(which, n, request, same_bits):
    # c0 is the minimum of the three sector values, in bits, and k = 0 sets it
    # for these models, to the dense oracle of the support pencil
    from vpstab.spectral import _SectorMatrices

    model = request.getfixturevalue(which)
    sm = _SectorMatrices(model, n=n)
    lows = [sm.dirichlet_eigenvalues(k, n_eigs)[-1] for k, n_eigs in ((0, 1), (1, 2), (2, 1))]
    c0 = coercivity_constant(model, n=n)
    assert same_bits(c0, float(min(lows))) and c0 == lows[0]
    assert c0 == pytest.approx(_support_oracle(sm)[0], rel=1e-11, abs=0)


@pytest.fixture(scope="module")
def king9():
    return king_model(9.0)


@pytest.mark.parametrize("n", [800, 1600, 3200])
@pytest.mark.parametrize("which", ["king", "king9", "poly"])
def test_radial_dirichlet_sector_matches_dense_eigh_of_the_support_and_the_full_pencil(which, n, request):
    from scipy import linalg

    from vpstab.spectral import _SectorMatrices

    model = request.getfixturevalue(which)
    sm = _SectorMatrices(model, n=n)
    vals = sm.dirichlet_eigenvalues(0, 3)
    np.testing.assert_allclose(vals, _support_oracle(sm), rtol=1e-11, atol=0)
    if n <= 1600:
        u = sm.projector_factor()
        A, N = _dense_sector(sm, 0, u @ u.T)
        np.testing.assert_allclose(vals, linalg.eigh(A, N, eigvals_only=True, subset_by_index=(0, 2)), rtol=1e-11, atol=0)


@pytest.mark.parametrize("which", ["king", "poly"])
def test_radial_dirichlet_sector_does_not_depend_on_the_blas_thread_count(which, request, serial_blas, same_bits):
    from vpstab.spectral import _SectorMatrices

    sm = _SectorMatrices(request.getfixturevalue(which), n=1600)
    threaded = sm.dirichlet_eigenvalues(0, 3)
    with serial_blas():
        assert same_bits(sm.dirichlet_eigenvalues(0, 3), threaded)


@pytest.mark.parametrize("v_scale, u_scale", [(2.0, 1.0), (4.0, 1.0), (1.0, 3.0)])
def test_radial_dirichlet_sector_solves_an_indefinite_pencil(king, v_scale, u_scale, monkeypatch):
    # with V doubled or quadrupled the k = 0 pencil has a negative eigenvalue
    # (-3.822 and -12.957): the shift-invert solve at -1 used to refuse it
    # ("eigenvalue(s) below the shift"); c0 <= 0 is still refused. With U
    # tripled, mu = 1 - lambda reaches -34.7, far larger in magnitude than
    # the largest mu, which sets the lowest lambda
    from scipy import linalg

    from vpstab.spectral import CoercivityError, _SectorMatrices
    from vpstab.steady_state import SteadyStateModel

    sm = _SectorMatrices(king, n=400)
    sm.V = v_scale * sm.V
    u, n_s = sm._projector_factor
    sm._projector_factor = (u_scale * u, n_s)
    u = sm.projector_factor()
    gvals = linalg.eigh(*_dense_sector(sm, 0, u @ u.T), eigvals_only=True)
    assert gvals[0] < -1.0 if v_scale > 1.0 else gvals[-1] > 30.0
    np.testing.assert_allclose(sm.dirichlet_eigenvalues(0, 3), gvals[:3], rtol=1e-11, atol=0)
    if v_scale > 1.0:
        vq_fn = SteadyStateModel.vq_fn
        monkeypatch.setattr(SteadyStateModel, "vq_fn", lambda self, r: v_scale * vq_fn(self, r))
        with pytest.raises(CoercivityError, match="nonpositive"):
            coercivity_constant(king, n=400)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_sectors_solve_a_support_that_fills_the_grid(king, k):
    # on [0, R_Q] V is positive on every row and the exterior block is empty:
    # S is T_k itself. Before, k = 0 failed in LAPACK's dgttrf wrapper and
    # k >= 1 was refused as if V had no leading positive block
    from scipy import linalg

    from vpstab.spectral import CoercivityError, _SectorMatrices

    sm = _SectorMatrices(king, n=400, r_max_factor=1.0)
    assert np.all(sm.V > 0)
    u = sm.projector_factor()
    gvals = linalg.eigh(*_dense_sector(sm, k, u @ u.T), eigvals_only=True, subset_by_index=(0, 2))
    np.testing.assert_allclose(sm.dirichlet_eigenvalues(k, 3), gvals, rtol=1e-10, atol=1e-13)
    if k == 0:  # ARPACK gives at most one fewer than the support's rows
        with pytest.raises(CoercivityError, match="400 eigenvalues asked, but Lanczos gives 399 at most"):
            sm.dirichlet_eigenvalues(0, 400)


def test_bisected_sectors_need_v_positive_on_a_leading_block_and_zero_after(king):
    from vpstab.spectral import CoercivityError, _SectorMatrices

    sm = _SectorMatrices(king, n=400)
    m = np.count_nonzero(sm.V > 0)
    gap, tail, negative = sm.V.copy(), sm.V.copy(), sm.V.copy()
    gap[m // 2] = 0.0
    tail[m + 5] = 1e-3
    negative[m + 5] = -1e-3
    for v in (gap, tail, negative, np.zeros(sm.n)):
        sm.V = v
        with pytest.raises(CoercivityError, match="V is not positive on a leading block"):
            sm.dirichlet_eigenvalues(1, 2)


def test_bisected_sectors_have_one_eigenvalue_below_1_per_support_row(king):
    from vpstab.spectral import CoercivityError, _SectorMatrices

    sm = _SectorMatrices(king, n=400)
    m = np.count_nonzero(sm.V > 0)
    vals = sm.dirichlet_eigenvalues(2, m)
    assert vals.size == m and np.all(vals < 1.0)
    with pytest.raises(CoercivityError, match=f"{m + 1} eigenvalues asked, but only {m}"):
        sm.dirichlet_eigenvalues(2, m + 1)


def test_ldl_inertia_count_matches_eigenvalues():
    # symmetric indefinite matrices whose factorization takes 2x2 pivots
    from vpstab.spectral import _ldl_factor

    rng = np.random.default_rng(11)
    for size in (5, 40, 256):
        a = rng.standard_normal((size, size))
        a = a + a.T
        _, ipiv, neg = _ldl_factor(a, 0, 0.0)
        assert neg == int(np.sum(np.linalg.eigvalsh(a) < 0))
        assert np.any(ipiv < 0)


def test_energy_mesh_and_projector_factor_are_built_once(king, monkeypatch):
    import dataclasses

    import vpstab.spectral as spectral

    model = dataclasses.replace(king)
    calls = []
    build = spectral.energy_mesh
    monkeypatch.setattr(spectral, "energy_mesh", lambda m, *a, **kw: calls.append((a, kw)) or build(m, *a, **kw))
    for k in (0, 1, 2):
        harmonic_operator_spectrum(model, k, n_eigs=1, n=200)
    coercivity_constant(model, n=200)
    hessian_form(smooth_bump_direction(model), model)
    project_energy(lambda r: np.ones_like(r), model)
    assert calls == [((), {})]  # one default mesh
    # the sector matrices use an explicit mesh as given
    mesh = build(model, n_e=64, n_q=32)
    assert spectral._SectorMatrices(model, n=200, mesh=mesh).mesh is mesh
    # one projector factor per sector set, shared by the k = 0 solves
    sm = spectral._SectorMatrices(model, n=200)
    u = sm.projector_factor()
    sm.radial_eigenpairs(1)
    sm.dirichlet_eigenvalues(0, 1)
    assert sm.projector_factor() is u


def test_sector_spectrum_solves_no_dirichlet_pencil(king, dirichlet_solves):
    for k in range(4):
        harmonic_operator_spectrum(king, k, n_eigs=2)
    assert dirichlet_solves == []
    coercivity_constant(king, n=400)
    assert dirichlet_solves == [(400, 0), (400, 1), (400, 2)]


@pytest.mark.parametrize("which", ["king", "poly"])
def test_coercivity_ladder_rungs_are_coercivity_constants(which, request):
    from vpstab.spectral import coercivity_ladder

    model = request.getfixturevalue(which)
    ladder = coercivity_ladder(model)
    assert ladder.n == (800, 1600, 3200)
    assert ladder.c0 == tuple(coercivity_constant(model, n=800 * 2**i) for i in range(3))

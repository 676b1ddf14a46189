"""Hessian of the reduced potential functional at a steady state.

The second variation in a direction h is
    int |grad h|^2 - int |F'(e)| (h - P h)^2 dx dv,
where P averages spatial functions onto functions of the microscopic energy
with weight (e - phi)_+^{1/2}. Decomposed into spherical harmonics the
negative part is local except in the radial sector, where the projector adds
a positive low-rank correction on an energy mesh:

    k = 0:  int (h'^2 - V h^2) r^2 dr * 4pi  + sum_m omega_m (P h)(e_m)^2
    k >= 1: -d^2/dr^2 - (2/r) d/dr + k(k+1)/r^2 - V(r)

with V(r) = int |F'(e)| dv. The translation modes phi_Q'(r) span the kernel
(they sit in k = 1); everything else is strictly positive, and the coercivity
constant is the smallest Dirichlet-normalized eigenvalue away from them.

On the uniform grid in w = r h every sector is a tridiagonal pencil, and the
k = 0 projector term is a factor U with at most n_e columns, so no dense
n x n matrix enters a solve. U and V vanish past R_Q, on about 5/6 of the
rows of the default [0, 6 R_Q] box, and those rows enter a solve on the
support through one Schur-complement corner entry. The Dirichlet-normalized
sectors thus reduce to pencils on V's support: k >= 1 solved by LAPACK
bisection, k = 0 by regular-mode Lanczos. The standard k = 0 spectrum comes
from shift-invert Lanczos: a LAPACK LU (gttrf) of the shifted tridiagonal
and the Woodbury identity for U U^T. A Sylvester inertia count (the LDL^T
pivots of the tridiagonal and Haynsworth's count over the capacitance
matrix) certifies that no eigenvalue lies below the shift (CoercivityError).

A discretisation is named by (model, n). Each spectrum is solved only where
it is read: harmonic_operator_spectrum solves the standard sector problem
A_k x = lambda x, and coercivity_constant (and coercivity_ladder, one call
of it per rung) solves the Dirichlet-normalized pencil A_k x = lambda T_k x.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg
from scipy.sparse.linalg import LinearOperator, eigsh

from .numerics import (
    InvalidArgumentError,
    _jacobi_rule,
    cosine_mesh,
    eig_tridiag,
    panel_rule,
    serial_blas,
    turning_point_rule,
    turning_radius,
)
from .poisson import (
    PotentialX,
    RadialField3D,
    _space_rule,
    check_X_membership,
    grad_distance2_shifted,
)

FOUR_PI = 4.0 * np.pi
LADDER_RUNGS = (800, 1600, 3200)  # coercivity_ladder's grids
SQRT2 = np.sqrt(2.0)


class ModulationError(RuntimeError):
    pass


class CoercivityError(RuntimeError):
    pass


@dataclass(frozen=True)
class EnergyMesh:
    """Gauss-Jacobi mesh in energy over (phi(0), e0) with the |F'| cusp power
    absorbed; carries per-energy radial quadrature for the projector."""

    e: np.ndarray
    w_fprime: np.ndarray  # integrates int |F'(e)| g(e) de as sum(w_fprime * g(e))
    r_nodes: np.ndarray  # (n_e, n_q) radial nodes on [0, r(e)]
    r_weights: np.ndarray  # (n_e, n_q) weights with (e - phi)^{1/2} r^2 included
    denom: np.ndarray  # per-energy normalization int (e-phi)^{1/2} r^2 dr
    r_turn: np.ndarray

    def __post_init__(self):  # read-only, as model.energy_mesh is shared
        for arr in (self.e, self.w_fprime, self.r_nodes, self.r_weights, self.denom, self.r_turn):
            arr.setflags(write=False)

    @property
    def a_prime(self):
        # a'(e) = 4 pi sqrt(2) int (e - phi)^{1/2} dx
        return 16.0 * np.pi**2 * SQRT2 * self.denom


def energy_mesh(model, n_e=256, n_q=96):
    """Energy mesh of the projector; `model.energy_mesh` keeps the default."""
    profile = model.profile
    lo = model.phi_center
    hi = model.e0
    x, w = _jacobi_rule(n_e, profile.fp_cusp, 0.0)
    half = 0.5 * (hi - lo)
    e = lo + half * (x + 1.0)
    w_fp = half ** (profile.fp_cusp + 1.0) * w * profile.fp_smooth(e)

    r_turn = turning_radius(model.phi_fn, model.dphi_fn, e, model.R_Q)
    r_nodes, w_geom = turning_point_rule(r_turn, n_q // 2, n_q // 2)
    phi_at = model.phi_fn(r_nodes.ravel()).reshape(r_nodes.shape)
    half_pow = np.sqrt(np.clip(e[:, None] - phi_at, 0.0, None))
    r_weights = w_geom * half_pow * r_nodes**2
    denom = r_weights.sum(axis=1)
    return EnergyMesh(
        e=e, w_fprime=w_fp, r_nodes=r_nodes, r_weights=r_weights, denom=denom, r_turn=r_turn
    )


def project_energy(h_fn, model):
    """Projection of a bounded radial function onto functions of the energy:
    (P h)(e) = int (e - phi)^{1/2} h r^2 dr / int (e - phi)^{1/2} r^2 dr.

    Returns its values at the energies of `model.energy_mesh`; constants are
    reproduced exactly.
    """
    mesh = model.energy_mesh
    hv = h_fn(mesh.r_nodes.ravel()).reshape(mesh.r_nodes.shape)
    return (mesh.r_weights * hv).sum(axis=1) / mesh.denom


@dataclass(frozen=True)
class Direction:
    """Radial trial direction with analytic derivative and compact support."""

    h: object
    dh: object
    extent: float


def smooth_bump_direction(model, center_frac=0.5, width_frac=0.25):
    """C^inf radial bump supported in [0, 2 R_Q], of amplitude -0.1 |phi(0)|."""
    R = 2.0 * model.R_Q
    r0 = center_frac * model.R_Q
    s = width_frac * model.R_Q
    amp = -0.1 * abs(model.phi_center)

    def window(r):
        x = np.asarray(r, dtype=float) / R
        out = np.zeros_like(x)
        inside = x < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
        return out

    def dwindow(r):
        x = np.asarray(r, dtype=float) / R
        out = np.zeros_like(x)
        inside = x < 1.0
        xi = x[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - xi**2)) * (-2.0 * xi / (1.0 - xi**2) ** 2) / R
        return out

    def gauss(r):
        return np.exp(-((np.asarray(r, dtype=float) - r0) ** 2) / (2 * s**2))

    def dgauss(r):
        r = np.asarray(r, dtype=float)
        return gauss(r) * (-(r - r0) / s**2)

    return Direction(
        h=lambda r: amp * gauss(r) * window(r),
        dh=lambda r: amp * (dgauss(r) * window(r) + gauss(r) * dwindow(r)),
        extent=R,
    )


def _radial_quad(fn, r_hi, n_panels=64, n_gl=8):
    r, w = panel_rule(np.linspace(0.0, r_hi, n_panels + 1), n_gl)
    return float(np.dot(w, fn(r)))


def hessian_form(direction: Direction, model):
    """Second variation of the reduced functional at phi_Q for a radial
    direction: 4 pi int (h'^2 - V h^2) r^2 dr + int |F'| (P h)^2 a'(e) de,
    the last term on `model.energy_mesh`."""
    mesh = model.energy_mesh
    grad = FOUR_PI * _radial_quad(lambda r: direction.dh(r) ** 2 * r**2, direction.extent)
    vterm = FOUR_PI * _radial_quad(lambda r: model.vq_fn(r) * direction.h(r) ** 2 * r**2, model.R_Q)
    ph = project_energy(direction.h, model)
    pterm = float(np.dot(mesh.w_fprime, ph**2 * mesh.a_prime))
    return grad - vterm + pterm


@dataclass(frozen=True)
class SpectralReport:
    k: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, in w = r h variables on the sector grid's radii
    kernel_residual: float


class _SectorMatrices:
    """Discretized quadratic forms on a uniform Dirichlet grid in w = r h.

    Sector k pairs the Hessian form A_k = T_k - diag(V) with the Dirichlet
    form N_k = T_k, where T_k is the tridiagonal -d^2/dr^2 + k(k+1)/r^2; the
    radial sector adds the projector term U U^T to A_0. The public solvers
    use n points on [0, 6 R_Q] and the model's energy mesh; a wider box
    (compactness_ratio) or another mesh is set here.
    """

    def __init__(self, model, n=800, r_max_factor=6.0, mesh=None):
        self.n = n
        self.dr = r_max_factor * model.R_Q / (n + 1)
        self.r = self.dr * np.arange(1, n + 1)
        self.V = model.vq_fn(self.r)
        self.mesh = mesh if mesh is not None else model.energy_mesh

    def dirichlet_tridiag(self, k):
        d = 2.0 / self.dr**2 + k * (k + 1) / self.r**2
        return d, np.full(self.n - 1, -1.0) / self.dr**2

    def sector_tridiag(self, k):
        d, e = self.dirichlet_tridiag(k)
        return d - self.V, e

    def dirichlet_matrix(self, k):
        d, e = self.dirichlet_tridiag(k)
        return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)

    def projector_factor(self):
        """U (n x n_e) with U U^T the energy-average term in w variables,
        normalized like the L2(dr) operator matrices: column m holds the
        linear interpolation of the grid onto energy m's radial quadrature,
        scaled by sqrt(omega_m) / r. Its rows vanish past the last node that
        the radial quadrature reaches (about R_Q). Built once per sector set
        (read-only)."""
        return self._projector_factor[0]

    @cached_property
    def _projector_factor(self):
        """(U, n_s): U and the number n_s of its leading rows that can be
        nonzero; only those are binned and scaled."""
        mesh = self.mesh
        n_e = mesh.e.size
        rq = mesh.r_nodes
        wq = mesh.r_weights / mesh.denom[:, None]
        idx = np.clip(np.searchsorted(self.r, rq) - 1, 0, self.n - 2)
        n_s = int(idx.max()) + 2
        r0, r1 = self.r[idx], self.r[idx + 1]
        t = np.clip((rq - r0) / (r1 - r0), 0.0, 1.0)
        # one bincount over (energy, support node): per energy the lower-node
        # shares, then the upper-node shares
        rows = (n_s * np.arange(n_e))[:, None]
        cells = np.concatenate([rows + idx, rows + idx + 1], axis=1)
        shares = np.concatenate([wq * (1 - t), wq * t], axis=1)
        b = np.bincount(cells.ravel(), weights=shares.ravel(), minlength=n_e * n_s)
        omega = mesh.w_fprime * mesh.a_prime
        u = np.zeros((self.n, n_e))
        u[:n_s] = (b.reshape(n_e, n_s).T * np.sqrt(omega)) / (self.r[:n_s, None] * np.sqrt(FOUR_PI * self.dr))
        u.setflags(write=False)
        return u, n_s

    def projector_correction(self):
        """Dense positive-semidefinite matrix U U^T of the energy-average term."""
        u = self.projector_factor()
        return u @ u.T

    def dirichlet_eigenvalues(self, k, n_eigs):
        """Lowest n_eigs eigenvalues of the pencil A_k x = lambda N_k x.
        A_k - lambda T_k = (1 - lambda) T_k - V (+ U U^T for k = 0), and V and
        U vanish past m leading rows: eliminating the others leaves
        (V_s - U_s U_s^T) x = (1 - lambda) S x, where S is T_k's support block
        with its Schur corner, and the eigenvalue 1 (n - m times). For k = 0, m
        also covers U's rows, and ARPACK's regular mode for a positive definite
        right side (Users' Guide 3.2) gives the largest mu = 1 - lambda, with
        one LU of S as M^-1; CoercivityError if n_eigs >= m. For k >= 1, V > 0
        on the m rows, and lambda = 1 - 1/nu for the eigenvalues nu of
        M = V_s^{-1/2} S V_s^{-1/2}. M, a diagonal congruence of the
        diagonally dominant S, has them to high relative accuracy by bisection
        (Barlow & Demmel 1990, SIAM J. Numer. Anal. 27, 762). CoercivityError
        if V is not so, or if n_eigs > m."""
        d, e = self.dirichlet_tridiag(k)
        if k == 0:
            u, n_s = self._projector_factor
            m = max(n_s, int(np.flatnonzero(self.V).max(initial=-1)) + 1)
            if n_eigs >= m:
                raise CoercivityError(f"sector k=0: {n_eigs} eigenvalues asked, but Lanczos gives {m - 1} at most")
            u_s, v, s_diag, e_s = u[:m], self.V[:m], _support_block(d, e, m, 0, 0.0), e[: m - 1]
            with serial_blas():
                op = LinearOperator((m, m), matvec=lambda x: v * x - u_s @ (u_s.T @ x), dtype=float)
                mass = LinearOperator((m, m), matvec=_tridiag_matvec(s_diag, e_s), dtype=float)
                mass_inv = LinearOperator((m, m), matvec=_tridiag_solver(s_diag, e_s, 0, 0.0), dtype=float)
                v0 = np.random.default_rng(0).uniform(-1.0, 1.0, m)
                mu = eigsh(op, k=n_eigs, M=mass, Minv=mass_inv, which="LA", v0=v0, return_eigenvectors=False)
            return np.sort(1.0 - mu)
        m = np.count_nonzero(self.V > 0)
        v = self.V[:m]
        if not (m > 0 and np.all(v > 0) and not np.any(self.V[m:])):
            raise CoercivityError(f"sector k={k}: V is not positive on a leading block of rows and 0 after it")
        if n_eigs > m:
            raise CoercivityError(f"sector k={k}: {n_eigs} eigenvalues asked, but only {m} lie below 1")
        s_diag = _support_block(d, e, m, k, 0.0)  # T_rr is A_rr at the shift 0
        return 1.0 - 1.0 / _bisection_eigenvalues(s_diag / v, e[: m - 1] / np.sqrt(v[:-1] * v[1:]), n_eigs)

    def radial_eigenpairs(self, n_eigs):
        """Lowest eigenpairs of A_0 = T_0 - diag(V) + U U^T. The shift lies 1
        below the lowest eigenvalue of the tridiagonal T_0 - diag(V), hence
        below the spectrum, as U U^T is positive; a shift as close as that
        keeps the Lanczos iteration short."""
        floor = eig_tridiag(*self.sector_tridiag(0), 1)[0][0]
        return self._shift_invert(n_eigs, floor - 1.0)

    def _shift_invert(self, n_eigs, sigma):
        """Eigenpairs of A_0 nearest sigma by shift-invert Lanczos, with a
        Sylvester inertia certificate that no eigenvalue lies below sigma,
        so they are the lowest ones (CoercivityError otherwise).

        The shifted operator is K + U U^T, K = T_0 - diag(V) - sigma a
        tridiagonal factored once by LAPACK (_tridiag_solver). Its inverse is
        applied by the Woodbury identity, (K + U U^T)^{-1} x = y - K^{-1} U
        C^{-1} U^T y with y = K^{-1} x, two tridiagonal solves per Lanczos
        step. The capacitance C = I + U^T K^{-1} U comes from U's support rows
        alone (_capacitance), and the negative count of K + U U^T is
        neg(K) - neg(C) by Haynsworth's inertia additivity. C is symmetric
        but indefinite when K is, so one Bunch-Kaufman LDL^T serves both its
        solve and its count. The solve runs on one BLAS thread: its BLAS calls
        are many and small (ARPACK's level-2 updates, the capacitance solves).
        """
        with serial_blas():
            d, e = self.sector_tridiag(0)
            dk = d - sigma
            solve_k = _tridiag_solver(dk, e, 0, sigma)
            u, n_s = self._projector_factor
            u_s = u[:n_s]
            ldl, ipiv, neg = _ldl_factor(self._capacitance(dk, e, sigma), 0, sigma)
            below = _negative_pivots(dk, e) - neg
            if below:
                raise CoercivityError(
                    f"sector k=0: {below} eigenvalue(s) below the shift {sigma}, out of reach of the shift-invert solve"
                )
            padded = np.zeros(self.n)

            def solve(x):
                y = solve_k(x)
                padded[:n_s] = u_s @ linalg.lapack.dsytrs(ldl, ipiv, u_s.T @ y[:n_s], lower=1)[0]
                return y - solve_k(padded)

            op = LinearOperator((self.n, self.n), matvec=solve, dtype=float)
            v0 = np.random.default_rng(0).uniform(-1.0, 1.0, self.n)
            # shift-invert mode never applies A itself: op stands in for it
            # (shape and dtype only)
            vals, vecs = eigsh(op, k=n_eigs, sigma=sigma, OPinv=op, v0=v0)
            order = np.argsort(vals)
            return vals[order], vecs[:, order]

    def _capacitance(self, dk, ek, sigma):
        """C = I + U^T K^{-1} U for the shifted standard k = 0 tridiagonal K = (dk, ek).

        U vanishes past its first n_s rows, so only the support block
        (K^{-1})_ss enters: the inverse of the Schur complement of the
        exterior block r (_support_block), which exists whenever K_rr is
        nonsingular (CoercivityError otherwise). V and U vanish on the
        exterior, so K_rr = T_rr - sigma, where sigma lies 1 below the
        spectrum of T_0 - V and so, by Cauchy interlacing, below that of T_rr:
        K_rr is positive definite. One tridiagonal solve on the n_s support
        rows with n_e right-hand sides then gives (K^{-1})_ss U_s.
        """
        u, n_s = self._projector_factor
        u_s = u[:n_s]
        x = _tridiag_solver(_support_block(dk, ek, n_s, 0, sigma), ek[: n_s - 1], 0, sigma)(u_s)
        return np.eye(u.shape[1]) + u_s.T @ x


def _support_block(d, e, s, k, sigma):
    """Diagonal of the Schur complement K_ss - e[s - 1]^2 g e_last e_last^T,
    g = (K_rr^{-1})_00, of K = (d, e) on its s leading rows, which meet the
    exterior rows r through e[s - 1] alone (its off-diagonal is e[:s - 1]),
    or d when r is empty; CoercivityError if K_rr is exactly singular."""
    d_s = d[:s].copy()
    if s < d.size:
        g = _tridiag_solver(d[s:], e[s:], k, sigma)(np.eye(1, d.size - s)[0])[0]  # K_rr^{-1} e_0, first entry
        d_s[-1] -= e[s - 1] ** 2 * g
    return d_s


def _bisection_eigenvalues(d, e, n_eigs):
    """n_eigs lowest eigenvalues of the tridiagonal (d, e) by LAPACK bisection
    (dstebz) at LAPACK's full-accuracy tolerance: MRRR (stemr) loses digits."""
    return linalg.eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(0, n_eigs - 1),
                                   lapack_driver="stebz", tol=2 * np.finfo(float).tiny)


def _tridiag_matvec(d, e):
    """x -> T x for the symmetric tridiagonal T = (d, e), as a three-term
    stencil. Each row adds its terms as a CSC matvec does, up to swapping
    the first two, so the result has the same bits."""

    def matvec(x):
        y = d * x
        y[1:] += e * x[:-1]
        y[:-1] += e * x[1:]
        return y

    return matvec


def _tridiag_solver(d, e, k, sigma):
    """Solves with the symmetric tridiagonal (d, e), for a vector or an
    n x m block: LAPACK's LU with partial pivoting (dgttrf), applied by
    dgttrs. CoercivityError if the matrix is exactly singular."""
    dl, dd, du, du2, ipiv, info = linalg.lapack.dgttrf(e, d, e)
    if info != 0:
        raise CoercivityError(f"sector k={k}: the shift {sigma} leaves a tridiagonal block singular")
    return lambda b: linalg.lapack.dgttrs(dl, dd, du, du2, ipiv, b)[0]


def _negative_pivots(d, e):
    """Negative pivots in the LDL^T factorization of the symmetric tridiagonal
    (d, e): by Sylvester's law, its number of negative eigenvalues. A zero
    pivot counts as negative."""
    count = 0
    p = 1.0
    for di, e2 in zip(d.tolist(), [0.0] + (e * e).tolist()):
        p = di - e2 / p
        if p <= 0.0:
            count += 1
            p = p or -np.finfo(float).tiny
    return count


def _ldl_factor(c, k, sigma):
    """Bunch-Kaufman LDL^T of the dense symmetric capacitance matrix (LAPACK
    dsytrf, lower): the factor and pivots for dsytrs, and the number of
    negative eigenvalues, read from the 1x1 and 2x2 blocks of D."""
    # the blocked factorization, with the workspace LAPACK asks for: the
    # unblocked default stalls for up to ~0.4 s in threaded level-2 BLAS
    lwork = int(linalg.lapack.dsytrf_lwork(c.shape[0], lower=1)[0])
    ldl, ipiv, info = linalg.lapack.dsytrf(c, lower=1, lwork=lwork)
    if info != 0:
        raise CoercivityError(f"sector k={k}: the shift {sigma} is an eigenvalue")
    diag, sub = np.diagonal(ldl), np.diagonal(ldl, -1)
    count, i = 0, 0
    while i < diag.size:
        if ipiv[i] < 0:  # a 2x2 block in rows i, i + 1
            det = diag[i] * diag[i + 1] - sub[i] ** 2
            count += 1 if det < 0 else 2 * int(diag[i] < 0)
            i += 2
        else:
            count += int(diag[i] < 0)
            i += 1
    return ldl, ipiv, count


def harmonic_operator_spectrum(model, k, n_eigs=6, n=800):
    """Lowest eigenpairs of the harmonic-k sector of the Hessian operator on
    the n-point grid of _SectorMatrices(model, n).

    k >= 1 reduces to a symmetric tridiagonal problem via w = r h; the radial
    sector (k = 0) adds the low-rank projector term and is solved by
    shift-invert with the Woodbury identity. For k = 1 the report also holds
    the alignment of the ground state with the translation mode r phi'. The
    Dirichlet-normalized spectrum is not solved here: coercivity_constant
    and coercivity_ladder read it.
    """
    sm = _SectorMatrices(model, n=n)
    if k == 0:
        vals, vecs = sm.radial_eigenpairs(n_eigs)
    else:
        vals, vecs = eig_tridiag(*sm.sector_tridiag(k), n_eigs)
    kernel_residual = np.nan
    if k == 1:
        # alignment with the translation mode r phi' inside the working window
        # [0, 3 R_Q]; outside it the Dirichlet box clips the marginal 1/r tail
        sel = sm.r <= 3.0 * model.R_Q
        wref = sm.r[sel] * model.dphi_fn(sm.r[sel])
        v0 = vecs[sel, 0]
        cos = abs(np.dot(wref, v0)) / np.sqrt(np.dot(wref, wref) * np.dot(v0, v0))
        kernel_residual = float(1.0 - cos)
    return SpectralReport(
        k=k,
        eigenvalues=np.asarray(vals, dtype=float),
        eigenvectors=np.asarray(vecs, dtype=float),
        kernel_residual=kernel_residual,
    )


def coercivity_constant(model, n=800):
    """Smallest Dirichlet-normalized eigenvalue of the Hessian away from the
    translation kernel, on the n-point grid of _SectorMatrices(model, n):
    min over the radial sector, the second k=1 mode, and the k=2 sector,
    each reduced to V's support (dirichlet_eigenvalues): k = 0 by Lanczos
    with the support block S as the right side, k = 1 and 2 by bisection.
    No sector k > 2 has a lower one: for c < 1, A_k - c T_k = (1 - c) T_k - V,
    and T_k increases with k in the Loewner order (T_{k+1} - T_k =
    diag(2(k + 1)/r^2)), so A_k - c T_k is positive semidefinite for every
    k >= 2 once it is for k = 2."""
    sm = _SectorMatrices(model, n=n)
    c0 = float(
        min(sm.dirichlet_eigenvalues(0, 1)[0], sm.dirichlet_eigenvalues(1, 2)[1], sm.dirichlet_eigenvalues(2, 1)[0])
    )
    if c0 <= 0:
        raise CoercivityError(
            f"nonpositive Dirichlet-normalized gap {c0}: discretization too coarse"
        )
    return c0


@dataclass(frozen=True)
class CoercivityLadder:
    n: tuple
    c0: tuple
    order: float  # observed order log2(delta_1 / delta_2)
    richardson: float  # extrapolation at the observed order
    error_estimate: float  # |richardson - c0 on the finest rung|


def coercivity_ladder(model):
    """coercivity_constant on the grids of LADDER_RUNGS (n = 800, 1600,
    3200), with the observed order of the three rungs and the Richardson
    extrapolation at that order.

    Every rung uses the model's energy mesh (n_e = 256, n_q = 96), which sets
    a floor: for King W0 = 3 the steps shrink by 4 from 800 to 3200 (order
    1.99), by 6 from 3200 to 6400, and from 6400 to 12800 c0 turns back, so
    the ladder stops at 3200. When the rungs are not monotone the order and
    extrapolation are nan.
    """
    c0 = tuple(coercivity_constant(model, n=m) for m in LADDER_RUNGS)
    d1, d2 = c0[1] - c0[0], c0[2] - c0[1]
    order = float(np.log2(d1 / d2))
    richardson = c0[2] + d2 / (2.0**order - 1.0)
    return CoercivityLadder(
        n=LADDER_RUNGS,
        c0=c0,
        order=order,
        richardson=float(richardson),
        error_estimate=float(abs(richardson - c0[2])),
    )


def compactness_ratio(model, r_max_factor=6.0):
    """Decay of the nonlocal (negative) part of the Hessian: ratio of the
    20th to the largest Dirichlet-normalized singular value in the radial
    sector, on 400 grid points."""
    sm = _SectorMatrices(model, n=400, r_max_factor=r_max_factor)
    K = np.diag(sm.V) - sm.projector_correction()
    Nmat = sm.dirichlet_matrix(0)
    with serial_blas():  # threaded, it is slower and its bits depend on the thread count
        vals = linalg.eigh(K, Nmat, eigvals_only=True)
    sv = np.sort(np.abs(vals))[::-1]
    return float(sv[19] / sv[0])


def hormander_identity_check(model, sample, step_frac=1e-4):
    """Finite-difference verification that the radial transport operator
    T f = (r^2 sqrt(2(e - phi)))^{-1} d/dr f (at fixed energy) satisfies
    -T^2 g / g = 3 (rho + phi'/r) / (r u)^4 for g = (r u)^3, u = sqrt(2(e-phi)).

    Returns the max relative residual over the sample; points too close to the
    centre or the support boundary are excluded with a warning.
    """
    delta = step_frac * model.R_Q
    residuals = []
    kept = 0
    for r0, u0 in sample:
        e = 0.5 * u0**2 + float(model.phi_fn(np.array([r0]))[0])
        if r0 < 4 * delta or r0 > model.R_Q - 4 * delta:
            warnings.warn("sample point too close to the centre or boundary; skipped")
            continue
        umin2 = 2.0 * (e - float(model.phi_fn(np.array([r0 + 4 * delta]))[0]))
        if umin2 <= 0.05 * u0**2:
            warnings.warn("sample point too close to the turning surface; skipped")
            continue

        def g(r):
            r = np.asarray(r, dtype=float)
            return r**3 * np.clip(2.0 * (e - model.phi_fn(r)), 0.0, None) ** 1.5

        def Tg(r):
            r = np.asarray(r, dtype=float)
            u = np.sqrt(np.clip(2.0 * (e - model.phi_fn(r)), 1e-300, None))
            return (g(r + delta) - g(r - delta)) / (2 * delta) / (r**2 * u)

        r0a = np.array([r0])
        u = np.sqrt(2.0 * (e - model.phi_fn(r0a)))
        t2 = (Tg(r0a + delta) - Tg(r0a - delta)) / (2 * delta) / (r0a**2 * u)
        lhs = float((-t2 / g(r0a))[0])
        rho = float(model.rho_fn(r0a)[0])
        dphi = float(model.dphi_fn(r0a)[0])
        rhs = float((3.0 * (rho + dphi / r0a) / (r0a * u) ** 4)[0])
        residuals.append(abs(lhs - rhs) / abs(rhs))
        kept += 1
    if kept == 0:
        raise InvalidArgumentError("no usable sample points")
    return max(residuals)


def _delta_phase_volume(pot_base, direction, eps, e_nodes, n_panels=40, n_gl=10):
    """a_{phi + eps h}(e) - a_phi(e) for each energy node, by panel quadrature
    of the difference integrand on a common radial mesh scaled per energy
    (correlated errors cancel, leaving a floor proportional to eps)."""
    e_nodes = np.asarray(e_nodes, dtype=float)
    r_out = np.maximum(
        turning_radius(
            lambda r: pot_base.phi_fn(r) + eps * direction.h(r),
            lambda r: pot_base.dphi_fn(r) + eps * direction.dh(r),
            e_nodes,
            pot_base.r_max,
        ),
        turning_radius(pot_base.phi_fn, pot_base.dphi_fn, e_nodes, pot_base.r_max),
    )
    # unit panels clustered toward both ends, scaled per energy
    units, uw = panel_rule(cosine_mesh(0.0, 1.0, n_panels + 1), n_gl)
    r = r_out[:, None] * units[None, :]
    w = r_out[:, None] * uw[None, :]
    phi_r = pot_base.phi_fn(r.ravel()).reshape(r.shape)
    h_r = direction.h(r.ravel()).reshape(r.shape)
    diff = np.clip(e_nodes[:, None] - phi_r - eps * h_r, 0.0, None) ** 1.5 - np.clip(
        e_nodes[:, None] - phi_r, 0.0, None
    ) ** 1.5
    out = (8.0 * np.pi * SQRT2 / 3.0) * FOUR_PI * np.sum(w * diff * r**2, axis=1)
    return np.where(r_out > 0, out, 0.0)


@dataclass(frozen=True)
class TaylorReport:
    epsilons: np.ndarray
    delta_J: np.ndarray
    first_slope: np.ndarray  # delta_J / eps
    remainder_over_eps2: np.ndarray  # (delta_J - eps^2/2 D2J) / eps^2
    hessian_analytic: float
    hessian_extrapolated: float


def taylor_remainder(model, direction: Direction, epsilons):
    """Expansion of the reduced functional at the steady-state potential.

    delta_J(eps) = eps <grad phi, grad h> + eps^2/2 ||grad h||^2 + delta_J0
    with the phase-volume part integrated through the primitive of Q* on a
    common energy mesh for every eps, so the quadrature bias cancels in the
    differences. Needs two or more epsilons, all distinct, finite and
    positive (the Richardson step takes the two largest), and validates that phi + eps h
    stays admissible.
    """
    pot = model.potential()
    eps_arr = np.asarray(list(epsilons), dtype=float)
    distinct = eps_arr.size == np.unique(eps_arr).size >= 2
    if not (distinct and np.all(np.isfinite(eps_arr)) and np.all(eps_arr > 0)):
        raise InvalidArgumentError(f"need two or more distinct, finite, positive epsilons, got {eps_arr.tolist()}")
    for eps in (eps_arr.max(), -eps_arr.max()):
        bad = PotentialX.from_callable(
            model.grid,
            lambda r: pot.phi_fn(r) + eps * direction.h(r),
            lambda r: pot.dphi_fn(r) + eps * direction.dh(r),
            pot.M,
        )
        ok, _ = check_X_membership(bad)
        if not ok:
            raise InvalidArgumentError(f"perturbed potential leaves the admissible class at eps={eps}")

    qstar = model.rearrangement
    cross = FOUR_PI * _radial_quad(
        lambda r: pot.dphi_fn(r) * direction.dh(r) * r**2, direction.extent, n_panels=96
    )
    grad2 = FOUR_PI * _radial_quad(lambda r: direction.dh(r) ** 2 * r**2, direction.extent, n_panels=96)
    d2j = hessian_form(direction, model)

    # common energy mesh for the J0 differences
    lo = model.phi_center - abs(eps_arr).max() * 1.5 * np.max(np.abs(direction.h(np.linspace(0, direction.extent, 512))))
    units, unit_weights = panel_rule(cosine_mesh(0.0, 1.0, 97), 8)
    e_nodes, e_weights = lo - lo * units, -lo * unit_weights
    a_base = qstar.jac.a(np.clip(e_nodes, None, -1e-300))

    def delta_j(eps):
        da = _delta_phase_volume(pot, direction, eps, e_nodes)
        dg = qstar.primitive(a_base + da) - qstar.primitive(a_base)
        return eps * cross + 0.5 * eps**2 * grad2 - float(np.dot(e_weights, dg))

    dj = np.array([delta_j(e) for e in eps_arr])
    dj_neg = np.array([delta_j(-e) for e in eps_arr])
    slope = dj / eps_arr
    rem = (dj - 0.5 * eps_arr**2 * d2j) / eps_arr**2
    hess_fd = (dj + dj_neg) / eps_arr**2
    # Richardson step from the two largest eps, where truncation dominates the
    # quadrature floor
    order = np.argsort(eps_arr)[::-1]
    e1, e2 = eps_arr[order[0]], eps_arr[order[1]]
    h1, h2 = hess_fd[order[0]], hess_fd[order[1]]
    hess_extrap = (e1**2 * h2 - e2**2 * h1) / (e1**2 - e2**2)
    return TaylorReport(
        epsilons=eps_arr,
        delta_J=dj,
        first_slope=slope,
        remainder_over_eps2=rem,
        hessian_analytic=d2j,
        hessian_extrapolated=hess_extrap,
    )


def hardy_check(model, direction: Direction):
    """Aggregated Hardy-type control behind the radial-sector positivity:
    with f(r, e) the cumulative weighted deviation of h from its energy
    average, int chi |F'| (Tf)^2 >= 3 int chi (rho + phi'/r) f^2 /
    (r sqrt(2(e-phi)))^4 |F'|, where chi drops the energies within 2% of the
    band [phi(0), e0] from either end, on `model.energy_mesh`.

    Returns (lhs, rhs).
    """
    mesh = model.energy_mesh
    lo, hi = model.phi_center, model.e0
    band = hi - lo
    chi = (mesh.e > lo + 0.02 * band) & (mesh.e < hi - 0.02 * band)
    ph = project_energy(direction.h, model)
    # lhs: 16 pi^2 sqrt(2) int chi |F'| de int (h - Ph)^2 (e-phi)^{1/2} r^2 dr
    hv = direction.h(mesh.r_nodes.ravel()).reshape(mesh.r_nodes.shape)
    dev = hv - ph[:, None]
    inner_lhs = (mesh.r_weights * dev**2).sum(axis=1)
    lhs = 16.0 * np.pi**2 * SQRT2 * float(np.dot(mesh.w_fprime[chi], inner_lhs[chi]))
    # rhs: cumulative f(r, e) on a dense radial grid per energy
    n_dense = 1024
    rhs_inner = np.zeros(mesh.e.size)
    for m in np.nonzero(chi)[0]:
        e = mesh.e[m]
        r_t = mesh.r_turn[m]
        r = np.linspace(0.0, r_t, n_dense + 1)[1:]
        phi_r = model.phi_fn(r)
        two_e = np.clip(2.0 * (e - phi_r), 0.0, None)
        integ = (direction.h(r) - ph[m]) * np.sqrt(two_e) * r**2
        f_cum = np.concatenate([[0.0], np.cumsum(0.5 * (integ[1:] + integ[:-1]) * np.diff(r))])
        w_meas = np.sqrt(np.clip(e - phi_r, 0.0, None)) * r**2  # (e - phi)^{1/2} r^2 dr
        dens = model.rho_fn(r) + np.where(r > 0, model.dphi_fn(r) / np.clip(r, 1e-300, None), 0.0)
        val = np.zeros_like(r)
        pos = two_e > 1e-12
        val[pos] = dens[pos] * f_cum[pos] ** 2 / (r[pos] ** 4 * two_e[pos] ** 2) * w_meas[pos]
        rhs_inner[m] = np.trapezoid(val, r)
    rhs = 3.0 * 16.0 * np.pi**2 * SQRT2 * float(np.dot(mesh.w_fprime[chi], rhs_inner[chi]))
    return lhs, rhs


def modulation_shift(field, model, seed=None):
    """Translation aligning a field (such as a RadialField3D) with the
    steady-state field: minimizes || grad phi - grad phi_Q(. - z) ||_L2
    (`grad_distance2_shifted`) by derivative-free descent started at `seed`,
    or at the density barycenter when no seed is given, and reports the three
    orthogonality residuals int eps_z d/dx_i (Laplacian phi_Q) dx at the
    solution, by the same spherical rule."""
    ref = model.potential()

    def objective(z):
        return grad_distance2_shifted(field, RadialField3D.of(ref, z))

    # imported where it is called: no other path of the package loads it
    from scipy import optimize

    z0 = np.asarray(seed, dtype=float) if seed is not None else field.barycenter()
    f0 = objective(z0)
    if not np.isfinite(f0):  # a NaN start: Nelder-Mead would run to its iteration cap
        raise ModulationError(f"no aligned translate found: objective {f0} at the start {z0.tolist()}")
    res = optimize.minimize(
        objective,
        z0,
        method="Nelder-Mead",
        options={"xatol": 1e-7 * max(model.R_Q, 1.0), "fatol": 1e-14, "maxiter": 600},
    )
    if not np.isfinite(res.fun) or not res.success and res.fun > 1e-6:
        raise ModulationError(f"no aligned translate found: {res.message} (objective {res.fun})")
    z = res.x

    # orthogonality residuals: -int rho_Q(x) [grad phi](x + z) dx, normalized;
    # rho_Q vanishes past R_Q, so the rule is scaled to it
    nodes, weights = _space_rule()
    x = model.R_Q * nodes
    rho = model.rho_fn(np.linalg.norm(x, axis=-1))
    resid = -model.R_Q**3 * np.einsum("q,q,qi->i", weights, rho, field.grad_at(x + z))
    norm = model.M * max(abs(model.phi_center) / model.R_Q, 1e-300)
    return z, resid / norm

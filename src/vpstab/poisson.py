"""Gravitational potentials of radial densities and the admissible class.

A potential is admissible when it is nonpositive, continuous, tends to zero,
has finite field energy, and its decay margin m(phi) = inf (1+r)|phi| is
strictly positive. All potentials here are stored radially; translations are
handled at evaluation time through |x - z|, and the gradient distance between
recentred fields has one quadrature, a cached spherical product rule over all
of R^3 (`grad_distance2_shifted`).

A radial density is discretised three ways here. The radial Green solve
needs the running moments int_0^r rho s^2 ds and int_0^r rho s ds, and the
data picks how they are read. Node samples of rho get the moments of their
PCHIP (Fritsch & Carlson 1980, `numerics.pchip`), with the per-piece
coefficients of both moments computed here in closed form and the running
sums kept in the constant terms of two PiecewisePoly on the same breaks; a
CellMoments, a density constant per cell such as the evolver's shell mesh,
gets its exact edge-cumulative moments. Either way a set of radii costs one
interval search for both moments. The third, `_shell_pair`, reads node samples as thin
shells at the nodes and books their Green pair energy from enclosed masses
in O(n), with no potential (criterion 2's monotonicity gaps).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (
    Grid1D,
    InvalidArgumentError,
    PiecewisePoly,
    _read_only,
    branchwise,
    gl_points,
    make_1d_grid,
    panel_rule,
    pchip,
)

FOUR_PI = 4.0 * np.pi


class DegenerateInputError(ValueError):
    pass


def _center_value(r, v):
    """Quadratic zero-slope extrapolation of a radial profile to r = 0: the
    least-squares fit of a + b r^2 to the first three nodes, in closed form
    (the regression line in x = r^2 through the centroid), read at x = 0."""
    x0, x1, x2 = (t * t for t in r[:3].tolist())
    y0, y1, y2 = v[:3].tolist()
    xm, ym = (x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0
    d0, d1, d2 = x0 - xm, x1 - xm, x2 - xm
    b = (d0 * (y0 - ym) + d1 * (y1 - ym) + d2 * (y2 - ym)) / (d0 * d0 + d1 * d1 + d2 * d2)
    return ym - b * xm


def _moment_spline(x, y):
    """The running moments int_0^r p s^2 ds and int_0^r p s ds of the PCHIP
    p of (x, y) (x[0] = 0), as two PiecewisePoly on the breaks x; past x[-1]
    the last piece is extrapolated.

    On piece i, with t = s - x_i, p = a t^3 + b t^2 + c t + d, and the two
    integrands are polynomials in t with closed-form coefficients. The
    constant terms carry the running sums of the pieces' integrals. The
    first moment is of degree 5: its t^6 row is 0 and is left out, which
    drops a term + 0 from each value and so leaves its bits."""
    p = pchip(x, y).c  # the rows a, b, c, d
    xi, h = x[:-1], np.diff(x)
    px, px2, twopx = p * xi, p * (xi * xi), 2 * p * xi
    coef = np.empty((2, 7, xi.size))
    sq, lin = coef
    # p s^2 = a t^5 + (b + 2ax) t^4 + (c + 2bx + ax^2) t^3 + (d + 2cx + bx^2) t^2 + (2dx + cx^2) t + dx^2
    sq[0] = p[0]
    np.add(p[1:], twopx[:3], out=sq[1:4])
    sq[2:4] += px2[:2]
    np.add(twopx[3], px2[2], out=sq[4])
    sq[5] = px2[3]
    # p s = a t^4 + (b + ax) t^3 + (c + bx) t^2 + (d + cx) t + dx
    lin[0] = 0.0
    lin[1] = p[0]
    np.add(p[1:], px[:3], out=lin[2:5])
    lin[5] = px[3]
    # integrated: row j of each divided by 6 - j
    coef[:, :6] /= np.arange(6.0, 0.0, -1.0)[:, None]
    # each piece's integral by Horner at t = h, summed into the constants
    total = coef[:, 0] * h
    for j in range(1, 6):
        total += coef[:, j]
        total *= h
    coef[:, 6, 0] = 0.0
    np.cumsum(total[:, :-1], axis=1, out=coef[:, 6, 1:])
    return PiecewisePoly(x, sq), PiecewisePoly(x, lin[1:])


@dataclass(frozen=True)
class PotentialX:
    """Radial potential: phi_fn / dphi_fn evaluate phi and phi' for any
    r >= 0, past the matter through `monopole_continued`."""

    grid: Grid1D
    M: float
    min_phi: float
    phi_fn: object
    dphi_fn: object

    @property
    def r_max(self):
        return self.grid.x_max

    # The distance checks sample both potentials on a line and on a grid set
    # by the larger extent. Against a fixed reference (a model's potential)
    # the samples repeat from call to call, so each kind is kept for its
    # last (extent, node count), read-only, like a model's
    # reference_hamiltonian.
    def _kept(self, kind, key, build):
        memo = self.__dict__.setdefault("_samples", {})
        if kind not in memo or memo[kind][0] != key:
            memo[kind] = (key, build())
        return memo[kind][1]

    def _phi_on_line(self, extent, n):
        """phi_fn on np.linspace(0, extent, n)."""
        return self._kept("phi", (extent, n), lambda: _read_only(self.phi_fn(np.linspace(0.0, extent, n)))[0])

    def _dphi_on_grid(self, extent, n):
        """The grid make_1d_grid(extent, n) and dphi_fn on its nodes."""

        def build():
            grid = make_1d_grid(extent, n)
            return grid, _read_only(self.dphi_fn(grid.nodes))[0]

        return self._kept("dphi", (extent, n), build)

    @staticmethod
    def from_model(model):
        """The model's potential: e0 - psi and -psi' of its interior solution
        below R_Q, continued by `monopole_continued`."""
        R_Q, e0, psi, dpsi = model.R_Q, model.e0, model.interior.psi, model.interior.dpsi
        phi_fn, dphi_fn = monopole_continued(
            R_Q, model.M, lambda r: e0 - psi(np.clip(r, 0.0, R_Q)), lambda r: -dpsi(np.clip(r, 0.0, R_Q))
        )
        return PotentialX.from_callable(model.grid, phi_fn, dphi_fn, model.M)

    @staticmethod
    def from_callable(grid, phi_fn, dphi_fn, M):
        """Wrap analytic callables (e.g. a perturbed potential)."""
        phi0 = float(phi_fn(np.array([0.0]))[0])
        return PotentialX(grid, M, phi0, phi_fn, dphi_fn)


def monopole_continued(edge, M, inner, dinner):
    """phi_fn and dphi_fn of a potential: the laws inner and dinner below
    edge > 0, and from edge on the field of mass M outside its support,
    -M/(4 pi r) and M/(4 pi r^2). Each law is evaluated only on its own side
    (`branchwise`), so a 0-d r keeps the shape of the law that covers it."""
    outer, douter = (lambda x: -M / (FOUR_PI * x)), (lambda x: M / (FOUR_PI * x**2))

    def phi_fn(r):
        r = np.asarray(r, dtype=float)
        return branchwise(r, r < edge, inner, outer)

    def dphi_fn(r):
        r = np.asarray(r, dtype=float)
        return branchwise(r, r < edge, dinner, douter)

    return phi_fn, dphi_fn


def _checked_density(grid, rho):
    rho = np.asarray(rho, dtype=float)
    if rho.shape != grid.nodes.shape:
        raise InvalidArgumentError("density shape does not match grid")
    if np.any(rho < -1e-12 * max(rho.max(initial=0.0), 1.0)):
        raise InvalidArgumentError("density must be nonnegative")
    return np.clip(rho, 0.0, None)


def _checked_mass(M):
    if M <= 0:
        raise DegenerateInputError("zero total mass: potential not in the admissible class")
    return M


@dataclass(frozen=True)
class CellMoments:
    """A nonnegative density constant on each cell of a radial grid, with its
    moments accumulated to every edge e_k: edge_cum_sq[k] = int_0^e_k rho s^2 ds
    and edge_cum_lin[k] = int_0^e_k rho s ds. M is the total mass."""

    grid: Grid1D
    rho: np.ndarray
    edge_cum_sq: np.ndarray
    edge_cum_lin: np.ndarray
    M: float

    @staticmethod
    def of(grid, rho):
        rho = _checked_density(grid, rho)
        edges = grid.edges
        edge_cum_sq = np.concatenate([[0.0], np.cumsum(rho * grid.sq_moments)])
        lin_moments = rho * 0.5 * (edges[1:] ** 2 - edges[:-1] ** 2)
        edge_cum_lin = np.concatenate([[0.0], np.cumsum(lin_moments)])
        M = _checked_mass(FOUR_PI * float(edge_cum_sq[-1]))
        return CellMoments(grid, rho, edge_cum_sq, edge_cum_lin, M)

    def cum_sq(self, r, i):
        """int_0^r rho s^2 ds for radii r lying in cells i."""
        a = self.grid.edges.take(i)
        return self.edge_cum_sq.take(i) + self.rho.take(i) * (r * r * r - a * a * a) / 3.0

    def cum_lin(self, r, i):
        """int_0^r rho s ds for radii r lying in cells i."""
        a = self.grid.edges.take(i)
        return self.edge_cum_lin.take(i) + self.rho.take(i) * 0.5 * (r * r - a * a)


def solve_poisson_radial(grid, rho):
    """Potential of a nonnegative compactly supported radial density.

    Green representation phi(r) = -m(r)/(4 pi r) - int_r^rmax rho s ds on
    the grid, continued past x_max by `monopole_continued`. The data picks the
    discretisation: node samples rho on grid are read as the monotone cubic
    (PCHIP) interpolant through (0, rho0) and the nodes, integrated exactly
    against s^2 and s (4th order, `_moment_spline`); a CellMoments built on
    grid is read as constant per cell, which is exact for piecewise-constant
    input. Either way one interval search per set of radii gives both
    moments.
    """
    if isinstance(rho, CellMoments):
        cells = rho
        if not np.array_equal(cells.grid.edges, grid.edges):
            raise InvalidArgumentError("cell moments were built on another grid")
        tot1 = float(cells.edge_cum_lin[-1])
        M = cells.M

        def locate(r):
            r = np.clip(r, 0.0, grid.x_max)
            return r, np.clip(np.searchsorted(grid.edges, r) - 1, 0, grid.n - 1)

        cum_sq, cum_lin = cells.cum_sq, cells.cum_lin

    else:
        rho = _checked_density(grid, rho)
        rho0 = _center_value(grid.nodes, rho)
        sq, lin = _moment_spline(np.concatenate([[0.0], grid.nodes]), np.concatenate([[rho0], rho]))

        def locate(r):
            return sq.locate(np.clip(r, 0.0, grid.x_max))

        cum_sq, cum_lin = sq.at, lin.at
        sq_max, tot1 = (float(moment(*locate(grid.x_max))) for moment in (cum_sq, cum_lin))
        M = _checked_mass(FOUR_PI * sq_max)

    # dphi reads the s^2 moment alone, and is 0 below tiny
    tiny = 1e-12 * grid.x_max

    def phi_inner(r):
        at = locate(r)
        return -cum_sq(*at) / np.clip(r, 1e-300, None) - (tot1 - cum_lin(*at))

    def dphi_inner(r):
        rs = np.clip(r, tiny, None)
        return np.where(r < tiny, 0.0, cum_sq(*locate(rs)) / rs**2)

    phi_fn, dphi_fn = monopole_continued(grid.x_max, M, phi_inner, dphi_inner)
    return PotentialX(grid, M, float(-tot1), phi_fn, dphi_fn)


def _shell_pair(grid, rho1, rho2):
    """Green pair energy -1/2 m1^T K m2, K = 1/(4 pi max(r, s)), of node
    samples read as shells of mass m = 4 pi sq_moments rho at the nodes. By
    Abel summation over the enclosed masses M it is -1/(8 pi) sum_k
    (1/r_k - 1/r_{k+1}) M1_k M2_k (1/r_{n+1} = 0), in O(n): the shells' field
    energy between adjacent nodes, with weights nonnegative in floating point,
    so a self-pair is minus a sum of squares."""
    inv_r = 1.0 / grid.nodes
    w = inv_r - np.append(inv_r[1:], 0.0)
    vol = FOUR_PI * grid.sq_moments
    M1, M2 = np.cumsum(vol * rho1), np.cumsum(vol * rho2)
    return -float((w * M1 * M2).sum()) / (2.0 * FOUR_PI)


def field_energy(pot):
    """Half the squared gradient norm, 2 pi int phi'^2 r^2 dr plus the exact
    exterior tail M^2 / (8 pi r_max)."""
    dphi = pot.dphi_fn(pot.grid.nodes)
    inner = 0.5 * FOUR_PI * float(np.dot(dphi**2, pot.grid.sq_moments))
    return inner + pot.M**2 / (8.0 * np.pi * pot.r_max)


def grad_distance2(pot1, pot2, n=None):
    """Squared gradient distance between two aligned radial potentials,
    including the exterior monopole-difference tail. pot2 is the reference:
    its grid and samples are kept (`_dphi_on_grid`), and pot1 is evaluated
    on that grid."""
    r_max = max(pot1.r_max, pot2.r_max)
    n = n or max(pot1.grid.n, pot2.grid.n, 512)
    grid, dphi2 = pot2._dphi_on_grid(r_max, n)
    d = pot1.dphi_fn(grid.nodes) - dphi2
    inner = FOUR_PI * float(np.dot(d**2, grid.sq_moments))
    tail = (pot1.M - pot2.M) ** 2 / (FOUR_PI * r_max)
    return inner + tail


def check_X_membership(pot):
    """Admissibility flag and decay margin m(phi) = inf (1+r)|phi|, from one
    2048-point scan of phi on [0, r_max]; past r_max, (1+r)|M/(4 pi r)|
    decreases to M/(4 pi)."""
    r = np.linspace(0.0, pot.r_max, 2048)
    vals = pot.phi_fn(r)
    nonpositive = bool(np.all(vals <= 1e-12 * max(abs(pot.min_phi), 1.0)))
    m_phi = float(min(np.min((1.0 + r) * np.abs(vals)), pot.M / FOUR_PI)) if pot.M > 0 else 0.0
    decay_ok = bool(vals[-1] >= -pot.M / (FOUR_PI * pot.r_max) * (1.0 + 1e-6) - 1e-15)
    return (nonpositive and m_phi > 0 and decay_ok), m_phi


@dataclass(frozen=True)
class RadialField3D:
    """A radial potential carried to 3D, optionally recentred."""

    pot: PotentialX
    center: np.ndarray

    @staticmethod
    def of(pot, center=(0.0, 0.0, 0.0)):
        return RadialField3D(pot=pot, center=np.asarray(center, dtype=float))

    @property
    def extent(self):
        return self.pot.r_max + float(np.linalg.norm(self.center))

    def barycenter(self):
        return self.center

    def grad_at(self, pts):
        d = pts - self.center
        r = np.clip(np.linalg.norm(d, axis=-1), 1e-300, None)
        return (self.pot.dphi_fn(r) / r)[..., None] * d


@lru_cache(maxsize=1)
def _space_rule():
    """Product rule for integrals over R^3 of fields that are multipoles
    outside the unit ball: 16 Gauss panels (6 points each) in r on [0, 1]
    with edges (k/16)^2, the exterior through r = 1/t (8 Gauss points in t,
    so a monopole tail is integrated exactly), 12 Gauss points in cos(theta)
    and 12 midpoint azimuths. Nodes (n, 3) and weights (n,), read-only."""
    r, w_r = panel_rule((np.arange(17) / 16.0) ** 2, 6)
    t, w_t = gl_points(0.0, 1.0, 8)
    radii = np.concatenate([r, 1.0 / t])
    w_radii = np.concatenate([w_r * r**2, w_t / t**4])
    mu, w_mu = gl_points(-1.0, 1.0, 12)
    mu, azimuth = np.meshgrid(mu, (np.arange(12) + 0.5) * (np.pi / 6), indexing="ij")
    sin_t = np.sqrt(1.0 - mu**2)
    dirs = np.stack([sin_t * np.cos(azimuth), sin_t * np.sin(azimuth), mu], axis=-1).reshape(-1, 3)
    nodes = (radii[:, None, None] * dirs[None]).reshape(-1, 3)
    weights = np.outer(w_radii, np.repeat(w_mu * (np.pi / 6), 12)).ravel()
    return _read_only(nodes, weights)


def grad_distance2_shifted(field1, field2):
    """Squared L2 distance over R^3 of the gradients of two 3D fields, by the
    spherical product rule scaled to R = 1.05 x the larger extent: outside R
    both fields are exact multipoles, whose tail the r = 1/t nodes carry."""
    R = 1.05 * max(field1.extent, field2.extent)
    nodes, weights = _space_rule()
    x = R * nodes
    diff = field1.grad_at(x) - field2.grad_at(x)
    return R**3 * float((weights * np.einsum("qi,qi->q", diff, diff)).sum())


def potential_distance(pot1, pot2, z=(0.0, 0.0, 0.0)):
    """Sup distance and gradient L2 distance between pot1 and pot2(. - z).

    z = 0 reduces to aligned radial quadrature; otherwise the gradient term
    is `grad_distance2_shifted` of the two recentred fields and the sup norm
    a dense (radius, angle) scan.
    """
    z = np.asarray(z, dtype=float)
    d = float(np.linalg.norm(z))
    if d == 0.0:
        r_max = max(pot1.r_max, pot2.r_max)
        dist_inf = float(np.max(np.abs(pot1._phi_on_line(r_max, 8192) - pot2._phi_on_line(r_max, 8192))))
        return dist_inf, float(np.sqrt(grad_distance2(pot1, pot2)))

    dist2 = grad_distance2_shifted(RadialField3D.of(pot1), RadialField3D.of(pot2, z))
    dist_grad = float(np.sqrt(dist2))
    # sup norm on a (radius, angle-to-z) fan about the origin
    R = max(pot1.r_max, pot2.r_max) + d
    r = np.linspace(0.0, R, 2048)[:, None]
    c = np.linspace(-1.0, 1.0, 257)[None, :]
    s = np.sqrt(np.clip(r**2 + d**2 - 2.0 * r * d * c, 0.0, None))
    vals = np.abs(pot1.phi_fn(r) - pot2.phi_fn(s))
    dist_inf = float(vals.max())
    return dist_inf, dist_grad

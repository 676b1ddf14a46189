"""Shared numerical kernels.

1D quadrature grids that carry the exact per-cell integrals of r^2 dr (the
program builds uniform ones), tensor phase-space grids, composite Gauss
rules over panels, Gauss rules for endpoint-singular integrands, the turning
radius of a potential, symmetric tridiagonal eigensolves, Hermite
evaluation of ODE output, the monotone cubic interpolant (PCHIP) as a
piecewise polynomial with scipy's bits, and a scope that runs BLAS on one
thread.
"""

import ctypes
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy
from scipy import linalg, special


class InvalidArgumentError(ValueError):
    pass


class OutOfRangeError(ValueError):
    pass


@dataclass(frozen=True)
class Grid1D:
    """Quadrature grid on [0, x_max] with the given nodes and cell edges.

    weights are the cell widths and sq_moments[i] is the exact cell integral
    of x^2 (so measure-type integrals are exact for piecewise-constant
    integrands, whatever the node placement); both are derived from the
    edges, and every array is read-only.
    """

    nodes: np.ndarray
    edges: np.ndarray
    weights: np.ndarray = field(init=False)
    sq_moments: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.nodes.ndim != 1 or self.nodes.size == 0 or self.edges.shape != (self.nodes.size + 1,):
            raise InvalidArgumentError("a grid needs a non-empty 1-d list of nodes and one edge more")
        a, b = self.edges[:-1], self.edges[1:]
        object.__setattr__(self, "weights", b - a)
        object.__setattr__(self, "sq_moments", (b**3 - a**3) / 3.0)
        _read_only(self.nodes, self.edges, self.weights, self.sq_moments)
        if np.any(self.nodes <= 0) or np.any(self.weights <= 0):
            raise InvalidArgumentError("grid nodes and weights must be positive")
        if np.any(np.diff(self.nodes) <= 0):
            raise InvalidArgumentError("grid nodes must be strictly increasing")

    @property
    def x_max(self):
        return float(self.edges[-1])

    @property
    def n(self):
        return self.nodes.size

    def integrate_sq(self, values):
        """Weighted rule for integrals against x^2 dx (exact for constants)."""
        return float(np.dot(np.asarray(values), self.sq_moments))


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Tensor (radius x speed) grid carrying the isotropic phase-space measure
    16 pi^2 r^2 u^2 dr du."""

    radial: Grid1D
    speeds: Grid1D
    # the (radius x speed) array of exact cell measures, built once and
    # read-only: every density on the grid shares it
    cell_measure: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        measure = 16.0 * np.pi**2 * np.outer(self.radial.sq_moments, self.speeds.sq_moments)
        object.__setattr__(self, "cell_measure", _read_only(measure)[0])


def make_1d_grid(x_max, n):
    """Uniform grid of n cells on [0, x_max], nodes at the cell midpoints."""
    if n < 16:
        raise InvalidArgumentError("need at least 16 cells")
    if x_max <= 0:
        raise InvalidArgumentError("extent must be positive")
    edges = np.linspace(0.0, x_max, n + 1)
    return Grid1D(nodes=0.5 * (edges[:-1] + edges[1:]), edges=edges)


def make_grids(r_max, n_r, u_max, n_u):
    """Uniform tensor phase-space grid on [0, r_max] x [0, u_max]."""
    return PhaseSpaceGrid(radial=make_1d_grid(r_max, n_r), speeds=make_1d_grid(u_max, n_u))


def eig_tridiag(diag, offdiag, k):
    """k smallest eigenpairs of the symmetric tridiagonal matrix."""
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if offdiag.size != diag.size - 1:
        raise InvalidArgumentError("offdiag must have length len(diag) - 1")
    if not 1 <= k <= diag.size:
        raise InvalidArgumentError("k out of range")
    vals, vecs = linalg.eigh_tridiagonal(diag, offdiag, select="i", select_range=(0, k - 1))
    return vals, vecs


@lru_cache(maxsize=1)
def _openblas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS libraries bundled
    with the numpy and scipy Linux wheels (`numpy.libs/`, `scipy.libs/`);
    empty for any other BLAS, which then keeps its own thread count."""
    controls = []
    for package in (np, scipy):
        libs = os.path.dirname(package.__file__) + ".libs"
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)  # the copy already loaded: dlopen matches the file
            except OSError:
                continue
            for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                    controls.append((get, put))
                    break
    return tuple(controls)


@contextmanager
def serial_blas():
    """Run the block with every bundled OpenBLAS on one thread, then restore
    the thread counts it had.

    For many small BLAS calls, such as the level-2 calls of a Lanczos
    iteration on a few thousand unknowns, a second thread costs more than it
    saves: each call waits for the helper, which stalls for milliseconds
    whenever that thread is descheduled. Not for concurrent use from several
    Python threads, since the count is per process.

    Not the way to make a result independent of the thread count: a dot
    product over more than about 10 000 elements is split across threads,
    so its bits depend on the count, and with this setting on the BLAS
    build. Reductions over particle-sized or cell-sized arrays are numpy
    pairwise sums, `float((a * b).sum())`, instead."""
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(controls, saved):
            put(n)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def branchwise(x, inside, inner, outer):
    """The values of np.where(inside, inner(x), outer(x)), with inner
    evaluated only on the x where inside holds and outer only on the rest.

    x is an array and inside a boolean array of its shape. When one formula
    covers every point it is called on x itself, with no gather or scatter
    (a 0-d x always is), so its result keeps that formula's own shape and
    type; otherwise the result has the shape of x. Each element goes through
    the same operations as in the np.where form, so it has the same bits."""
    k = np.count_nonzero(inside)
    if k == inside.size:
        return inner(x)
    if k == 0:
        return outer(x)
    # a prefix along the first axis, as of an ascending x, is two slices
    head, rest = (slice(k), slice(k, None)) if inside[:k].all() else (inside, ~inside)
    out = np.empty(x.shape)
    out[head] = inner(x[head])
    out[rest] = outer(x[rest])
    return out


# The Gauss rules come from small dense eigensolves, built on one BLAS thread
# so that they do not wake the helper threads (see serial_blas); every caller
# shares the cached arrays, so they are read-only.
@lru_cache(maxsize=128)
def _gl_rule(n):
    with serial_blas():
        return _read_only(*np.polynomial.legendre.leggauss(n))


def gl_points(a, b, n):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _gl_rule(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def cosine_mesh(lo, hi, n):
    """n points on [lo, hi] clustered toward both ends: lo + (hi - lo) u with
    u = (1 - cos(pi t)) / 2 on n equispaced t in [0, 1]."""
    return lo + (hi - lo) * (0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, n))))


def panel_rule(bounds, n_gl):
    """Composite Gauss-Legendre rule: n_gl nodes on each panel between
    consecutive bounds, as flat node and weight arrays in panel order."""
    bounds = np.asarray(bounds, dtype=float)
    x, w = gl_points(bounds[:-1, None], bounds[1:, None], n_gl)
    return x.ravel(), w.ravel()


@lru_cache(maxsize=64)
def _jacobi_rule(n, alpha, beta):
    # weight (1-x)^alpha (1+x)^beta on [-1, 1]
    with serial_blas():
        return _read_only(*special.roots_jacobi(n, alpha, beta))


def jacobi_integral(g, lo, hi, alpha, beta):
    """Integral over [lo, hi] of (hi - e)^alpha (e - lo)^beta g(e) de, by the
    80-point Gauss-Jacobi rule.

    Endpoint powers are absorbed into the rule, so g only needs to be smooth.
    """
    if hi <= lo:
        return 0.0
    x, w = _jacobi_rule(80, alpha, beta)
    half = 0.5 * (hi - lo)
    e = lo + half * (x + 1.0)
    return float(half ** (alpha + beta + 1.0) * np.dot(w, g(e)))


def turning_point_rule(r_turn, n_main, n_edge):
    """Nodes and weights on [0, r_turn] for an integrand with a power-law
    edge at r_turn, along a new last axis for an array of r_turn:
    Gauss-Legendre on [0, 0.75 r_turn] (n_main points), and on the last
    quarter in s = sqrt(r_turn - r) (n_edge points), which removes the edge
    behaviour."""
    r_turn = np.asarray(r_turn, dtype=float)[..., None]
    x, w = gl_points(0.0, 1.0, n_main)
    xs, ws = gl_points(0.0, 1.0, n_edge)
    s_hi = np.sqrt(0.25 * r_turn)
    s = s_hi * xs
    nodes = np.concatenate([0.75 * r_turn * x, r_turn - s**2], axis=-1)
    return nodes, np.concatenate([0.75 * r_turn * w, 2.0 * s * s_hi * ws], axis=-1)


def turning_radius(phi_fn, dphi_fn, e, r_max):
    """Radius in [0, r_max] where the increasing potential phi_fn equals e,
    elementwise for an array of e: linear interpolation in an 8192-point
    table of phi_fn, then two Newton steps against phi_fn itself, clipped to
    [0, r_max]. Where e >= phi(r_max) the turning radius leaves the table
    and r_max is returned."""
    e = np.asarray(e, dtype=float)
    r_dense = np.linspace(0.0, r_max, 8192)
    phi_dense = phi_fn(r_dense)
    r = np.interp(e, phi_dense, r_dense)
    for _ in range(2):
        f = phi_fn(r) - e
        r = np.clip(r - f / np.clip(dphi_fn(r), 1e-300, None), 0.0, r_max)
    return np.where(e < phi_dense[-1], np.reshape(r, e.shape), r_max)


def turning_point_integral(phi, e, r_turn, p):
    """Integral over [0, r_turn] of (e - phi(r))_+^p r^2 dr where e - phi
    vanishes at r_turn, by turning_point_rule with 96 main and 48 edge
    nodes."""
    if r_turn <= 0:
        return 0.0
    r, w = turning_point_rule(r_turn, 96, 48)
    return float(np.dot(w, np.clip(e - phi(r), 0.0, None) ** p * r**2))


def exterior_power_tail(mass, e, r_start, p, k):
    """Integral over [r_start, r_e] of (e + mass/(4 pi r))^p r^k dr for e < 0,
    with r_e = mass / (4 pi |e|) the exterior turning radius; elementwise
    for an array of e, and 0 where r_e <= r_start: the phase-volume tail of
    a potential continued by `poisson.monopole_continued` (k = 2 for a(e)).

    Substituting r = r_e t turns the integrand into an incomplete Beta kernel.
    """
    e = np.asarray(e, dtype=float)
    if np.any(e >= 0):
        raise InvalidArgumentError("tail defined for e < 0")
    r_e = mass / (4.0 * np.pi) / (-e)
    t0 = np.minimum(r_start / r_e, 1.0)
    a, b = k + 1 - p, p + 1.0  # integrand t^(k-p) (1-t)^p after factoring |e|^p
    rem = special.beta(a, b) * (1.0 - special.betainc(a, b, t0))
    out = r_e ** (k + 1) * (-e) ** p * rem
    return float(out) if out.ndim == 0 else out


# power-form coefficients, in t = (x - x0) / h, of the two-point Hermite
# basis: row j multiplies t^j; the columns take the data (y0, y1 - y0,
# h y0', h y1') for the cubic and (y0, y1 - y0, h y0', h y1', h^2 y0'',
# h^2 y1'') for the quintic. Differencing y once keeps the O(y) terms from
# cancelling in the higher coefficients.
_CUBIC = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 3.0, -2.0, -1.0],
    [0.0, -2.0, 1.0, 1.0],
])
_QUINTIC = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.5, 0.0],
    [0.0, 10.0, -6.0, -4.0, -1.5, 0.5],
    [0.0, -15.0, 8.0, 7.0, 1.5, -1.0],
    [0.0, 6.0, -3.0, -3.0, -0.5, 0.5],
])


def hermite_coefficients(x_nodes, y, yp, ypp=None):
    """Per-interval power-form coefficients of the piecewise Hermite
    interpolant: row j multiplies t^j on each interval. Cubic when only
    (y, y') are known at the nodes, quintic when y'' is also available.

    The nodes must be uniform (to 1e-6 of a step; InvalidArgumentError
    otherwise), because power_eval finds the interval by arithmetic."""
    n = x_nodes.size
    step = (x_nodes[-1] - x_nodes[0]) / (n - 1)
    if not np.all(np.abs(x_nodes - (x_nodes[0] + step * np.arange(n))) <= 1e-6 * step):
        raise InvalidArgumentError("Hermite nodes must be uniform")
    h = np.diff(x_nodes)
    data = [y[:-1], np.diff(y), yp[:-1] * h, yp[1:] * h]
    if ypp is None:
        return _CUBIC @ np.stack(data)
    return _QUINTIC @ np.stack(data + [ypp[:-1] * h * h, ypp[1:] * h * h])


def power_eval(x_nodes, coef, x, derivative=False):
    """Value (or x-derivative) of the piecewise polynomial with power-form
    coefficients `coef` (from hermite_coefficients) at x, by Horner.

    The interval is floor((x - x_0) / h), clipped to the table, then moved
    by one step where the true node values disagree: nodes made by repeated
    r += h sit a few ulps off x_0 + i h. A point on a node may so take
    either neighbouring interval; the interpolant is continuous there (C^2
    for the quintic), so the value agrees to rounding. Points outside the
    nodes extrapolate the end intervals."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    last = x_nodes.size - 2
    s = (x - x_nodes[0]) * ((last + 1) / (x_nodes[-1] - x_nodes[0]))
    idx = np.fmin(np.fmax(s, 0.0), last).astype(np.intp)  # fmax sends nan to 0
    idx -= (x < x_nodes[idx]) & (idx > 0)
    idx += (x >= x_nodes[idx + 1]) & (idx < last)
    x0 = x_nodes[idx]
    h = x_nodes[idx + 1] - x0
    t = (x - x0) / h
    deg = coef.shape[0] - 1
    # Horner in place, rounded as out = out * t + c
    if not derivative:
        out = coef[deg].take(idx)
        for j in range(deg - 1, -1, -1):
            out *= t
            out += coef[j].take(idx)
        return out
    out = deg * coef[deg].take(idx)
    for j in range(deg - 1, 0, -1):
        out *= t
        out += j * coef[j].take(idx)
    out /= h
    return out


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial on the breaks x: on [x_i, x_i+1] it is
    sum_j c[j, i] (t - x_i)^(k-1-j), highest degree first, as in scipy's
    PPoly, and its values have the bits of PPoly's. Outside the breaks the
    end pieces are extrapolated."""

    x: np.ndarray
    c: np.ndarray

    def __call__(self, t):
        return self.at(*self.locate(np.asarray(t, dtype=float)))

    def locate(self, t):
        """The piece i of each t, searchsorted(x, t, "right") - 1 clipped to
        the table, and the offset s = t - x_i. A 1-d t in ascending order
        without NaN (t[0] <= t[-1] turns away a single one) is counted by
        `_count_pieces`, one search per break instead of one per point."""
        x = self.x
        if t.ndim == 1 and t.size and t[0] <= t[-1] and (t[1:] >= t[:-1]).all():
            i = self._count_pieces(t)
        else:
            i = np.minimum(np.maximum(x.searchsorted(t, "right") - 1, 0), x.size - 2)
        return i, t - x[i]

    def _count_pieces(self, t):
        """Pieces of ascending t: interior break x_j lies at or below the points
        from t.searchsorted(x_j) on, so point k's piece counts those indices <= k."""
        return np.bincount(t.searchsorted(self.x[1:-1]), minlength=t.size + 1)[:-1].cumsum()

    def at(self, i, s):
        """Values at offsets s into pieces i, summed from the constant term
        up, each power of s by repeated multiplication (scipy's
        evaluate_poly1)."""
        c = self.c
        out = c[-1].take(i)
        out += 0.0  # scipy's sum starts at 0.0, which turns -0.0 into +0.0
        z = s.copy()
        for j in range(c.shape[0] - 2, -1, -1):
            term = c[j].take(i)
            term *= z
            out += term
            if j:
                z *= s
        return out

    def derivative(self):
        """The derivative, by scipy's PPoly.derivative recurrence: row j of the
        k rows times k - 1 - j, and the constant row dropped."""
        return PiecewisePoly(self.x, self.c[:-1] * np.arange(self.c.shape[0] - 1, 0, -1.0)[:, None])

    def antiderivative(self):
        """The antiderivative that is 0 at x_0, by scipy's recurrence: each
        piece's constant is the previous piece's value at its right end,
        summed term by term from the constant up. One sequential cumsum over
        the terms of all pieces, in that order, gives the same bits."""
        k = self.c.shape[0]
        c = np.empty((k + 1, self.c.shape[1]))
        c[:-1] = self.c / np.arange(k, 0, -1.0)[:, None]
        h = np.diff(self.x)[:-1]
        terms = np.zeros((h.size + 1, k))
        z = h
        for j in range(k):
            terms[1:, j] = c[k - 1 - j, :-1] * z
            z = z * h
        c[-1] = np.cumsum(terms.ravel())[k - 1 :: k]
        return PiecewisePoly(self.x, c)


def _pchip_end_slope(h0, h1, m0, m1):
    """The end slope of a PCHIP from its first two intervals h0, h1 and
    secants m0, m1 (counted from the end): the one-sided three-point
    estimate, set to 0 when its sign differs from m0's, and to 3 m0 when m0
    and m1 differ in sign and it exceeds 3 |m0| in size."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(x, y):
    """Node slopes of the monotone cubic interpolant through (x, y) (PCHIP,
    Fritsch & Carlson 1980) by scipy's PchipInterpolator formulas: 0 where
    the adjacent secants differ in sign or one is 0, else their weighted
    harmonic mean, and `_pchip_end_slope` at both ends (on 2 nodes, the
    secant). Also the intervals and the secants."""
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        return np.full(2, m[0]), h, m
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    return d, h, m


def pchip(x, y):
    """The PCHIP of (x, y) (at least 2 strictly increasing nodes) as a
    PiecewisePoly whose coefficients are those of scipy's
    PchipInterpolator, bit for bit: the Hermite cubic of each piece formed
    as scipy's CubicHermiteSpline forms it."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dydx, h, m = _pchip_slopes(x, y)
    c = dydx[:-1]
    t = (c + dydx[1:] - 2 * m) / h
    return PiecewisePoly(x, np.stack([t / h, (m - c) / h - t, c, y[:-1]]))


@dataclass(frozen=True)
class RadialOdeSolution:
    """Dense output of the self-gravitating profile ODE y'' + (2/r) y' = -S(y),
    integrated until y first crosses zero."""

    r: np.ndarray
    y: np.ndarray
    yp: np.ndarray
    ypp: np.ndarray
    r_zero: float
    yp_zero: float

    @cached_property
    def _coef(self):
        return hermite_coefficients(self.r, self.y, self.yp, self.ypp)

    def __call__(self, x, nu=0):
        """y (nu = 0) or y' (nu = 1) at x, the call of a scipy interpolant."""
        return power_eval(self.r, self._coef, x, derivative=nu == 1)


def solve_profile_ode(source, y0, h):
    """Fixed-step classical RK4 for y'' + (2/r) y' + S(y) = 0, y(0)=y0, y'(0)=0.

    Starts from a series expansion at r = 2h (removes the coordinate
    singularity), marches until y crosses zero, and refines the crossing on the
    final interval with Hermite/Newton steps. source(y) maps a float to a
    float and clamps its own argument (S(y) = 0 for y <= 0); it gets floats only.

    A model's build makes about 24 000 RK4 stages, nearly all of its time,
    so each stage is float arithmetic and one source call, every expression
    rounded as in the textbook form with the slope
    rhs(r, y, v) = (v, -2 v / r - S(y)). Each node's y'' is the k1
    stage taken there; the second node and the last take one call more.
    """
    y0 = float(y0)
    s0 = source(y0)
    ds = (source(y0 * (1 + 1e-7)) - source(y0 * (1 - 1e-7))) / (2e-7 * y0)
    if s0 <= 0:
        raise InvalidArgumentError("source must be positive at the centre")

    def series(r):
        return (
            y0 - s0 * r**2 / 6.0 + s0 * ds * r**4 / 120.0,
            -s0 * r / 3.0 + s0 * ds * r**3 / 30.0,
        )

    r0 = 2.0 * h
    y, v = series(r0)
    y_h, v_h = series(h)
    rs = [0.0, h, r0]
    ys = [y0, y_h, y]
    vs = [0.0, v_h, v]
    # y'' at the centre is the series limit -S(y0) / 3
    ypps = [-s0 / 3.0, -2.0 * v_h / h - source(y_h)]
    r = r0
    half, sixth = h / 2, h / 6
    for _ in range(2_000_000):
        # stage i's slope is (k_i y, k_i v), with k1y = v, k2y = v2, k3y = v3, k4y = v4
        k1v = -2.0 * v / r - source(y)
        ypps.append(k1v)
        r_mid = r + half
        y2, v2 = y + half * v, v + half * k1v
        k2v = -2.0 * v2 / r_mid - source(y2)
        y3, v3 = y + half * v2, v + half * k2v
        k3v = -2.0 * v3 / r_mid - source(y3)
        r += h
        y4, v4 = y + h * v3, v + h * k3v
        k4v = -2.0 * v4 / r - source(y4)
        y_new = y + sixth * (v + 2 * v2 + 2 * v3 + v4)
        v_new = v + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)
        rs.append(r)
        ys.append(y_new)
        vs.append(v_new)
        if y_new <= 0.0:
            break
        y, v = y_new, v_new
    else:
        raise InvalidArgumentError("profile did not reach its surface; extent too large")
    ypps.append(-2.0 * v_new / r - source(y_new))

    rs = np.array(rs)
    ys = np.array(ys)
    vs = np.array(vs)
    # Newton refinement of the zero crossing on the last Hermite interval
    ra, rb = rs[-2], rs[-1]
    ya, yb, va, vb = ys[-2], ys[-1], vs[-2], vs[-1]

    nodes = np.array([ra, rb])
    coef = hermite_coefficients(nodes, np.array([ya, yb]), np.array([va, vb]))

    def val_der(x):
        return float(power_eval(nodes, coef, x)[0]), float(power_eval(nodes, coef, x, derivative=True)[0])

    x = ra + (rb - ra) * ya / (ya - yb)
    for _ in range(60):
        f, fp = val_der(x)
        step = f / fp
        x_new = min(max(x - step, ra), rb)
        if abs(x_new - x) < 1e-15 * rb:
            x = x_new
            break
        x = x_new
    r_zero = x
    _, yp_zero = val_der(x)

    return RadialOdeSolution(r=rs, y=ys, yp=vs, ypp=np.array(ypps), r_zero=float(r_zero), yp_zero=float(yp_zero))

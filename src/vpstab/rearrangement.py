"""Distribution functions, Schwarz symmetrization, the phase-volume Jacobian,
and the rearrangement with respect to the microscopic energy.

The distribution function mu_f and the decreasing rearrangement f* are computed
exactly on the discrete cell measure (one stable sort, prefix sums), so
equimeasurability between f and f* holds at machine precision and the only
discretization error left in derived identities is the continuum one.

The Jacobian a(e) is the phase-space volume of {|v|^2/2 + phi(x) < e}; for a
potential with exterior law -M/(4 pi r) the integrals split into an interior
turning-point rule and an exact incomplete-Beta tail.
"""

import csv
from dataclasses import dataclass
import numpy as np

from .numerics import (
    InvalidArgumentError,
    OutOfRangeError,
    _read_only,
    branchwise,
    cosine_mesh,
    exterior_power_tail,
    pchip,
    turning_point_rule,
    turning_radius,
)
from .poisson import check_X_membership
from .steady_state import PhaseSpaceDensity, DomainError

EIGHT_PI_SQRT2_3 = 8.0 * np.pi * np.sqrt(2.0) / 3.0
FOUR_PI_SQRT2 = 4.0 * np.pi * np.sqrt(2.0)
FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class DistributionFunction:
    """mu(s) = measure of {f > s}, nonincreasing and right-continuous.

    values_asc / cum_above hold the cell values sorted ascending and the
    measure strictly above each value; ties are broken by cell index so
    repeated runs are bit-identical.
    """

    values_asc: np.ndarray
    measures_asc: np.ndarray

    def __post_init__(self):
        _read_only(self.values_asc, self.measures_asc)

    @property
    def total_measure(self):
        return float(np.sum(self.measures_asc))

    @property
    def sup(self):
        return float(self.values_asc[-1]) if self.values_asc.size else 0.0

    def evaluate(self, s):
        """Vectorized mu(s)."""
        s = np.asarray(s, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.measures_asc)])
        k = np.searchsorted(self.values_asc, s, side="right")
        return cum[-1] - cum[k]

    def support_measure(self):
        """mu(0+): measure of the strictly positive set."""
        return float(self.evaluate(np.array([0.0]))[0])


def _ascending_order(vals):
    """np.argsort(vals, kind="stable"), bit for bit, by sign class: the
    negatives by the stable sort, then the zeros (+0 and -0, equal values)
    in index order, then the positives, then NaN in index order. A density's
    cells are mostly zero or positive: the zeros need no sort, and the
    positives take numpy's default sort, which is not stable but is faster
    and gives the stable order when no two of them are equal; with a tie
    they take the stable sort."""
    zeros = np.flatnonzero(vals == 0.0)
    pos = np.flatnonzero(vals > 0.0)
    keys = vals[pos]
    order = np.argsort(keys)
    ranked = keys[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(keys, kind="stable")
    if zeros.size + pos.size == vals.size:  # no negatives and no NaN
        return np.concatenate([zeros, pos[order]])
    neg = np.flatnonzero(vals < 0.0)
    return np.concatenate([
        neg[np.argsort(vals[neg], kind="stable")],
        zeros,
        pos[order],
        np.flatnonzero(np.isnan(vals)),
    ])


def distribution_function(f: PhaseSpaceDensity) -> DistributionFunction:
    vals = f.values.ravel()
    order = _ascending_order(vals)
    return DistributionFunction(values_asc=vals[order], measures_asc=f.measure.ravel()[order])


@dataclass(frozen=True)
class MonotoneRearrangement:
    """Nonincreasing step representation of f* on [0, infinity).

    breaks[k] is the cumulative measure after the k-th (descending) value;
    f*(t) = values[k] on [breaks[k-1], breaks[k]) and 0 past the end.
    """

    breaks: np.ndarray
    step_values: np.ndarray

    def __post_init__(self):
        _read_only(self.breaks, self.step_values)

    @property
    def sup(self):
        return float(self.step_values[0]) if self.step_values.size else 0.0

    @property
    def total(self):
        """L1 norm (mass)."""
        widths = np.diff(np.concatenate([[0.0], self.breaks]))
        return float(np.dot(widths, self.step_values))

    def support_measure(self):
        pos = self.step_values > 0
        if not np.any(pos):
            return 0.0
        return float(self.breaks[np.nonzero(pos)[0][-1]])

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return self._value_with_rank(t, np.searchsorted(self.breaks, t, side="right"))

    def _value_with_rank(self, t, rank):
        """f*(t) for points t with rank breaks at or below each."""
        return np.concatenate([self.step_values, [0.0]])[rank]

    def level_measure(self, s):
        """Measure of {f* > s}; pseudo-inverse of the step function."""
        s = np.asarray(s, dtype=float)
        rev = self.step_values[::-1]  # ascending
        k = self.step_values.size - np.searchsorted(rev, s, side="right")
        return np.concatenate([[0.0], self.breaks])[k]

    def casimir(self, beta):
        widths = np.diff(np.concatenate([[0.0], self.breaks]))
        return float(np.dot(widths, beta(self.step_values)))

    def l1_distance(self, other):
        return l1_distance(self, other)

    def primitive(self, s):
        """G(s) = int_0^s f*(t) dt, piecewise linear and concave."""
        s = np.asarray(s, dtype=float)
        widths = np.diff(np.concatenate([[0.0], self.breaks]))
        gk = np.concatenate([[0.0], np.cumsum(widths * self.step_values)])
        tk = np.concatenate([[0.0], self.breaks])
        return np.interp(s, tk, gk)


def _merged_breaks(a, b):
    """The sorted union t of 0 and the sorted nonnegative break arrays a and
    b, with the number of breaks of a and of b at or below each t_k, from one
    stable merge of [0, a, b]: the copies of t_k end in the last one from b,
    else from [0, a], whose own index counts its array's breaks up to t_k."""
    merged = np.concatenate([[0.0], a, b])
    order = np.argsort(merged, kind="stable")
    s = merged[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    last = order[ends]
    rank_b = np.where(last > a.size, last - a.size, ends - last)
    return s[ends], ends - rank_b, rank_b


def l1_distance(p, q):
    """L1 distance between two rearrangement profiles (MonotoneRearrangement
    or ModelRearrangement): the midpoint rule on the union of their breaks,
    exact when both are steps and second order against a smooth profile.

    The merge counts each profile's breaks at or below every midpoint: the
    index of a step profile's value there, or one more than the piece of
    Q*'s interpolant. So no midpoint is searched for."""
    t, rank_p, rank_q = _merged_breaks(p.breaks, q.breaks)
    mids = 0.5 * (t[:-1] + t[1:])
    # the midpoint of two adjacent floats can round up onto t_k+1
    up = mids == t[1:]
    rp, rq = rank_p[:-1], rank_q[:-1]
    if up.any():
        rp, rq = np.where(up, rank_p[1:], rp), np.where(up, rank_q[1:], rq)
    return float((np.diff(t) * np.abs(p._value_with_rank(mids, rp) - q._value_with_rank(mids, rq))).sum())


def schwarz_rearrangement(mu: DistributionFunction) -> MonotoneRearrangement:
    """Pseudo-inverse of the distribution function (the bathtub profile)."""
    vals = mu.values_asc[::-1]
    meas = mu.measures_asc[::-1]
    return MonotoneRearrangement(breaks=np.cumsum(meas), step_values=vals.copy())


class ModelRearrangement:
    """Smooth rearrangement profile of a steady state, Q*(t) = F(a^{-1}(t)).

    Backed by the model's Jacobian instead of cell sorting; used where the
    step-function granularity would pollute derivative-based diagnostics.
    breaks is its 2048-point table in t, clustered at both ends of [0, L0].
    Its arrays are read-only: `model.rearrangement` is shared.
    """

    def __init__(self, model):
        self.jac = JacobianMap(model.potential())
        self.L0 = model.L0
        t = cosine_mesh(0.0, model.L0, 2048)
        e = self.jac.a_inv(np.clip(t, 1e-300, None))
        vals = model.profile.evaluate(e)
        vals[0] = model.profile.evaluate(np.array([model.phi_center]))[0]
        self.breaks = t
        self._v = np.clip(vals, 0.0, None)
        _read_only(self.breaks, self._v)
        self._interp = pchip(t, self._v)
        self._G = self._interp.antiderivative()
        self._Gtot = float(self._G(model.L0))

    @property
    def sup(self):
        return float(self._v[0])

    @property
    def total(self):
        return self._Gtot

    def support_measure(self):
        return self.L0

    def value(self, t):
        """Q*(t), the interpolant evaluated only below L0 and 0 from there."""
        t = np.asarray(t, dtype=float)
        return branchwise(
            t, t < self.L0, lambda x: np.clip(self._interp(np.clip(x, 0.0, self.L0)), 0.0, None), np.zeros_like
        )

    def _value_with_rank(self, t, rank):
        """`value` at ascending t >= 0 with rank breaks at or below each:
        piece rank - 1 of the interpolant below L0, 0 from there."""
        below = t.searchsorted(self.L0)
        i = rank[:below] - 1
        out = np.zeros(t.shape)
        out[:below] = np.clip(self._interp.at(i, t[:below] - self.breaks[i]), 0.0, None)
        return out

    def primitive(self, s):
        s = np.asarray(s, dtype=float)
        return np.where(s < self.L0, self._G(np.clip(s, 0.0, self.L0)), self._Gtot)

    def l1_distance(self, other):
        return l1_distance(self, other)


class JacobianMap:
    """Tabulated phase-volume map e -> a(e) with derivative and inverse.

    a(e) = (8 pi sqrt(2) / 3) int (e - phi)_+^{3/2} dx vanishes for e <= min
    phi, increases strictly on [min phi, 0) and diverges as e -> 0^-, so its
    inverse covers all of [0, infinity).
    """

    def __init__(self, pot):
        ok, _ = check_X_membership(pot)
        if not ok:
            raise InvalidArgumentError("potential is not in the admissible decay class")
        self.pot = pot
        self.min_phi = pot.min_phi
        lo = self.min_phi
        hi = -1e-5 * abs(self.min_phi)
        mesh = cosine_mesh(lo, hi, 512)
        i_a, i_ap = self._sublevel_integral(mesh, 1.5, 0.5)
        a_vals = EIGHT_PI_SQRT2_3 * FOUR_PI * i_a
        ap_vals = FOUR_PI_SQRT2 * FOUR_PI * i_ap
        keep = np.concatenate([[True], np.diff(a_vals) > 0])
        self._e_tab = mesh[keep]
        self._a_tab = a_vals[keep]
        self._ap_tab = ap_vals[keep]
        _read_only(self._e_tab, self._a_tab, self._ap_tab)
        self._a_interp = pchip(self._e_tab, self._a_tab)
        self._ap_interp = pchip(self._e_tab, self._ap_tab)

    # --- direct quadrature -------------------------------------------------
    def _sublevel_integral(self, e, *powers):
        """int_0^{r_e} (e - phi)_+^p r^2 dr for an array of e < 0, one array
        per power p; the powers share the turning radii and potential values."""
        e = np.atleast_1d(np.asarray(e, dtype=float))
        outs = [np.zeros_like(e) for _ in powers]
        active = e > self.min_phi
        if not np.any(active):
            return outs
        ea = e[active]
        pot = self.pot
        r_e = turning_radius(pot.phi_fn, pot.dphi_fn, ea, pot.r_max)
        r, w = turning_point_rule(r_e, 48, 48)
        gap, wr2 = np.clip(ea[:, None] - pot.phi_fn(r), 0.0, None), w * r**2
        # exterior tail where the turning radius M / (4 pi |e|) leaves the grid
        ext = pot.M / FOUR_PI / -ea > pot.r_max
        for out, p in zip(outs, powers):
            total = np.sum(gap**p * wr2, axis=1)
            if np.any(ext):
                total[ext] += exterior_power_tail(pot.M, ea[ext], pot.r_max, p, 2)
            out[active] = total
        return outs

    def a_direct(self, e):
        return EIGHT_PI_SQRT2_3 * FOUR_PI * self._sublevel_integral(e, 1.5)[0]

    def a_prime_direct(self, e):
        return FOUR_PI_SQRT2 * FOUR_PI * self._sublevel_integral(e, 0.5)[0]

    # --- tabulated evaluation ----------------------------------------------
    def a(self, e):
        """The interpolant on the table, 0 below it, direct quadrature above it."""
        e = np.asarray(e, dtype=float)
        inside = (e > self._e_tab[0]) & (e <= self._e_tab[-1])
        out = np.zeros(e.shape)
        out[inside] = self._a_interp(e[inside])
        beyond = e > self._e_tab[-1]
        if np.any(beyond):
            out[beyond] = self.a_direct(np.clip(e[beyond], None, -1e-300))
        return out

    def a_inv(self, s):
        """Inverse of the tabulated map, exact against the interpolant.

        Newton in e with bisection safeguards per query; values past the
        tabulated range fall back to the exterior asymptotics bracket.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.full(s.shape, self._e_tab[0])
        pos = s > 0
        if not np.any(pos):
            return out
        sp = np.clip(s[pos], None, self._a_tab[-1])
        k = np.clip(np.searchsorted(self._a_tab, sp) - 1, 0, self._e_tab.size - 2)
        lo = self._e_tab[k]
        hi = self._e_tab[k + 1]
        e = 0.5 * (lo + hi)
        for _ in range(60):
            f = self._a_interp(e) - sp
            d = np.clip(self._ap_interp(e), 1e-300, None)
            lo = np.where(f < 0, e, lo)
            hi = np.where(f > 0, e, hi)
            e_new = np.clip(e - f / d, lo, hi)
            stuck = (e_new == e) & (np.abs(f) > 1e-13 * np.maximum(sp, 1.0))
            e_new = np.where(stuck, 0.5 * (lo + hi), e_new)
            if np.all(np.abs(e_new - e) <= 1e-16 * np.abs(e_new) + 1e-300):
                e = e_new
                break
            e = e_new
        res = np.full(s.shape, self._e_tab[0])
        res[pos] = e
        res[s >= self._a_tab[-1]] = self._e_tab[-1]
        return res


def generalized_rearrangement(fstar, jac: JacobianMap, grid) -> PhaseSpaceDensity:
    """Rearrangement with respect to the microscopic energy of the potential
    jac.pot: f(r, u) = f*(a(u^2/2 + phi(r))) where the energy is negative,
    else 0.

    Each cell holds the average (G(a_hi) - G(a_lo)) / (a_hi - a_lo) of the
    composition over its energy window, G the primitive of f*: the
    finite-volume view, which averages out the cut-cell noise of the discrete
    measure and converges at second order.
    """
    phi_edges = jac.pot.phi_fn(grid.radial.edges)
    u_edges = grid.speeds.edges
    e_lo = 0.5 * u_edges[:-1][None, :] ** 2 + phi_edges[:-1][:, None]
    e_hi = 0.5 * u_edges[1:][None, :] ** 2 + phi_edges[1:][:, None]
    support_top = fstar.support_measure()
    a_lo = np.zeros_like(e_lo)
    a_hi = np.full_like(e_hi, 2.0 * support_top + 1.0)
    lo_neg = e_lo < 0
    a_lo[lo_neg] = jac.a(e_lo[lo_neg])
    hi_neg = e_hi < 0
    a_hi[hi_neg] = jac.a(e_hi[hi_neg])
    da = a_hi - a_lo
    avg = (fstar.primitive(a_hi) - fstar.primitive(a_lo)) / np.where(da > 0, da, 1.0)
    values = np.where(da > 0, avg, fstar.value(a_lo))
    values = np.where(lo_neg, values, 0.0)
    return PhaseSpaceDensity(grid=grid, values=values)


def pseudo_inverse_level(fstar, jac: JacobianMap, s):
    """Largest energy e with f*(a(e)) > s; equals a^{-1}(mu(s)) by duality."""
    sup = fstar.sup
    if not 0.0 < s < sup:
        raise OutOfRangeError(f"level {s} outside (0, {sup})")
    if hasattr(fstar, "level_measure"):
        m = float(np.asarray(fstar.level_measure(np.array([s])))[0])
    else:
        # smooth profile: invert by bisection on the value function
        lo, hi = 0.0, fstar.support_measure()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(np.asarray(fstar.value(np.array([mid])))[0]) > s:
                lo = mid
            else:
                hi = mid
        m = lo
    return float(np.asarray(jac.a_inv(np.array([m])))[0])


def path_derivative_a(pot, pot_tilde, lam, e):
    """Derivative of a_{phi + lam h}(e) along the segment h = phi_tilde - phi:
    -4 pi sqrt(2) int (e - phi - lam h)_+^{1/2} h dx, by turning_point_rule
    with 64 nodes on each part."""
    if e >= 0:
        raise DomainError("energy must be negative")
    lam = float(lam)
    M_lam = (1.0 - lam) * pot.M + lam * pot_tilde.M
    r_max = max(pot.r_max, pot_tilde.r_max)

    def phi_lam(r):
        return (1.0 - lam) * pot.phi_fn(r) + lam * pot_tilde.phi_fn(r)

    def h_fn(r):
        return pot_tilde.phi_fn(r) - pot.phi_fn(r)

    def dphi_lam(r):
        return (1.0 - lam) * pot.dphi_fn(r) + lam * pot_tilde.dphi_fn(r)

    r, w = turning_point_rule(float(turning_radius(phi_lam, dphi_lam, e, r_max)), 64, 64)
    integral = np.dot(w, np.clip(e - phi_lam(r), 0.0, None) ** 0.5 * h_fn(r) * r**2)
    # both exterior laws are monopoles: h = -dbeta/r past r_max, up to the
    # exterior turning radius
    dbeta = (pot_tilde.M - pot.M) / FOUR_PI
    integral -= dbeta * exterior_power_tail(M_lam, e, r_max, 0.5, 1)
    return -FOUR_PI_SQRT2 * FOUR_PI * float(integral)


def _write_table(path, header, *columns):
    """CSV with a header row and one row per index of the columns, each value
    written as repr(float(v)), which reads back exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


def export_tables(prefix, mu, fstar, jac):
    """CSV dumps of (s, mu) and (t, f*) on 512 rows, and the (e, a, a')
    table of the Jacobian, for plotting."""
    paths = {name: f"{prefix}_{name}.csv" for name in ("mu", "fstar", "jacobian")}
    s = np.linspace(0.0, mu.sup, 512)
    _write_table(paths["mu"], ["s", "mu"], s, mu.evaluate(s))
    t = np.linspace(0.0, fstar.support_measure() * 1.05 + 1e-300, 512)
    _write_table(paths["fstar"], ["t", "fstar"], t, fstar.value(t))
    _write_table(paths["jacobian"], ["e", "a", "a_prime"], jac._e_tab, jac._a_tab, jac._ap_tab)
    return paths

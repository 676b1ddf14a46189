"""Nonincreasing spherical steady states Q = F(|v|^2/2 + phi_Q).

Two families are built: generalized polytropes F(e) = (e0 - e)_+^q with
0 < q < 7/2, and the King profile F(e) = (exp(e0 - e) - 1)_+. Both reduce
the self-consistent Poisson problem to a single radial ODE for the depth
variable psi = e0 - phi, integrated with fixed-step RK4 plus a series start.
A model evaluates psi through that ODE's dense output. A model file is a
recipe: loading it rebuilds the model from its kind and parameters on its
stored grid, and checks the stored tables against the rebuilt ones.

Units: the Poisson equation is Laplacian(phi) = rho (the 1/(4 pi) Green
kernel), so exterior potentials are -M/(4 pi r).
"""

import json
import math
import numbers
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy import special
from scipy.special import cython_special

from .numerics import (
    Grid1D,
    InvalidArgumentError,
    PhaseSpaceGrid,
    make_1d_grid,
    make_grids,
    solve_profile_ode,
    turning_point_integral,
)

FOUR_PI_SQRT2 = 4.0 * np.pi * np.sqrt(2.0)


class DomainError(ValueError):
    pass


@dataclass(frozen=True)
class PolytropeProfile:
    """F(e) = (e0 - e)_+^q, with F' singular at the cutoff for q < 1."""

    q: float
    e0: float

    def __post_init__(self):
        if not 0.0 < self.q < 3.5:
            raise InvalidArgumentError("polytrope exponent must lie in (0, 7/2)")

    kind = "polytrope"

    def evaluate(self, e):
        return np.clip(self.e0 - np.asarray(e, dtype=float), 0.0, None) ** self.q

    # cutoff factorizations F = (e0-e)^a * smooth, |F'| = (e0-e)^b * smooth,
    # consumed by Gauss-Jacobi rules so integrable cusps cost no accuracy
    @property
    def f_cusp(self):
        return self.q

    def f_smooth(self, e):
        return np.ones_like(np.asarray(e, dtype=float))

    @property
    def fp_cusp(self):
        return self.q - 1.0

    def fp_smooth(self, e):
        return np.full_like(np.asarray(e, dtype=float), self.q)

    # closed-form kernels in psi = e0 - phi >= 0
    def rho_kernel(self, psi):
        c = FOUR_PI_SQRT2 * special.beta(self.q + 1.0, 1.5)
        return c * np.power(np.maximum(psi, 0.0), self.q + 1.5)

    def vq_kernel(self, psi):
        c = FOUR_PI_SQRT2 * self.q * special.beta(self.q, 1.5)
        return c * np.power(np.maximum(psi, 0.0), self.q + 0.5)

    def kin_kernel(self, psi):
        c = FOUR_PI_SQRT2 * special.beta(self.q + 1.0, 2.5)
        return c * np.power(np.maximum(psi, 0.0), self.q + 2.5)


@dataclass(frozen=True)
class KingProfile:
    """F(e) = (exp(e0 - e) - 1)_+."""

    e0: float

    kind = "king"

    def evaluate(self, e):
        w = self.e0 - np.asarray(e, dtype=float)
        return np.where(w > 0, np.expm1(np.clip(w, None, 700.0)), 0.0)

    @property
    def f_cusp(self):
        return 1.0

    def f_smooth(self, e):
        w = np.atleast_1d(self.e0 - np.asarray(e, dtype=float))
        wsafe = np.where(w == 0, 1.0, w)
        return np.where(w == 0, 1.0, np.expm1(wsafe) / wsafe)

    @property
    def fp_cusp(self):
        return 0.0

    def fp_smooth(self, e):
        return np.exp(self.e0 - np.asarray(e, dtype=float))

    # The kernels c W^(m + 1/2) M(1, b, W) of depth W >= 0, as (c, m, b):
    # int_0^W (e^s - 1)(W - s)^(1/2) ds = (4/15) W^(5/2) M(1, 7/2, W)
    _RHO = (4.0 / 15.0, 2, 3.5)
    # int_0^W e^s (W - s)^(1/2) ds = (2/3) W^(3/2) M(1, 5/2, W)
    _VQ = (2.0 / 3.0, 1, 2.5)
    # int_0^W (e^s - 1)(W - s)^(3/2) ds = (4/35) W^(7/2) M(1, 9/2, W)
    _KIN = (4.0 / 35.0, 3, 4.5)

    def _kernel(self, psi, c, m, b):
        """The power W^(m + 1/2) as sqrt(W) * W * ... * W from the left: sqrt and
        products are correctly rounded, so `_rho_source` repeats its bits."""
        w = np.maximum(psi, 0.0)
        power = np.sqrt(w)
        for _ in range(m):
            power = power * w
        return FOUR_PI_SQRT2 * c * power * special.hyp1f1(1.0, b, w)

    def rho_kernel(self, psi):
        return self._kernel(psi, *self._RHO)

    def vq_kernel(self, psi):
        return self._kernel(psi, *self._VQ)

    def kin_kernel(self, psi):
        return self._kernel(psi, *self._KIN)

    def _rho_source(self):
        """rho_kernel on one float, returning a float, with no numpy call: the
        source of the profile solve. Same bits as the kernel: max(y, 0.0) gives
        NaN for NaN as np.maximum does and + 0.0 turns -0.0 into 0.0, W^(5/2)
        is math.sqrt(W) * W * W, and cython_special's scalar hyp1f1, at a
        fifth of the ufunc's cost, gives the ufunc's bits."""
        c, _, b = self._RHO  # m = 2
        k = float(FOUR_PI_SQRT2 * c)

        def source(y):
            w = max(y, 0.0) + 0.0
            return k * (math.sqrt(w) * w * w) * cython_special.hyp1f1(1.0, b, w)

        return source


@dataclass(frozen=True)
class InteriorSolution:
    """Dimensionalized interior depth profile psi(r) = y_scale * y(r / r_scale),
    y(x, nu) the value (nu = 0) or derivative (nu = 1) of the profile ODE's
    dense output."""

    ode: object
    r_scale: float = 1.0
    y_scale: float = 1.0

    def psi(self, r):
        return self.y_scale * self.ode(np.asarray(r, dtype=float) / self.r_scale)

    def dpsi(self, r):
        return self.y_scale / self.r_scale * self.ode(np.asarray(r, dtype=float) / self.r_scale, 1)


@dataclass(frozen=True)
class SteadyStateModel:
    """Self-consistent steady state with its radial grid data.

    phi/rho hold node values on `grid`; interior evaluates psi = e0 - phi
    densely on [0, R_Q] through the profile ODE's solution, so derived
    quadratures are not limited by the grid resolution; the exterior is the
    exact -M/(4 pi r). Immutable after construction.
    """

    profile: object
    grid: Grid1D
    phi: np.ndarray
    rho: np.ndarray
    e0: float
    R_Q: float
    M: float
    L0: float
    kinetic: float
    hamiltonian: float
    interior: InteriorSolution
    meta: dict

    def __post_init__(self):
        self.phi.setflags(write=False)
        self.rho.setflags(write=False)

    @cached_property
    def phi_center(self):
        return self.e0 - float(self.psi_fn(np.array([0.0]))[0])

    def psi_fn(self, r):
        """Depth e0 - phi(r), zero outside the support."""
        r = np.asarray(r, dtype=float)
        inside = r < self.R_Q
        out = np.zeros_like(r)
        if np.any(inside):
            out[inside] = np.clip(self.interior.psi(r[inside]), 0.0, None)
        # exterior psi = e0 + M/(4 pi r) < 0 is clipped to zero: F vanishes there
        return out

    # the laws of the model's potential (`PotentialX.from_model`), at least
    # 1-d as the interior's dense output is, so a 0-d r gives shape (1,)
    def phi_fn(self, r):
        return np.atleast_1d(self._potential.phi_fn(r))

    def dphi_fn(self, r):
        return np.atleast_1d(self._potential.dphi_fn(r))

    def rho_fn(self, r):
        return self.profile.rho_kernel(self.psi_fn(r))

    def vq_fn(self, r):
        return self.profile.vq_kernel(self.psi_fn(r))

    def u_escape(self, r):
        return np.sqrt(2.0 * self.psi_fn(r))

    @property
    def dynamical_time(self):
        """Period of small radial oscillations about the centre."""
        rho0 = float(self.rho_fn(np.array([0.0]))[0])
        return 2.0 * np.pi * np.sqrt(3.0 / rho0)

    # Objects that depend only on the model are built on first use and then
    # shared, so their arrays are read-only.
    def potential(self):
        return self._potential

    @cached_property
    def _potential(self):
        from .poisson import PotentialX

        return PotentialX.from_model(self)

    @cached_property
    def rearrangement(self):
        """Q* as a ModelRearrangement; `.jac` is the potential's JacobianMap."""
        from .rearrangement import ModelRearrangement

        return ModelRearrangement(self)

    @cached_property
    def energy_mesh(self):
        """spectral.energy_mesh of the model."""
        from .spectral import energy_mesh

        return energy_mesh(self)

    def reference_hamiltonian(self, grid):
        """hamiltonian(phase_space_density(self, grid)), kept for the last
        grid object: a PhaseSpaceGrid cannot change (frozen, read-only
        arrays), and a lower-bound run compares many densities on one grid."""
        from .functionals import hamiltonian

        memo = self.__dict__.get("_reference_hamiltonian")
        if memo is None or memo[0] is not grid:
            memo = (grid, hamiltonian(phase_space_density(self, grid=grid)).hamiltonian)
            object.__setattr__(self, "_reference_hamiltonian", memo)
        return memo[1]

    def to_json(self):
        return {
            "format": "vpstab-model",
            "version": 2,
            "kind": self.profile.kind,
            "e0": self.e0,
            "M": self.M,
            "R_Q": self.R_Q,
            "L0": self.L0,
            "kinetic": self.kinetic,
            "hamiltonian": self.hamiltonian,
            "phi0": float(self.phi_center),
            "r": self.grid.nodes.tolist(),
            "edges": self.grid.edges.tolist(),
            "phi": self.phi.tolist(),
            "rho": self.rho.tolist(),
            "meta": self.meta,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    @staticmethod
    def from_json(doc):
        """The model a to_json document describes. The document is a recipe:
        its `kind` and `meta` rebuild the model (recipe_model) on the grid of
        its `r` and `edges`, and every stored number of _CHECKED must equal
        the rebuilt one to 1e-12 of that entry's scale (its largest
        magnitude: about |phi(0)| for `phi`); other entries, such as the
        profile-parameter block of a version-1 file, are not read.
        InvalidArgumentError if the document is not a model, lacks an entry,
        holds a recipe that does not build, or disagrees with its rebuild."""
        if not isinstance(doc, dict) or doc.get("format") != "vpstab-model":
            raise InvalidArgumentError("not a model document")
        _require(doc, ("kind", "meta", "r", "edges") + _CHECKED, "model document")
        r, edges = (_finite_entry(doc, key, "model document") for key in ("r", "edges"))
        try:
            grid = Grid1D(nodes=r, edges=edges)
        except InvalidArgumentError as exc:
            raise InvalidArgumentError(f"model document: r and edges: {exc}") from None
        model = recipe_model(doc["kind"], doc["meta"], lambda _r: grid)
        built = model.to_json()
        for key in _CHECKED:
            if not _agrees(doc[key], built[key]):
                raise InvalidArgumentError(f"model entry {key} differs from the model its recipe builds")
        return model

    @staticmethod
    def load(path):
        with open(path) as fh:
            return SteadyStateModel.from_json(json.load(fh))


# the stored numbers that load checks against the rebuilt model
_CHECKED = ("e0", "M", "R_Q", "L0", "kinetic", "hamiltonian", "phi0", "phi", "rho")


def _agrees(stored, rebuilt):
    """Whether a stored number, or list of numbers, equals the rebuilt one
    to 1e-12 of the rebuilt entry's largest magnitude."""
    try:
        stored = np.asarray(stored, dtype=float)
    except (TypeError, ValueError):
        return False
    rebuilt = np.asarray(rebuilt, dtype=float)
    tol = 1e-12 * np.max(np.abs(rebuilt))
    return stored.shape == rebuilt.shape and bool(np.all(np.abs(stored - rebuilt) <= tol))


def _require(doc, keys, what):
    """doc itself, after checking that it is a JSON object holding keys."""
    if not isinstance(doc, dict):
        raise InvalidArgumentError(f"{what} is not a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise InvalidArgumentError(f"{what} lacks {', '.join(missing)}")
    return doc


def _finite_entry(doc, key, where):
    """doc[key] as a float array, InvalidArgumentError unless all finite."""
    try:
        values = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):  # an object, a string, a ragged list
        values = np.nan
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError(f"{where}: {key} must hold finite numbers only")
    return values


def _finish_model(profile, interior, grid_for, R_Q, M, meta):
    from .poisson import field_energy, monopole_continued

    grid = grid_for(R_Q)
    if grid.x_max < R_Q:
        raise InvalidArgumentError(f"grid extent {grid.x_max} smaller than support radius {R_Q}")
    e0 = profile.e0
    # the table reads psi clipped at 0, as the rule below does, and no phi'
    phi_inside = lambda r: e0 - np.clip(interior.psi(r), 0.0, None)
    phi = monopole_continued(R_Q, M, lambda r: phi_inside(np.clip(r, 0.0, R_Q)), None)[0](grid.nodes)
    psi = np.clip(e0 - phi, 0.0, None)
    rho = profile.rho_kernel(np.where(grid.nodes < R_Q, psi, 0.0))

    # the rule's nodes lie inside (0, R_Q), where phi = e0 - psi
    L0 = (8.0 * np.pi * np.sqrt(2.0) / 3.0) * 4.0 * np.pi * turning_point_integral(phi_inside, e0, R_Q, 1.5)
    kin_density = profile.kin_kernel(np.where(grid.nodes < R_Q, psi, 0.0))
    kinetic = 4.0 * np.pi * grid.integrate_sq(kin_density)

    model = SteadyStateModel(
        profile=profile,
        grid=grid,
        phi=phi,
        rho=rho,
        e0=e0,
        R_Q=R_Q,
        M=M,
        L0=L0,
        kinetic=kinetic,
        hamiltonian=0.0,
        interior=interior,
        meta=meta,
    )
    ham = kinetic - field_energy(model.potential())
    return replace(model, hamiltonian=ham)


def build_polytrope(q, central_potential_depth, grid):
    """Polytrope steady state with given cutoff depth psi(0) = e0 - phi(0).

    Solved as a Lane-Emden problem in scaled variables (index n = q + 3/2,
    finite radius for q < 7/2), then dimensionalized; the cutoff energy follows
    from matching to the exterior -M/(4 pi r) law.
    """
    return _polytrope(q, central_potential_depth, lambda _r: grid)


# The deepest profiles whose fine solve converges: halving the step moves
# R_Q by 4.6e-6 at King W0 = 12 and 4.8e-6 at q = 3.45, but by 6.0e-5 at
# W0 = 13 and 3.6e-5 at q = 3.47. Past them the fine step (a 6000th of the
# coarse radius) is no longer short against the central scale; at W0 = 18
# the solve stops after one RK4 step with a negative mass.
KING_W0_MAX = 12.0
POLYTROPE_Q_MAX = 3.45
# The shallowest King model: the coarse step stays 0.02 while R_Q grows as
# W0^(-3/4), so the coarse solve takes 22 000 steps at W0 = 1e-3 and 4
# million at 1e-6. That shallow, a King model is the q = 1 polytrope of
# depth W0 to about W0 / 5, which takes 6000 steps.
KING_W0_MIN = 1e-3
# Polytrope depths whose model stays inside the float range: every quantity
# is a power of the depth times a scale-free number, up to depth^(q + 5/2),
# and for every q <= POLYTROPE_Q_MAX the scale-free ratios (H / K, e0 R_Q / M,
# ...) keep 1e-14 of their depth-1 values out to 1e-50 and 1e50.
POLYTROPE_DEPTH_RANGE = (1e-40, 1e40)


def _profile_ode(source, y0):
    """Profile solve in about 6000 steps out to its zero. A coarse solve
    finds the zero first; its step is 0.02, or a tenth of the central scale
    sqrt(6 y0 / S(y0)) (y ~ y0 - S(y0) r^2 / 6 there) when that is shorter,
    as in deep King models. Converged for depths up to KING_W0_MAX and
    POLYTROPE_Q_MAX, which the builders enforce.

    The solve calls source on floats only, and each source clamps its own
    argument and keeps the bits of its array kernel: King's power is
    sqrt(W) * W * W, a polytrope's np.power (`**` on a float is libm's pow,
    which differs from np.power in the last bit on about 5% of inputs)."""
    h = min(0.02, float(np.sqrt(6.0 * y0 / source(y0))) / 10.0)
    coarse = solve_profile_ode(source, y0, h)
    return solve_profile_ode(source, y0, coarse.r_zero / 6000)


def _power_source(n):
    """y -> max(y, 0)^n on one float, returning a float: the Lane-Emden
    source of a polytrope's profile solve, n = q + 3/2. Same bits as the
    array kernels' np.power(np.maximum(y, 0.0), n): max(y, 0.0) gives NaN for
    NaN, and + 0.0 turns -0.0 into 0.0, whose odd power (n = 3 at q = 3/2)
    would otherwise be -0.0."""
    return lambda y: float(np.power(max(y, 0.0) + 0.0, n))


def _check_positive(**params):
    """InvalidArgumentError unless every value is a finite number > 0."""
    for name, value in params.items():
        if not isinstance(value, numbers.Real) or not 0.0 < value < np.inf:
            raise InvalidArgumentError(f"{name} must be a positive finite number, not {value!r}")


def _polytrope(q, psi0, grid_for):
    """build_polytrope on the grid grid_for(R_Q); the support radius R_Q is
    the zero of the fine profile solve (`_profile_ode`)."""
    _check_positive(q=q, depth=psi0)
    lo, hi = POLYTROPE_DEPTH_RANGE
    if not lo <= psi0 <= hi:
        raise InvalidArgumentError(f"polytrope depth {psi0} outside [{lo}, {hi}]: the model leaves the float range")
    if q >= 3.5:
        raise InvalidArgumentError(f"polytrope exponent q={q} outside (0, 7/2): infinite extent")
    if q > POLYTROPE_Q_MAX:
        raise InvalidArgumentError(
            f"polytrope exponent q={q} above {POLYTROPE_Q_MAX}: the profile solve does not converge to 1e-5"
        )
    n_index = q + 1.5
    ode = _profile_ode(_power_source(n_index), 1.0)
    xi1, dtheta1 = ode.r_zero, ode.yp_zero

    c_q = FOUR_PI_SQRT2 * special.beta(q + 1.0, 1.5)
    alpha = 1.0 / np.sqrt(c_q * psi0 ** (n_index - 1.0))
    R_Q = alpha * xi1
    M = 4.0 * np.pi * psi0 * alpha * xi1**2 * abs(dtheta1)
    e0 = -psi0 * xi1 * abs(dtheta1)

    profile = PolytropeProfile(q=q, e0=e0)
    interior = InteriorSolution(ode=ode, r_scale=alpha, y_scale=psi0)
    meta = {"q": q, "depth": psi0, "xi1": xi1}
    return _finish_model(profile, interior, grid_for, R_Q, M, meta)


def build_king(W0, grid):
    """King steady state parametrized by the scaled depth W0 = e0 - phi(0).

    W(r) is integrated outward until it vanishes at the support radius, and the
    cutoff energy is recovered from the continuous and differentiable match to
    the exterior law, e0 = R_Q W'(R_Q).
    """
    return _king(W0, lambda _r: grid)


def _king(W0, grid_for):
    """build_king on the grid grid_for(R_Q); the support radius R_Q is the
    zero of the fine profile solve (`_profile_ode`)."""
    _check_positive(W0=W0)
    if W0 > KING_W0_MAX:
        raise InvalidArgumentError(f"King depth W0={W0} above {KING_W0_MAX}: the profile solve does not converge to 1e-5")
    if W0 < KING_W0_MIN:
        raise InvalidArgumentError(
            f"King depth W0={W0} below {KING_W0_MIN}: the coarse profile solve takes over 22000 steps;"
            " build the q = 1 polytrope of depth W0, which equals this model to about W0 / 5"
        )
    ode = _profile_ode(KingProfile(e0=-1.0)._rho_source(), W0)
    R_Q, dW1 = ode.r_zero, ode.yp_zero
    e0 = R_Q * dW1
    M = -4.0 * np.pi * R_Q**2 * dW1
    profile = KingProfile(e0=e0)
    interior = InteriorSolution(ode=ode)
    meta = {"W0": W0}
    return _finish_model(profile, interior, grid_for, R_Q, M, meta)


def support_grid(n_r):
    """grid_for of a builder: n_r uniform cells reaching 3 times the support
    radius."""
    return lambda R_Q: make_1d_grid(3.0 * R_Q * 1.0001, n_r)


def polytrope_model(q, depth=1.0, n_r=400):
    """Build a polytrope on a uniform grid reaching 3 times the support radius."""
    return _polytrope(q, depth, support_grid(n_r))


def king_model(W0=3.0, n_r=400):
    """Build a King model on a uniform grid reaching 3 times the support radius."""
    return _king(W0, support_grid(n_r))


# A model's recipe: its kind names the builder, which takes these entries of
# the model's `meta`.
_RECIPES = {"king": (_king, ("W0",)), "polytrope": (_polytrope, ("q", "depth"))}


def recipe_model(kind, params, grid_for):
    """The model of kind "king" or "polytrope" built from the recipe entries
    of params on the grid grid_for(R_Q); InvalidArgumentError for another
    kind, or for an entry that is missing or that the builder rejects."""
    if not isinstance(kind, str) or kind not in _RECIPES:
        raise InvalidArgumentError(f"unknown model kind {kind!r}")
    build, names = _RECIPES[kind]
    _require(params, names, f"{kind} model")
    return build(*(params[k] for k in names), grid_for)


def radial_laplacian(r, phi):
    """Discrete (1/r^2)(r^2 phi')' by flux differences between inter-node
    midpoints, divided by the exact shell volume so quadratics are exact
    (the centre node gets zero inner flux)."""
    rm = 0.5 * (r[1:] + r[:-1])
    flux = rm**2 * np.diff(phi) / np.diff(r)
    faces = np.concatenate([[0.0], rm])
    lap = np.empty_like(r)
    lap[:-1] = 3.0 * np.diff(np.concatenate([[0.0], flux])) / np.diff(faces**3)
    lap[-1] = lap[-2]
    return lap


def check_steady_state(model):
    """Max-norm Poisson residual |Laplacian(phi) - rho| / max(rho) on the grid."""
    lap = radial_laplacian(model.grid.nodes, model.phi)
    res = np.abs(lap - model.rho)
    return float(res[:-1].max() / model.rho.max())


@dataclass(frozen=True)
class PhaseSpaceDensity:
    """Isotropic density f(r, u) sampled on a tensor phase-space grid."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def measure(self):
        return self.grid.cell_measure

    def mass(self):
        return float(np.sum(self.measure * self.values))

    def kinetic(self):
        return float(np.sum(self.measure * self.values * (0.5 * self.grid.speeds.nodes**2)))

    def rho(self):
        """Radial density profile: 4 pi int f u^2 du per radial node."""
        return 4.0 * np.pi * self.values @ self.grid.speeds.sq_moments

    def sup(self):
        return float(self.values.max(initial=0.0))

    def with_values(self, values):
        return PhaseSpaceDensity(grid=self.grid, values=np.asarray(values, dtype=float))

    def l1_distance(self, other):
        return float(np.sum(self.measure * np.abs(self.values - other.values)))


def phase_space_density(model, grid=None, n_r=None, n_u=None):
    """Sample Q = F(u^2/2 + phi_Q(r)) on the phase grid: the given grid, or
    else the n_r x n_u grid (400 x 200 by default) exactly covering the
    model's support. A grid comes without sizes."""
    u_needed = float(model.u_escape(np.array([0.0]))[0])
    if grid is None:
        grid = make_grids(model.R_Q, 400 if n_r is None else n_r, u_needed, 200 if n_u is None else n_u)
    elif n_r is not None or n_u is not None:
        raise InvalidArgumentError("pass a phase grid or its sizes, not both")
    if grid.radial.x_max < model.R_Q * (1 - 1e-12) or grid.speeds.x_max < u_needed * (1 - 1e-12):
        warnings.warn("phase grid does not cover the model support; density truncated")
    phi = model.phi_fn(grid.radial.nodes)
    e = 0.5 * grid.speeds.nodes[None, :] ** 2 + phi[:, None]
    values = model.profile.evaluate(e)
    return PhaseSpaceDensity(grid=grid, values=values)

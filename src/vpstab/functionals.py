"""Hamiltonian, reduced potential functional, transport pairing, and the
monotonicity / lower-bound diagnostics.

The central chain is H(f) >= J_{f*}(phi_f) >= H(f-hat), where f-hat is the
rearrangement of f with respect to its own field and
J_{f*}(phi) = H(f^{*phi}) + 1/2 || grad phi - grad phi_{f^{*phi}} ||^2.
monotonicity_gaps books its potential energies as node-shell Green pair
energies (`poisson._shell_pair`); its inequality tests use a tolerance tied
to the run's measured self-consistency error, not an a-priori constant.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import InvalidArgumentError, cosine_mesh, panel_rule
from .poisson import (
    DegenerateInputError,
    _shell_pair,
    field_energy,
    grad_distance2,
    potential_distance,
    solve_poisson_radial,
)
from .rearrangement import (
    JacobianMap,
    distribution_function,
    generalized_rearrangement,
    schwarz_rearrangement,
)
from .steady_state import PhaseSpaceDensity


@dataclass(frozen=True)
class EnergyReport:
    kinetic: float
    potential: float
    hamiltonian: float
    mass: float
    sup: float
    pot: object = None  # the Poisson field, for reuse


@dataclass(frozen=True)
class ReducedReport:
    J_value: float
    J0_value: float
    coupling: float
    J0_check: float


def hamiltonian(f: PhaseSpaceDensity) -> EnergyReport:
    """Kinetic term by phase-space quadrature, potential term from the radial
    Green solve of the induced density."""
    if float(f.values.min(initial=0.0)) < -1e-12 * max(f.sup(), 1.0):
        raise InvalidArgumentError("density has negative values")
    mass = f.mass()
    kinetic = f.kinetic()
    if mass == 0.0:
        return EnergyReport(0.0, 0.0, 0.0, 0.0, 0.0, None)
    pot = solve_poisson_radial(f.grid.radial, f.rho())
    potential = -field_energy(pot)
    return EnergyReport(
        kinetic=kinetic,
        potential=potential,
        hamiltonian=kinetic + potential,
        mass=mass,
        sup=f.sup(),
        pot=pot,
    )


def transport_pairing(f: PhaseSpaceDensity, g: PhaseSpaceDensity, pot) -> float:
    """Integral of (u^2/2 + phi(r)) (f - g) over phase space."""
    if f.grid is not g.grid and (
        f.grid.radial.n != g.grid.radial.n
        or not np.allclose(f.grid.radial.nodes, g.grid.radial.nodes)
        or not np.allclose(f.grid.speeds.nodes, g.grid.speeds.nodes)
    ):
        raise InvalidArgumentError("densities live on different grids")
    phi = pot.phi_fn(f.grid.radial.nodes)
    e = 0.5 * f.grid.speeds.nodes[None, :] ** 2 + phi[:, None]
    return float(np.sum(f.measure * e * (f.values - g.values)))


def _j0_energy_route(fstar, jac, n_panels=96, n_gl=8):
    """J0(phi) = -int_{-inf}^0 G(a(e)) de with G the primitive of f* and a
    the phase-volume map of phi = jac.pot.

    The primitive saturates at the total mass once a(e) exceeds the support
    measure of f*, so the integral splits at e* = a^{-1}(L0) with an exact
    linear remainder.
    """
    L0 = fstar.support_measure()
    g_tot = float(np.asarray(fstar.primitive(np.array([L0 * (1 + 1e-12)])))[0])
    e_star = float(np.asarray(jac.a_inv(np.array([L0])))[0])
    lo = jac.min_phi
    # panel boundaries clustered at both ends of [lo, e_star]
    e, w = panel_rule(cosine_mesh(lo, e_star, n_panels + 1), n_gl)
    total = float(np.dot(w, fstar.primitive(jac.a(e))))
    return -(total + g_tot * (0.0 - e_star))


def reduced_functional(fstar, jac: JacobianMap, grid) -> ReducedReport:
    """J_{f*}(phi) at phi = jac.pot, evaluated both directly (build the
    rearrangement, measure its Hamiltonian and the coupling) and through the
    primitive-of-f* route; the two must agree within the grid's quadrature
    error."""
    pot = jac.pot
    fhat = generalized_rearrangement(fstar, jac, grid)
    rep = hamiltonian(fhat)
    if rep.pot is None:
        coupling = field_energy(pot)
    else:
        coupling = 0.5 * grad_distance2(pot, rep.pot)
    j_direct = rep.hamiltonian + coupling
    j0_check = _j0_energy_route(fstar, jac)
    j0_direct = j_direct - field_energy(pot)
    return ReducedReport(
        J_value=j_direct,
        J0_value=j0_direct,
        coupling=coupling,
        J0_check=j0_check,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    gap1: float
    gap2: float
    pairing: float
    identity_residual: float
    hamiltonian_f: float
    self_error: float

    @property
    def tolerance(self):
        """The gap tolerance, ten times the self-measured discretisation
        error scaled by |H(f)| (at least 1), floored at 1e-11."""
        return 10.0 * max(self.self_error * max(abs(self.hamiltonian_f), 1.0), 1e-12)


def monotonicity_gaps(f: PhaseSpaceDensity) -> MonotonicityReport:
    """gap1 = H(f) - J_{f*}(phi_f) and gap2 = J_{f*}(phi_f) - H(f-hat).

    Potential energies are booked through one Green pair energy P of node
    shells (`poisson._shell_pair`), so the decomposition
    H(f) = J_direct + pairing holds at machine precision, the pairing's field
    term being 2 P(f, f - f-hat), and the coupling (gap2) is a sum of squares,
    nonnegative in floating point. gap1 uses the primitive-of-f* route for J,
    which carries no cell composition noise.
    The spread between the two J routes is the run's quadrature self-error;
    sign assertions should use a tolerance proportional to it.
    """
    if f.mass() <= 0:
        raise DegenerateInputError("zero density")
    grid = f.grid.radial
    rho_f = f.rho()
    pot_f = solve_poisson_radial(grid, rho_f)
    p_ff = _shell_pair(grid, rho_f, rho_f)
    h_f = f.kinetic() + p_ff
    fstar = schwarz_rearrangement(distribution_function(f))
    jac = JacobianMap(pot_f)
    fhat = generalized_rearrangement(fstar, jac, f.grid)
    rho_hat = fhat.rho()
    h_hat = fhat.kinetic() + _shell_pair(grid, rho_hat, rho_hat)
    delta = rho_f - rho_hat
    coupling = -_shell_pair(grid, delta, delta)
    j_direct = h_hat + coupling
    j_refined = -p_ff + _j0_energy_route(fstar, jac)
    # pairing with the same discrete field keeps the identity exact
    e_kin = float(np.sum(f.measure * 0.5 * f.grid.speeds.nodes[None, :] ** 2 * (f.values - fhat.values)))
    pairing = e_kin + 2.0 * _shell_pair(grid, rho_f, delta)
    identity_residual = abs((h_f - j_direct) - pairing)
    scale = max(abs(h_f), abs(h_hat), 1e-300)
    self_error = (abs(j_direct - j_refined) + identity_residual) / scale
    return MonotonicityReport(
        gap1=h_f - j_refined,
        gap2=coupling,
        pairing=pairing,
        identity_residual=identity_residual,
        hamiltonian_f=h_f,
        self_error=self_error,
    )


@dataclass(frozen=True)
class LowerBoundReport:
    lhs: float
    rhs: float
    slack: float
    reliable: bool


def stability_lower_bound(f: PhaseSpaceDensity, model, c0, shift) -> LowerBoundReport:
    """Quantitative bound H(f) - H(Q) + ||phi_f||_inf ||f* - Q*||_L1
    >= c0 || grad phi_f - grad phi_Q(.-z) ||^2 with z the caller's shift
    (for instance spectral.modulation_shift of the field of f).

    Q* (`model.rearrangement`), phi_Q (`model.potential()`) and H(Q) on the
    grid of f (`model.reference_hamiltonian`) depend only on the model and
    that grid, so they are built on the first call and reused after.
    Outside the trust neighbourhood the numbers are still returned but
    flagged unreliable.
    """
    rep_f = hamiltonian(f)
    pot_f = rep_f.pot
    fstar = schwarz_rearrangement(distribution_function(f))
    l1_star = model.rearrangement.l1_distance(fstar)
    sup_phi = abs(pot_f.min_phi)
    # reference Hamiltonian through the same grid quadrature, so the bound is
    # not polluted by the builder-vs-grid discretization offset
    lhs = rep_f.hamiltonian - model.reference_hamiltonian(f.grid) + sup_phi * l1_star

    shift = np.asarray(shift, dtype=float)
    # a shift below 1e-9 R_Q is zero: the aligned radial quadrature applies
    z = shift if np.linalg.norm(shift) >= 1e-9 * model.R_Q else np.zeros(3)
    d_inf, d_grad = potential_distance(pot_f, model.potential(), z)
    rhs = c0 * d_grad**2

    reliable = bool(d_inf + d_grad < 0.5 * abs(model.phi_center))
    return LowerBoundReport(lhs=lhs, rhs=rhs, slack=lhs - rhs, reliable=reliable)

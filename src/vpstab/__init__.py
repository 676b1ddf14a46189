"""Numerical laboratory for the stability of nonincreasing spherical
self-gravitating kinetic equilibria.

The package builds polytropic and King-type steady states of the 3D
gravitational Vlasov-Poisson system, computes symmetric rearrangements with
respect to the microscopic energy, verifies the monotonicity of the total
Hamiltonian under those rearrangements, assembles the Hessian of the reduced
potential-energy functional together with its spectral (Antonov-type)
coercivity analysis, and runs spherically symmetric particle evolutions with
conservation and orbital-distance diagnostics.
"""

from .numerics import Grid1D, PhaseSpaceGrid, make_grids, eig_tridiag
from .steady_state import (
    PolytropeProfile,
    KingProfile,
    SteadyStateModel,
    build_polytrope,
    build_king,
    polytrope_model,
    king_model,
    check_steady_state,
    phase_space_density,
    PhaseSpaceDensity,
)
from .poisson import (
    PotentialX,
    solve_poisson_radial,
    field_energy,
    check_X_membership,
    potential_distance,
)
from .rearrangement import (
    DistributionFunction,
    MonotoneRearrangement,
    JacobianMap,
    distribution_function,
    schwarz_rearrangement,
    generalized_rearrangement,
    pseudo_inverse_level,
    path_derivative_a,
)
from .functionals import (
    EnergyReport,
    ReducedReport,
    hamiltonian,
    reduced_functional,
    transport_pairing,
    monotonicity_gaps,
    stability_lower_bound,
)
from .spectral import (
    project_energy,
    hessian_form,
    harmonic_operator_spectrum,
    coercivity_constant,
    hormander_identity_check,
    taylor_remainder,
    modulation_shift,
)
from .evolver import ParticleEnsemble, sample_particles, evolve, orbital_distance, conservation_report

__version__ = "0.1.0"

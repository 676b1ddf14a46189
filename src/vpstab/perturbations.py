"""Seeded perturbation families around a steady state.

Three families probe the monotonicity chain from different sides:
amplitude bumps Q(1 + eps*chi), exact discrete equimeasurable scrambles
(value permutations on an equal-measure grid), and velocity-space squeezes
that preserve the spatial density.
"""

import numpy as np

from .numerics import Grid1D, InvalidArgumentError, PhaseSpaceGrid, make_1d_grid, make_grids
from .steady_state import PhaseSpaceDensity, phase_space_density


def padded_phase_density(model, n_r, n_u):
    """Steady state on an n_r x n_u grid padded beyond the support (radius by
    5%, speed by 15%), so that rearrangements of nearby densities still fit."""
    u_max = float(model.u_escape(np.array([0.0]))[0])
    grid = make_grids(model.R_Q * 1.05, n_r, u_max * 1.15, n_u)
    return phase_space_density(model, grid=grid)


def bump_field(r_scale, u_scale, seed):
    """Random smooth Gaussian blob chi(r, u) in the (radius, speed) plane,
    located well inside the given scales; returns a vectorized callable."""
    rng = np.random.default_rng(seed)
    r0 = rng.uniform(0.15, 0.75) * r_scale
    u0 = rng.uniform(0.15, 0.75) * u_scale
    sr = rng.uniform(0.1, 0.3) * r_scale
    su = rng.uniform(0.1, 0.3) * u_scale
    sign = rng.choice([-1.0, 1.0])

    def chi(r, u):
        r = np.asarray(r, dtype=float)
        u = np.asarray(u, dtype=float)
        return sign * np.exp(-((r - r0) ** 2) / (2 * sr**2) - ((u - u0) ** 2) / (2 * su**2))

    return chi


def calibrated_bump(model, eta, seed):
    """Steady state times (1 + eps chi), clipped at zero, on the default
    400 x 200 grid of phase_space_density (criterion 8's pinned phase grid),
    with chi = bump_field(R_Q, u_escape(0), seed) and eps chosen so that
    eps ||chi Q||_L1 / ||Q||_L1 = eta: the relative L1 size is eta unless the
    clip acts, and eps = 0 for eta <= 0.

    Returns the density and value_fn(r, u), the same density at any phase
    point (the exact carried value for sample_particles)."""
    if not np.isfinite(eta):
        raise InvalidArgumentError(f"eta must be finite, got {eta}")
    f0 = phase_space_density(model)
    chi = bump_field(model.R_Q, float(model.u_escape(np.array([0.0]))[0]), seed)
    vals = chi(f0.grid.radial.nodes[:, None], f0.grid.speeds.nodes[None, :])
    unit = float(np.sum(f0.measure * np.abs(vals) * f0.values) / f0.mass())
    eps = eta / unit if eta > 0 else 0.0

    def value_fn(r, u):
        q = model.profile.evaluate(0.5 * u**2 + model.phi_fn(r))
        return np.clip(q * (1.0 + eps * chi(r, u)), 0.0, None)

    return f0.with_values(np.clip(f0.values * (1.0 + eps * vals), 0.0, None)), value_fn


def bump_perturbation(f0: PhaseSpaceDensity, eps, seed) -> PhaseSpaceDensity:
    """Multiplicative smooth bump: f = f0 (1 + eps * chi), clipped at zero.

    chi is a Gaussian blob at a random interior location of the (r, u)
    support with O(support/4) widths, so the perturbation stays inside the
    energy space and has relative L1 size ~ eps.
    """
    chi = bump_field(f0.grid.radial.nodes[-1], f0.grid.speeds.nodes[-1], seed)
    vals = chi(f0.grid.radial.nodes[:, None], f0.grid.speeds.nodes[None, :])
    values = np.clip(f0.values * (1.0 + eps * vals), 0.0, None)
    return f0.with_values(values)


def equal_measure_speed_grid(r_max, n_r, u_max, n_u) -> PhaseSpaceGrid:
    """Tensor grid with a uniform radial grid and an equal-volume speed grid
    (u^3 spacing), so every cell in a fixed radial column carries the same
    phase-space measure and value permutations within a column are exactly
    measure preserving."""
    e = u_max * (np.arange(n_u + 1) / n_u) ** (1.0 / 3.0)
    a, b = e[:-1], e[1:]
    nodes = np.sqrt((b**3 - a**3) / (3.0 * (b - a)))
    speeds = Grid1D(nodes=nodes, edges=e)
    return PhaseSpaceGrid(radial=make_1d_grid(r_max, n_r), speeds=speeds)


def equimeasurable_scramble(model, n_r, n_u, size, seed) -> PhaseSpaceDensity:
    """Permute steady-state values within radial columns of an equal-measure
    speed grid until the relative L1 distortion reaches `size`.

    The scrambled density has exactly the same discrete distribution function
    (and the same spatial density) as the sampled steady state, so its
    symmetric rearrangement is unchanged while the energy ordering is broken.
    """
    rng = np.random.default_rng(seed)
    u_max = float(model.u_escape(np.array([0.0]))[0])
    grid = equal_measure_speed_grid(model.R_Q * 1.02, n_r, u_max * 1.05, n_u)
    f0 = phase_space_density(model, grid=grid)
    vals = f0.values.copy()
    meas = f0.measure
    mass = float(np.sum(vals * meas))
    target = 2.0 * size * mass
    moved = 0.0
    for _ in range(40 * n_r * n_u):
        i = rng.integers(0, n_r)
        j1, j2 = rng.integers(0, n_u, size=2)
        if vals[i, j1] == vals[i, j2]:
            continue
        moved += abs(vals[i, j1] - vals[i, j2]) * (meas[i, j1] + meas[i, j2])
        vals[i, j1], vals[i, j2] = vals[i, j2], vals[i, j1]
        if moved >= target:
            break
    return PhaseSpaceDensity(grid=grid, values=vals)


def velocity_squeeze(model, f0: PhaseSpaceDensity, gamma) -> PhaseSpaceDensity:
    """f(r, u) = gamma^3 Q(r, gamma u): preserves the spatial density exactly
    while shifting kinetic energy by gamma^-2."""
    r = f0.grid.radial.nodes
    u = f0.grid.speeds.nodes
    phi = model.phi_fn(r)
    e = 0.5 * (gamma * u[None, :]) ** 2 + phi[:, None]
    values = gamma**3 * model.profile.evaluate(e)
    return f0.with_values(values)


def ensemble(model, n_cases, seed):
    """Seeded mix of the three families, yielding (label, density) pairs:
    bumps and squeezes of the padded 200 x 100 steady state (a fixed grid),
    and scrambles on a 50 x 25 equal-measure grid."""
    rng = np.random.default_rng(seed)
    base = padded_phase_density(model, 200, 100)
    for k in range(n_cases):
        fam = k % 3
        if fam == 0:
            eps = rng.uniform(0.02, 0.3)
            yield f"bump(eps={eps:.3f})", bump_perturbation(base, eps, rng.integers(2**31))
        elif fam == 1:
            size = rng.uniform(0.02, 0.3)
            yield (
                f"scramble(size={size:.3f})",
                equimeasurable_scramble(model, 50, 25, size, rng.integers(2**31)),
            )
        else:
            gamma = rng.uniform(0.9, 1.1)
            yield f"squeeze(gamma={gamma:.3f})", velocity_squeeze(model, base, gamma)

#!/usr/bin/env python3
"""Print the figures of the accepted model box as one JSON object.

The box is King W0 = 1e-3, 1, 3, 6, 9, 12 and the depth-1 polytropes q = 0.5,
1, 2, 3, 3.4, 3.45, each built on its default 400-cell grid. For each model
the object holds R_Q, M, e0, the kinetic energy and the Hamiltonian at full
digits, the virial ratio 2K/W on the grid (W = field_energy of the model's
potential), coercivity_constant(model) at n = 800, the lowest eigenvalue of
the standard k = 0 sector at n = 800 (harmonic_operator_spectrum(model, 0,
n_eigs=1)) and the median time of 3 such solves in seconds, the node count of
the fine profile solve, and the build time in seconds as the median of 3
builds.

Usage: python scripts/model_box.py
"""

import json
import statistics
import time

from vpstab.poisson import field_energy
from vpstab.spectral import coercivity_constant, harmonic_operator_spectrum
from vpstab.steady_state import king_model, polytrope_model

BOX = {
    **{f"king W0={w0:g}": (king_model, w0) for w0 in (1e-3, 1.0, 3.0, 6.0, 9.0, 12.0)},
    **{f"polytrope q={q:g}": (polytrope_model, q) for q in (0.5, 1.0, 2.0, 3.0, 3.4, 3.45)},
}


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def figures(build, parameter):
    """The model's row: its scalars, 2K/W, c0 at n = 800, the lowest standard
    k = 0 eigenvalue at n = 800 and the median time of 3 of its solves, the
    fine solve's node count and the median build time of 3."""
    builds = [_timed(build, parameter) for _ in range(3)]
    model = builds[-1][0]
    k0 = [_timed(harmonic_operator_spectrum, model, 0, n_eigs=1) for _ in range(3)]
    return {
        "R_Q": model.R_Q,
        "M": model.M,
        "e0": model.e0,
        "kinetic": model.kinetic,
        "hamiltonian": model.hamiltonian,
        "virial_2K_over_W": 2.0 * model.kinetic / field_energy(model.potential()),
        "c0_n800": coercivity_constant(model, n=800),
        "k0_standard_n800": float(k0[0][0].eigenvalues[0]),
        "k0_standard_s": statistics.median(t for _, t in k0),
        "profile_nodes": len(model.interior.ode.r),
        "build_s": statistics.median(t for _, t in builds),
    }


def main():
    print(json.dumps({name: figures(*recipe) for name, recipe in BOX.items()}, indent=1))


if __name__ == "__main__":
    main()

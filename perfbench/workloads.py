"""The four benchmark workloads.

Each workload turns a seed into a fixed list of checked cases. A case calls
the public `vpstab` API, times the call under test, and returns the
acceptance-style gates its outputs must meet. The amount of work is a fixed
function of `seconds` (per-case costs measured at the commit that added the
benchmark, 2-core x86 box), so two commits run the same cases and `solve_s`
compares like with like.
"""

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from vpstab.evolver import conservation_report, evolve, sample_particles, stability_sweep
from vpstab.functionals import monotonicity_gaps, stability_lower_bound
from vpstab.perturbations import bump_perturbation, ensemble, padded_phase_density
from vpstab.spectral import coercivity_constant, harmonic_operator_spectrum
from vpstab.steady_state import king_model, phase_space_density


@dataclass(frozen=True)
class Gate:
    """One acceptance check: `value op bound`."""

    name: str
    value: float
    bound: float
    op: str  # one of "<=", "<", ">=", ">"

    @property
    def ok(self):
        return {
            "<=": self.value <= self.bound,
            "<": self.value < self.bound,
            ">=": self.value >= self.bound,
            ">": self.value > self.bound,
        }[self.op]

    @property
    def margin(self):
        """(bound - value) / |bound| for an upper bound, (value - bound) /
        |bound| for a lower one; the plain distance when the bound is 0."""
        scale = abs(self.bound) or 1.0
        gap = self.bound - self.value if self.op in ("<=", "<") else self.value - self.bound
        return gap / scale


@dataclass(frozen=True)
class Case:
    label: str
    run: Callable[[], tuple]  # () -> (gates, seconds spent in the call under test)
    work: float  # throughput items this case stands for


@dataclass
class Plan:
    """Everything a workload builds before the timed loop."""

    model: object
    spec: dict  # the generated inputs, digested into the report
    item: str  # what `throughput` counts
    make_cases: Callable[[], list] = field(repr=False)  # fresh cases per call: a traced run solves twice


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _count(seconds, cost_s, minimum):
    return max(minimum, int(seconds / cost_s))


# --- sweep -------------------------------------------------------------------
SWEEP_PARTICLES = 100_000
SWEEP_HORIZON = 1.0  # dynamical times per run
SWEEP_ETAS = (0.0, 0.005, 0.02)
SWEEP_GROUP_COST_S = 7.5  # one plain run plus one three-run sweep


def setup_sweep(seed, seconds):
    """Criterion 8 at a short horizon: a plain self-consistent run checked
    for conservation, then one stability sweep sharing its sampling seed."""
    model = king_model(3.0, n_r=400)
    f0 = phase_space_density(model, n_r=400, n_u=200)
    rng = np.random.default_rng(seed)
    groups = [
        {"plain_seed": int(rng.integers(2**31)), "sweep_seed": int(rng.integers(2**31)),
         "bump_seed": int(rng.integers(2**31))}
        for _ in range(_count(seconds, SWEEP_GROUP_COST_S, 1))
    ]
    dt = 0.01 * model.dynamical_time
    t_end = SWEEP_HORIZON * model.dynamical_time
    steps = int(round(t_end / dt))

    def q_fn(r, u):
        return model.profile.evaluate(0.5 * u**2 + model.phi_fn(r))

    def run_group(g):
        ens = sample_particles(f0, SWEEP_PARTICLES, seed=g["plain_seed"], value_fn=q_fn)
        diag, t_plain = _timed(evolve, ens, model, dt=dt, t_end=t_end, field_average=1)
        sweep, t_sweep = _timed(
            stability_sweep, model, etas=SWEEP_ETAS, n_particles=SWEEP_PARTICLES,
            seed=g["sweep_seed"], n_dynamical_times=SWEEP_HORIZON, bump_seed=g["bump_seed"],
        )
        rep = conservation_report(diag)
        runs = [diag, *sweep["diagnostics"].values()]
        dmax = [max(sweep["diagnostics"][eta].orbital) for eta in SWEEP_ETAS]
        gates = [
            Gate("mass_drift", rep.mass_drift, 1e-6, "<="),
            Gate("energy_drift", rep.hamiltonian_drift, 1e-3, "<="),
            Gate("aborted_runs", sum(d.aborted for d in runs), 1, "<"),
            Gate("quiescent_over_smallest_perturbed", dmax[0] / dmax[1], 1.0, "<"),
        ]
        perturbed = list(zip(SWEEP_ETAS, dmax))[1:]
        gates += [Gate(f"max_distance_ratio_eta{a}_to_eta{b}", db / da, 1.0, ">")
                  for (a, da), (b, db) in zip(perturbed, perturbed[1:])]
        return gates, t_plain + t_sweep

    def make_cases():
        work = SWEEP_PARTICLES * steps * (1 + len(SWEEP_ETAS))
        return [Case(f"group{k}", lambda g=g: run_group(g), work) for k, g in enumerate(groups)]

    spec = {"W0": 3.0, "particles": SWEEP_PARTICLES, "dt_frac": 0.01, "horizon": SWEEP_HORIZON,
            "etas": SWEEP_ETAS, "phase_grid": [400, 200], "groups": groups}
    return Plan(model, spec, "particle-steps", make_cases)


# --- lowerbound --------------------------------------------------------------
LOWERBOUND_CASE_COST_S = 0.05


def setup_lowerbound(seed, seconds):
    """Criterion 7 in shape: bumps of size U(0.002, 0.02) on a padded 150x80
    base, each checked against c0 * distance^2 at zero shift."""
    model = king_model(3.0, n_r=400)
    base = padded_phase_density(model, n_r=150, n_u=80)
    c0 = coercivity_constant(model)
    tol = 1e-3 * abs(model.hamiltonian)
    rng = np.random.default_rng(seed)
    params = [(float(rng.uniform(0.002, 0.02)), int(rng.integers(2**31)))
              for _ in range(_count(seconds, LOWERBOUND_CASE_COST_S, 100))]

    def run_case(eps, bump_seed):
        f = bump_perturbation(base, eps, bump_seed)
        rep, t = _timed(stability_lower_bound, f, model, c0, shift=np.zeros(3))
        return [Gate("slack", rep.slack, -tol, ">=")], t

    def make_cases():
        return [Case(f"bump(eps={e:.4f},seed={s})", lambda e=e, s=s: run_case(e, s), 1)
                for e, s in params]

    spec = {"W0": 3.0, "base_grid": [150, 80], "c0_n": 800, "shift": 0, "cases": params}
    return Plan(model, spec, "checked cases", make_cases)


# --- monotonicity ------------------------------------------------------------
MONOTONICITY_CASE_COST_S = 0.043


def _monotonicity_tol(rep):
    return 10.0 * max(rep.self_error * max(abs(rep.hamiltonian_f), 1.0), 1e-12)


def setup_monotonicity(seed, seconds):
    """Criterion 2 in shape: the seeded ensemble of bumps, scrambles and
    squeezes, each perturbation with its own potential, plus the equality
    case Q itself."""
    model = king_model(3.0, n_r=400)
    n_cases = _count(seconds, MONOTONICITY_CASE_COST_S, 100)

    def run_perturbed(cases_iter):
        _label, f = next(cases_iter)
        rep, t = _timed(monotonicity_gaps, f)
        tol = _monotonicity_tol(rep)
        return [Gate("gap1", rep.gap1, -tol, ">="), Gate("gap2", rep.gap2, -tol, ">=")], t

    def run_equality():
        f0 = phase_space_density(model, n_r=200, n_u=100)
        rep, t = _timed(monotonicity_gaps, f0)
        tol = _monotonicity_tol(rep)
        return [Gate("equality_gap1", abs(rep.gap1), tol, "<="),
                Gate("equality_gap2", abs(rep.gap2), tol, "<=")], t

    def make_cases():
        cases_iter = ensemble(model, n_cases, seed=seed)
        cases = [Case(f"ensemble{k}", lambda: run_perturbed(cases_iter), 1) for k in range(n_cases)]
        return cases + [Case("equality", run_equality, 1)]

    spec = {"W0": 3.0, "ensemble_grid": [200, 100], "ensemble_seed": seed, "ensemble_cases": n_cases,
            "equality_grid": [200, 100]}
    return Plan(model, spec, "checked cases", make_cases)


# --- spectrum ----------------------------------------------------------------
SPECTRUM_LADDER = (800, 1600, 3200)
SPECTRUM_SECTORS = (0, 1, 2, 3)
SPECTRUM_UNIT_COST_S = 15.0  # one ladder plus the four sector spectra


def setup_spectrum(seed, seconds):
    """Coercivity on the n ladder and the k = 0..3 sector spectra at n = 800,
    for a King model whose depth W0 is drawn near 3. A case is one rung of
    the ladder, so the median case is the n = 1600 solve."""
    rng = np.random.default_rng(seed)
    w0 = float(rng.uniform(2.9, 3.1))
    model = king_model(w0, n_r=400)
    vmax = float(model.vq_fn(np.array([0.0]))[0])
    units = _count(seconds, SPECTRUM_UNIT_COST_S, 1)

    def run_sector(k):
        rep, t = _timed(harmonic_operator_spectrum, model, k, n_eigs=2 if k == 1 else 1)
        lam = float(rep.eigenvalues[0])
        if k == 1:
            gates = [Gate("k1_translation_eigenvalue", abs(lam) / vmax, 1e-3, "<="),
                     Gate("k1_kernel_residual", rep.kernel_residual, 1e-3, "<=")]
        else:
            gates = [Gate(f"k{k}_lowest_over_vmax", lam / vmax, 0.0, ">")]
        return gates, t

    def run_rung(n, ladder):
        """coercivity_constant(n), and at the first rung the sector spectra."""
        c0, t = _timed(coercivity_constant, model, n=n)
        gates = []
        if ladder:
            prev_n, prev = ladder[-1]
            gates.append(Gate(f"c0_step_n{prev_n}_to_n{n}", abs(c0 - prev) / prev, 0.05, "<="))
        else:
            for k in SPECTRUM_SECTORS:
                sector_gates, t_k = run_sector(k)
                gates += sector_gates
                t += t_k
        ladder.append((n, c0))
        return gates, t

    def make_cases():
        cases = []
        for u in range(units):
            ladder = []
            cases += [Case(f"rung(n={n})#{u}", lambda n=n, ladder=ladder: run_rung(n, ladder),
                           3 + (len(SPECTRUM_SECTORS) if i == 0 else 0))
                      for i, n in enumerate(SPECTRUM_LADDER)]
        return cases

    spec = {"W0": w0, "ladder": SPECTRUM_LADDER, "sectors": SPECTRUM_SECTORS, "sector_n": 800, "units": units}
    return Plan(model, spec, "sector solves", make_cases)


WORKLOADS = {
    "sweep": setup_sweep,
    "lowerbound": setup_lowerbound,
    "monotonicity": setup_monotonicity,
    "spectrum": setup_spectrum,
}

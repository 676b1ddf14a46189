"""Spherically symmetric particle evolution of the kinetic equation.

Characteristics (r, v_r) with the squared angular momentum l = |x ^ v|^2 as a
per-particle invariant are pushed with a time-reversible splitting: gravity
kicks -phi'(r) dt/2 around an exact free-flight drift (a straight 3D line in
radial variables), so the centrifugal l/r^3 term carries no step-size
restriction. In fixed-field mode a given potential (such as the steady
state's) supplies the force, and the record books the summed one-particle
energies, which that flow conserves.

In self-consistent mode the field is rebuilt every step on a uniform radial
mesh of spacing h (FIELD_N = 256 cells out to FIELD_FACTOR = 3 support
radii), a spherical-shell particle-mesh scheme (Henon 1971, Ap&SS 13,
284). The mesh is indexed by arithmetic on s = r / h, never by a search, and
s is computed once per step for both the deposit and the force: the
cloud-in-cell deposit takes node floor(s - 1/2), bins both node shares by
that node with np.bincount and adds the upper one shifted a node up; the
density, optionally averaged over a trailing window as particle-mesh noise
control, is solved straight into its edge-cumulative cell moments
(poisson.CellMoments); and the force at each particle is m(r) / (4 pi r^2)
read in cell floor(s) against edge cubes built once, with the exact monopole
exterior. A full PotentialX is built only at record steps, where the field
energy and the potential distance need it, from the step's CellMoments; a
relative Hamiltonian jump beyond ABORT_ENERGY_JUMP = 0.2 there aborts the run.

The step is written for few passes over the particle arrays with every
expression rounded as in its plain form (tests/test_evolver.py holds that
form and checks equality bit for bit): in-place chains, one dt/2 phi'(r)
array for both kicks of a step, and masks built only when a bound is
crossed.

Every sum over the particles (the kinetic energy, the fixed-field
Hamiltonian, the orbital distance) is a numpy pairwise sum, never a BLAS dot
product: OpenBLAS splits a dot of more than about 10 000 elements across its
threads, which makes the last bits depend on the thread count and leaves a
helper thread spinning on a core that the other forked runs need.

The carried density value f0 is constant along characteristics, which makes
every Casimir integral sum(mu_p G(f0_p)) exactly conserved by construction,
so none is recorded; the honest conservation diagnostics are mass
bookkeeping, the Hamiltonian, and the orbital distance.

stability_sweep runs each perturbation size in its own forked child process
(the fork start method, so the model is inherited, not pickled), at most
min(number of sizes, usable cores + 1) at a time. Each run is the same code
on the same inputs as in a serial loop, so every result is bit-identical to
it (tests/test_evolver.py checks that against an in-test serial loop).
"""

import csv
import multiprocessing
import os
import struct
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .numerics import InvalidArgumentError, make_1d_grid
from .perturbations import calibrated_bump
from .poisson import CellMoments, DegenerateInputError, field_energy, grad_distance2, solve_poisson_radial

CHECKPOINT_MAGIC = b"VPSTABE2"
FIELD_N = 256
FIELD_FACTOR = 3.0
ABORT_ENERGY_JUMP = 0.2
MASS_TOL = 1e-6  # conservation_report's bounds on the relative drifts
HAMILTONIAN_TOL = 1e-3


@dataclass
class ParticleEnsemble:
    """Radius, radial velocity, squared angular momentum, statistical (mass)
    weight, carried density value, and the phase-volume element per particle."""

    r: np.ndarray
    v_r: np.ndarray
    ell: np.ndarray
    weight: np.ndarray
    f0: np.ndarray
    volume: np.ndarray

    @property
    def n(self):
        return self.r.size

    def mass(self):
        return float(self.weight.sum())

    def speed(self):
        r_floor = np.clip(self.r, 1e-12, None)
        return np.sqrt(self.v_r**2 + self.ell / r_floor**2)

    def kinetic(self):
        r_floor = np.clip(self.r, 1e-12, None)
        return float(0.5 * (self.weight * (self.v_r**2 + self.ell / r_floor**2)).sum())

    def casimir(self, G):
        return float((self.volume * G(self.f0)).sum())

    def save(self, path, time=0.0):
        header = struct.pack("<8sdq", CHECKPOINT_MAGIC, time, self.n)
        body = np.stack([self.r, self.v_r, self.ell, self.weight, self.f0, self.volume], axis=1)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(body.astype("<f8").tobytes())

    @staticmethod
    def load(path):
        """The ensemble and time that `save` wrote. A file with another
        magic, such as the five-column format VPSTABE1 that rebuilt each
        volume as weight / f0, is rejected."""
        with open(path, "rb") as fh:
            magic, time, n = struct.unpack("<8sdq", fh.read(24))
            if magic != CHECKPOINT_MAGIC:
                raise InvalidArgumentError("not an ensemble checkpoint")
            body = np.frombuffer(fh.read(n * 6 * 8), dtype="<f8").reshape(n, 6)
        r, v_r, ell, weight, f0, volume = (col.copy() for col in body.T)
        return ParticleEnsemble(r=r, v_r=v_r, ell=ell, weight=weight, f0=f0, volume=volume), time


def sample_particles(f, n_particles, seed, value_fn):
    """Stratified sampler: cell counts proportional to cell mass, positions
    drawn from the r^2 u^2 measure within each cell, isotropic pitch angles.

    value_fn(r, u) supplies the carried density exactly at each particle
    (e.g. the steady-state profile). Deterministic for a fixed seed.
    """
    if n_particles < 1:
        raise InvalidArgumentError("need at least one particle")
    rng = np.random.default_rng(seed)
    grid = f.grid
    mass_c = (f.measure * f.values).ravel()
    total = mass_c.sum()
    if total <= 0:
        raise DegenerateInputError("cannot sample an empty density")
    # systematic resampling of expected counts keeps the total exact
    expect = n_particles * mass_c / total
    base = np.floor(expect).astype(int)
    frac = expect - base
    short = n_particles - base.sum()
    if short > 0:
        pos = (rng.uniform() + np.arange(short)) / short
        cdf = np.cumsum(frac) / frac.sum()
        extra = np.searchsorted(cdf, pos)
        np.add.at(base, extra, 1)
    idx = np.repeat(np.arange(mass_c.size), base)
    # importance weight mu_c / E[n_c], not mu_c / n_c: cells that happen to
    # draw no particle are compensated in expectation, keeping the total
    # mass estimator unbiased under refinement
    volume = f.measure.ravel()[idx]
    volume /= expect[idx]
    i_r, j_u = np.unravel_index(idx, f.values.shape)
    del idx, expect

    # each array is computed in place once its inputs are read, in the order
    # of operations of its formula (a product or sum in swapped operand
    # order has the same bits); the index arrays go once read
    def in_cell(e3, i):
        """cbrt(e3[i] + xi * (e3[i + 1] - e3[i])) with xi drawn here: a
        point of the r^2 (or u^2) measure within each cell i."""
        x, lo = e3[i + 1], e3[i]
        x -= lo
        x *= rng.uniform(size=x.size)
        x += lo
        return np.cbrt(x, out=x)

    r = in_cell(grid.radial.edges**3, i_r)
    del i_r
    u = in_cell(grid.speeds.edges**3, j_u)
    del j_u
    cos_a = rng.uniform(-1.0, 1.0, size=r.size)
    v_r = u * cos_a
    # ell = r**2 * u**2 * (1.0 - cos_a**2)
    ell = r**2
    ell *= u**2
    np.square(cos_a, out=cos_a)
    np.subtract(1.0, cos_a, out=cos_a)
    ell *= cos_a
    del cos_a

    f0 = np.asarray(value_fn(r, u))
    del u
    weight = volume * f0
    keep = weight > 0
    if not keep.all():
        r, v_r, ell = r[keep], v_r[keep], ell[keep]
        weight, f0, volume = weight[keep], f0[keep], volume[keep]
    return ParticleEnsemble(r=r, v_r=v_r, ell=ell, weight=weight, f0=f0, volume=volume)


class _Binner:
    """The uniform field mesh, indexed by arithmetic on s = r / h: the
    cloud-in-cell deposit of particle mass onto its nodes, normalized by the
    exact shell volumes, and the force of a cells density at the particles.
    The caller computes s = r * inv_h once per step and hands it to both."""

    def __init__(self, grid):
        self.grid = grid
        self.volumes = 4.0 * np.pi * grid.sq_moments
        self.inv_h = grid.n / grid.x_max
        e = grid.edges
        self.edges3 = e * e * e

    def density(self, ens, s):
        """Cloud-in-cell node densities of ens at s = ens.r * inv_h. Node k
        sits at s = k + 1/2; the upper shares are binned by the lower node
        and added one node up, which sums each node in particle order."""
        n = self.grid.n
        # clipping before the cast makes truncation the floor, and sends
        # particles past either end node to it whole
        x = s - 0.5
        idx = np.clip(x, 0.0, n - 2).astype(np.intp)
        x -= idx
        t = np.clip(x, 0.0, 1.0, out=x)
        lower = 1.0 - t
        lower *= ens.weight
        t *= ens.weight
        rho = np.bincount(idx, lower, minlength=n)
        upper = np.bincount(idx, t, minlength=n)
        rho[1:] += upper[:-1]
        rho /= self.volumes
        return rho

    def dphi(self, cells, r, s):
        """phi'(r) = m(r) / (4 pi r^2) of a cells density at radii r (with
        s = r * inv_h), zero below 1e-12 x_max. Past the mesh the radius is
        clipped to x_max, where m = M: the exact monopole exterior
        M / (4 pi r^2). m(r) is CellMoments.cum_sq in cell floor(s), the
        same operations in the same order, run in place against the edge
        cubes built once."""
        x_max = self.grid.x_max
        tiny = 1e-12 * x_max
        lo, hi = r.min(), r.max()
        rs = r if tiny <= lo and hi <= x_max else np.clip(r, tiny, x_max)
        # below tiny s truncates to 0 and past x_max it reaches n - 1, the
        # cells of the clipped radius; with i in range, "wrap" is the
        # cheapest take mode and never wraps
        i = np.clip(s.astype(np.intp), 0, self.grid.n - 1)
        rs2 = rs * rs
        out = rs2 * rs
        out -= self.edges3.take(i, mode="wrap")
        out *= cells.rho.take(i, mode="wrap")
        out /= 3.0
        out += cells.edge_cum_sq.take(i, mode="wrap")
        out /= rs2 if hi <= x_max else np.maximum(r, tiny) ** 2
        if lo < tiny:
            out[r < tiny] = 0.0
        return out


@dataclass
class TrajectoryDiagnostics:
    times: list = field(default_factory=list)
    hamiltonian: list = field(default_factory=list)
    mass: list = field(default_factory=list)
    orbital: list = field(default_factory=list)
    potential_dist: list = field(default_factory=list)
    reflections: int = 0
    aborted: bool = False

    def rows(self):
        for k in range(len(self.times)):
            yield {
                "t": self.times[k],
                "hamiltonian": self.hamiltonian[k],
                "mass": self.mass[k],
                "orbital_distance": self.orbital[k],
                "potential_distance": self.potential_dist[k],
            }

    def write_csv(self, path, header_lines=()):
        cols = ["t", "hamiltonian", "mass", "orbital_distance", "potential_distance"]
        with open(path, "w", newline="") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in self.rows():
                writer.writerow({k: repr(float(v)) for k, v in row.items()})


def orbital_distance(ens, model):
    """Weighted L1 distance of the transported density to the steady state,
    estimated along characteristics: each particle compares its carried value
    with the steady-state value at its current phase-space point, plus the
    correction for steady-state mass missed by the moving support."""
    u = ens.speed()
    e = 0.5 * u**2 + model.phi_fn(ens.r)
    q_here = model.profile.evaluate(e)
    w = 1.0 + u**2
    main = float((ens.volume * (w * np.abs(ens.f0 - q_here))).sum())
    covered = float((ens.volume * (w * q_here)).sum())
    q_total = model.M + 2.0 * model.kinetic
    return main + max(0.0, q_total - covered)


def evolve(ens, model, dt, t_end, cadence=None, field_average=1, field=None):
    """Kick-drift-kick integration up to t_end with diagnostics every cadence
    steps (an integer of at least 1; None records about twice per dynamical
    time).

    field=None rebuilds the field every step from the binned density,
    averaged over the last field_average steps (a standard particle-mesh
    noise control; 1 disables it). A potential instead (any object with
    phi_fn and dphi_fn, such as model.potential()) is a fixed field: the
    record books the one-particle energies K + sum w phi(r) and a potential
    distance of 0, and field_average must be 1. Particles reflect at the grid
    edge (logged) and pass through the centre exactly (free flight). A sudden
    relative Hamiltonian jump beyond ABORT_ENERGY_JUMP aborts the run.
    """
    if not field_average >= 1:
        raise InvalidArgumentError(f"field_average must be at least 1, got {field_average}")
    if field is not None and field_average != 1:
        raise InvalidArgumentError(f"field_average averages the self-consistent field only, got {field_average} "
                                   "with a fixed field")
    if cadence is not None and not (isinstance(cadence, (int, np.integer)) and cadence >= 1):
        raise InvalidArgumentError(f"cadence must be an integer of at least 1, got {cadence!r}")
    if dt > 0.1 * model.dynamical_time:
        warnings.warn("time step exceeds a tenth of the central dynamical time")
    cadence = cadence if cadence is not None else max(1, int(round(0.5 * model.dynamical_time / dt)))
    grid = make_1d_grid(FIELD_FACTOR * model.R_Q, FIELD_N)
    binner = _Binner(grid)
    ref_pot = model.potential()
    diag = TrajectoryDiagnostics()
    rho_buf = deque()
    rho_sum = np.zeros(FIELD_N)
    half_dt = 0.5 * dt
    r_floor = 1e-14 * model.R_Q
    arg_floor = 1e-28 * model.R_Q**2

    def field_state():
        """Cell moments of the field at the current positions (None for a
        fixed field) and the half-step velocity change dt/2 phi'(r) there,
        which the kicks subtract; the centrifugal term is integrated exactly
        in the drift."""
        nonlocal rho_sum
        if field is not None:
            return None, half_dt * field.dphi_fn(ens.r)
        s = ens.r * binner.inv_h
        rho = binner.density(ens, s)
        rho_buf.append(rho)
        rho_sum = rho_sum + rho
        if len(rho_buf) > field_average:
            rho_sum = rho_sum - rho_buf.popleft()
        cells = CellMoments.of(grid, rho_sum / len(rho_buf))
        return cells, half_dt * binner.dphi(cells, ens.r, s)

    def free_drift(tau):
        # exact straight-line flight in 3D expressed radially: never reaches
        # r = 0 for l > 0, flips v_r smoothly for l = 0
        r0 = np.maximum(ens.r, r_floor)
        v = ens.v_r
        b = r0 * v
        r0sq = r0 * r0
        speed2 = v * v
        speed2 += ens.ell / r0sq
        # r1^2 = r0^2 + (2 b) tau + speed2 (tau^2), summed in that order
        arg = b * 2.0
        arg *= tau
        arg += r0sq
        arg += speed2 * tau**2
        r1 = np.sqrt(np.maximum(arg, arg_floor, out=arg), out=arg)
        v1 = speed2 * tau
        v1 += b
        v1 /= r1
        ens.v_r = v1
        ens.r = r1

    def record(t, cells):
        if field is None:
            pot = solve_poisson_radial(grid, cells)
            ham = ens.kinetic() - field_energy(pot)
            pdist = float(np.sqrt(grad_distance2(pot, ref_pot, n=FIELD_N)))
        else:
            # fixed field: the flow conserves the summed one-particle energies
            ham = ens.kinetic() + float((ens.weight * field.phi_fn(ens.r)).sum())
            pdist = 0.0
        diag.times.append(t)
        diag.hamiltonian.append(ham)
        diag.mass.append(ens.mass())
        diag.orbital.append(orbital_distance(ens, model))
        diag.potential_dist.append(pdist)

    cells, kick = field_state()
    record(0.0, cells)
    h0 = diag.hamiltonian[0]
    n_steps = int(round(t_end / dt))
    for step in range(1, n_steps + 1):
        ens.v_r -= kick
        free_drift(dt)
        if ens.r.max() > grid.x_max:
            above = ens.r > grid.x_max
            diag.reflections += int(above.sum())
            ens.r[above] = 2.0 * grid.x_max - ens.r[above]
            ens.v_r[above] *= -1.0
        cells, kick = field_state()
        ens.v_r -= kick
        if step % cadence == 0 or step == n_steps:
            record(step * dt, cells)
            if abs(diag.hamiltonian[-1] - h0) > ABORT_ENERGY_JUMP * max(abs(h0), 1e-300):
                diag.aborted = True
                warnings.warn("energy jump detected; aborting evolution")
                break
    return diag


def _child_run(conn, run, arg):
    """Body of a forked child: run(arg), then send its value or exception
    (with the formatted traceback) and the warnings it raised to conn."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, error, tb = run(arg), None, None
        except Exception as exc:
            value, error, tb = None, exc, traceback.format_exc()
    conn.send((value, error, tb, [(str(w.message), w.category) for w in caught]))
    conn.close()


def _forked_runs(run, args):
    """[run(a) for a in args] with each call in a forked child process, at
    most min(len(args), usable cores + 1) at a time. The child inherits run
    and its closure, so only the result is pickled, over a pipe.

    Results are taken in the order of args: a run's warnings are re-emitted
    here with their category, and a failed run raises its exception here.
    Every child is joined before this returns or raises; those still running
    when it raises are terminated first.
    """
    # fork, not spawn: run's closure holds the model, which a spawned child
    # would have to be sent or rebuild; OpenBLAS stops its threads at fork
    ctx = multiprocessing.get_context("fork")
    width = min(len(args), len(os.sched_getaffinity(0)) + 1)
    todo = deque(args)
    running = deque()
    out = []
    try:
        while todo or running:
            while todo and len(running) < width:
                recv_end, send_end = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_child_run, args=(send_end, run, todo.popleft()))
                child.start()
                send_end.close()
                running.append((child, recv_end))
            child, recv_end = running[0]
            try:
                value, error, tb, caught = recv_end.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"forked run exited with code {child.exitcode} and no result") from None
            child.join()
            recv_end.close()
            running.popleft()
            for message, category in caught:
                warnings.warn(message, category)
            if error is not None:
                raise error from RuntimeError(tb)
            out.append(value)
    finally:
        for child, _ in running:
            child.terminate()
        for child, recv_end in running:
            child.join()
            recv_end.close()
    return out


def stability_sweep(
    model,
    etas=(0.0, 0.0025, 0.005, 0.01, 0.02),
    n_particles=100_000,
    seed=12345,
    dt_frac=0.01,
    n_dynamical_times=50,
    field_average=128,
    bump_seed=11,
):
    """Self-consistent runs over a family of perturbation sizes with common
    random numbers; returns per-size diagnostics, the max orbital distance,
    and the fitted log-log growth exponent over the nonzero sizes.

    eta is the relative L1 size of the initial perturbation; all runs share
    the bump shape and the sampling seed so the finite-N noise realization is
    common across the sweep.

    Each eta run is a forked child process, min(len(etas), usable cores + 1)
    at a time, so the results are bit-identical to running them one after
    another here. The runs are taken in the order of etas: each run's
    warnings are re-emitted here with their category, and the first failed
    run raises its own exception here, after which the other children are
    terminated.
    """
    dt = dt_frac * model.dynamical_time
    t_end = n_dynamical_times * model.dynamical_time

    def run(eta):
        f_eta, value_fn = calibrated_bump(model, eta, bump_seed)
        ens = sample_particles(f_eta, n_particles, seed=seed, value_fn=value_fn)
        return evolve(ens, model, dt=dt, t_end=t_end, field_average=field_average)

    results = dict(zip(etas, _forked_runs(run, etas)))
    nonzero = sorted(e for e in results if e > 0)
    dmax = np.array([max(results[e].orbital) for e in nonzero])
    exponent = float(np.polyfit(np.log(nonzero), np.log(dmax), 1)[0]) if len(nonzero) >= 2 else np.nan
    return {"diagnostics": results, "max_distance": dict(zip(nonzero, dmax)), "exponent": exponent}


@dataclass(frozen=True)
class ConservationReport:
    mass_drift: float
    hamiltonian_drift: float
    max_orbital: float
    passed: bool
    tolerances: dict


def conservation_report(diag):
    """Max relative drifts over the trajectory against the declared
    tolerances MASS_TOL and HAMILTONIAN_TOL."""

    def drift(series):
        arr = np.asarray(series, dtype=float)
        ref = arr[0]
        if ref == 0.0:
            return float(np.max(np.abs(arr)))
        return float(np.max(np.abs(arr - ref) / abs(ref)))

    md = drift(diag.mass)
    hd = drift(diag.hamiltonian)
    passed = (md <= MASS_TOL) and (hd <= HAMILTONIAN_TOL) and not diag.aborted
    return ConservationReport(
        mass_drift=md,
        hamiltonian_drift=hd,
        max_orbital=float(np.max(diag.orbital)),
        passed=passed,
        tolerances={"mass": MASS_TOL, "hamiltonian": HAMILTONIAN_TOL},
    )

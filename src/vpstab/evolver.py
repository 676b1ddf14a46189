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
284). The mesh is indexed by arithmetic on s = r / h, never by a search: the
cloud-in-cell deposit takes node floor(s - 1/2) and adds both node shares of
each particle, in particle order, to a lower-share and an upper-share
accumulator, the upper one read a node up; the density, optionally averaged
over a trailing window as particle-mesh noise control, is solved straight
into its edge-cumulative cell moments (poisson.CellMoments); and the force
at each particle is m(r) / (4 pi r^2) read in cell floor(s) against edge
cubes built once, with the exact monopole exterior. A full PotentialX is
built only at record steps, where the field energy and the potential
distance need it, from the step's CellMoments; a relative Hamiltonian jump
beyond ABORT_ENERGY_JUMP = 0.2 there aborts the run.

A step is one pass over fixed blocks of PARTICLE_BLOCK = 25 000 consecutive
particles, so that a block's arrays stay in a 2 MB cache through the pass:
for each block it reads the force from the last field solve, subtracts the
half kicks still owed (the closing one of the last step and the opening one
of this step, one after the other), drifts, reflects and deposits. Then the
field is solved once. Only a record step takes a second pass, the closing
half kick, before the record. The block's work arrays are allocated once per
run and reused. A 100k-particle step takes about 2.9 ms on a 2-core x86 box
with 2 MB of L2 per core, against 3.4 ms unblocked (medians of 15 runs of
300 steps). Every per-particle expression is rounded as in its plain form
(tests/test_evolver.py holds that form and checks equality bit for bit, also
with blocks of 512 particles), and a node's deposit sums in particle order
across the blocks, as one np.bincount over all particles would.

Every sum over the particles (the kinetic energy, the fixed-field
Hamiltonian, the orbital distance) is a numpy pairwise sum over one
full-length array of per-particle terms, written block by block, never a
sum of block sums (which would change the last bits) and never a BLAS dot
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
PARTICLE_BLOCK = 25_000  # particles per block of every particle-sized pass


def _blocks(n):
    """Slices of PARTICLE_BLOCK consecutive particles covering range(n), the
    last one ragged."""
    return [slice(start, min(start + PARTICLE_BLOCK, n)) for start in range(0, n, PARTICLE_BLOCK)]


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

    def kinetic(self):
        terms = np.empty(self.n)
        for b in _blocks(self.n):
            r_floor = np.clip(self.r[b], 1e-12, None)
            np.multiply(self.weight[b], self.v_r[b] ** 2 + self.ell[b] / r_floor**2, out=terms[b])
        return float(0.5 * terms.sum())

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
    (e.g. the steady-state profile). It must be pointwise, each value
    depending on its own (r, u) only: it is called on blocks of at most
    PARTICLE_BLOCK particles. Deterministic for a fixed seed.
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

    f0 = np.empty(r.size)
    for b in _blocks(r.size):
        f0[b] = value_fn(r[b], u[b])
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
    Both take a block of at most `size` particles with s = r * inv_h, which
    they overwrite, and work in arrays allocated here once."""

    def __init__(self, grid, size):
        self.grid = grid
        self.volumes = 4.0 * np.pi * grid.sq_moments
        self.inv_h = grid.n / grid.x_max
        e = grid.edges
        self.edges3 = e * e * e
        self.index = np.empty(size, dtype=np.intp)
        self.work = np.empty(size)

    def density(self, weight, s, shares):
        """Add the cloud-in-cell shares of particles of the given weights at
        s to shares = (lower, upper), both binned by the lower node, in
        particle order: blocks added one after another sum each node as one
        np.bincount over all of them would. Node k sits at s = k + 1/2."""
        n = self.grid.n
        idx = self.index[: s.size]
        # clipping before the cast makes truncation the floor, and sends
        # particles past either end node to it whole
        x = np.subtract(s, 0.5, out=s)
        np.clip(x, 0.0, n - 2, out=idx, casting="unsafe")
        x -= idx
        t = np.clip(x, 0.0, 1.0, out=x)
        lower = np.subtract(1.0, t, out=self.work[: s.size])
        lower *= weight
        t *= weight
        np.add.at(shares[0], idx, lower)
        np.add.at(shares[1], idx, t)

    def nodes(self, shares):
        """The node densities of the deposited shares: each upper share is
        added one node up, after the lower shares of that node."""
        rho = shares[0]
        rho[1:] += shares[1, :-1]
        rho /= self.volumes
        return rho

    def dphi(self, cells, r, s, out):
        """phi'(r) = m(r) / (4 pi r^2) of a cells density at radii r, written
        to out, zero below 1e-12 x_max. Past the mesh the radius is clipped to
        x_max, where m = M: the exact monopole exterior M / (4 pi r^2). m(r)
        is CellMoments.cum_sq in cell floor(s), the same operations in the
        same order, run in place against the edge cubes built once."""
        x_max = self.grid.x_max
        tiny = 1e-12 * x_max
        lo, hi = r.min(), r.max()
        rs = r if tiny <= lo and hi <= x_max else np.clip(r, tiny, x_max)
        # below tiny s truncates to 0 and past x_max it reaches n - 1, the
        # cells of the clipped radius; with i in range, "wrap" is the
        # cheapest take mode and never wraps
        i = self.index[: r.size]
        np.copyto(i, s, casting="unsafe")
        np.clip(i, 0, self.grid.n - 1, out=i)
        rs2 = np.multiply(rs, rs, out=self.work[: r.size])
        np.multiply(rs2, rs, out=out)
        out -= self.edges3.take(i, mode="wrap", out=s)
        out *= cells.rho.take(i, mode="wrap", out=s)
        out /= 3.0
        out += cells.edge_cum_sq.take(i, mode="wrap", out=s)
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
    main, covered = np.empty(ens.n), np.empty(ens.n)
    for b in _blocks(ens.n):
        r = ens.r[b]
        u = np.sqrt(ens.v_r[b] ** 2 + ens.ell[b] / np.clip(r, 1e-12, None) ** 2)
        q_here = model.profile.evaluate(0.5 * u**2 + model.phi_fn(r))
        w = 1.0 + u**2
        np.multiply(ens.volume[b], w * np.abs(ens.f0[b] - q_here), out=main[b])
        np.multiply(ens.volume[b], w * q_here, out=covered[b])
    q_total = model.M + 2.0 * model.kinetic
    return float(main.sum()) + max(0.0, q_total - float(covered.sum()))


def evolve(ens, model, dt, t_end, cadence=None, field_average=1, field=None):
    """Kick-drift-kick integration up to t_end with diagnostics every cadence
    steps (an integer of at least 1; None records about twice per dynamical
    time).

    field=None rebuilds the field every step from the binned density,
    averaged over the last field_average steps (a standard particle-mesh
    noise control; 1 disables it). A potential instead (any object with
    pointwise phi_fn and dphi_fn, such as model.potential(), called on
    blocks of at most PARTICLE_BLOCK radii) is a fixed field: the record
    books the one-particle energies K + sum w phi(r) and a potential
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
    x_max = grid.x_max
    blocks = _blocks(ens.n)
    size = min(PARTICLE_BLOCK, ens.n)
    binner = _Binner(grid, size)
    # s = r * inv_h, the kick, and the drift's terms, for one block
    work = np.empty((4, size))
    ref_pot = model.potential()
    diag = TrajectoryDiagnostics()
    rho_buf = deque()
    rho_sum = np.zeros(FIELD_N)
    half_dt = 0.5 * dt
    dt2 = dt**2
    r_floor = 1e-14 * model.R_Q
    arg_floor = 1e-28 * model.R_Q**2

    def deposit(b, shares):
        r = ens.r[b]
        binner.density(ens.weight[b], np.multiply(r, binner.inv_h, out=work[0, : r.size]), shares)

    def solve(shares):
        """Cell moments of the deposited density, averaged over the window."""
        nonlocal rho_sum
        rho = binner.nodes(shares)
        rho_buf.append(rho)
        rho_sum = rho_sum + rho
        if len(rho_buf) > field_average:
            rho_sum = rho_sum - rho_buf.popleft()
        return CellMoments.of(grid, rho_sum / len(rho_buf))

    def kick(b, times):
        """Subtract the half-step velocity change dt/2 phi'(r), read from the
        last field solve (cells) or the fixed field, `times` times over from
        block b; the centrifugal term is integrated exactly in the drift."""
        r, v = ens.r[b], ens.v_r[b]
        s, k = work[:2, : r.size]
        if field is None:
            np.multiply(r, binner.inv_h, out=s)
            binner.dphi(cells, r, s, out=k)
            k *= half_dt
        else:
            np.multiply(field.dphi_fn(r), half_dt, out=k)
        for _ in range(times):
            v -= k

    def drift(b):
        # exact straight-line flight in 3D expressed radially: never reaches
        # r = 0 for l > 0, flips v_r smoothly for l = 0; r and v_r are
        # overwritten once read
        r, v = ens.r[b], ens.v_r[b]
        w0, bv, r0sq, speed2 = work[:, : r.size]
        r0 = np.maximum(r, r_floor, out=w0)
        np.multiply(r0, v, out=bv)
        np.multiply(r0, r0, out=r0sq)
        np.multiply(v, v, out=speed2)
        speed2 += np.divide(ens.ell[b], r0sq, out=w0)
        # r1^2 = r0^2 + (2 b) dt + speed2 (dt^2), summed in that order
        arg = np.multiply(bv, 2.0, out=w0)
        arg *= dt
        arg += r0sq
        arg += np.multiply(speed2, dt2, out=r0sq)
        r1 = np.sqrt(np.maximum(arg, arg_floor, out=arg), out=r)
        v1 = np.multiply(speed2, dt, out=v)
        v1 += bv
        v1 /= r1
        if r1.max() > x_max:
            above = r1 > x_max
            diag.reflections += int(above.sum())
            r1[above] = 2.0 * x_max - r1[above]
            v1[above] *= -1.0

    def record(t):
        if field is None:
            pot = solve_poisson_radial(grid, cells)
            ham = ens.kinetic() - field_energy(pot)
            pdist = float(np.sqrt(grad_distance2(pot, ref_pot, n=FIELD_N)))
        else:
            # fixed field: the flow conserves the summed one-particle energies
            terms = np.empty(ens.n)
            for b in blocks:
                np.multiply(ens.weight[b], field.phi_fn(ens.r[b]), out=terms[b])
            ham = ens.kinetic() + float(terms.sum())
            pdist = 0.0
        diag.times.append(t)
        diag.hamiltonian.append(ham)
        diag.mass.append(ens.mass())
        diag.orbital.append(orbital_distance(ens, model))
        diag.potential_dist.append(pdist)

    cells = None
    if field is None:
        shares = np.zeros((2, FIELD_N))
        for b in blocks:
            deposit(b, shares)
        cells = solve(shares)
    record(0.0)
    h0 = diag.hamiltonian[0]
    n_steps = int(round(t_end / dt))
    # half kicks owed at the last field: this step's opening one, and the
    # last step's closing one unless its record took it
    owed = 1
    for step in range(1, n_steps + 1):
        shares = np.zeros((2, FIELD_N))
        for b in blocks:
            kick(b, owed)
            drift(b)
            if field is None:
                deposit(b, shares)
        if field is None:
            cells = solve(shares)
        owed = 2
        if step % cadence == 0 or step == n_steps:
            for b in blocks:
                kick(b, 1)
            owed = 1
            record(step * dt)
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

import contextlib
import multiprocessing
import signal
import struct
import time
from types import SimpleNamespace

import numpy as np
import pytest

from vpstab import evolver
from vpstab.evolver import (
    ParticleEnsemble,
    _Binner,
    _forked_runs,
    conservation_report,
    evolve,
    orbital_distance,
    sample_particles,
    stability_sweep,
)
from vpstab.numerics import InvalidArgumentError, make_1d_grid
from vpstab.perturbations import calibrated_bump
from vpstab.poisson import CellMoments, DegenerateInputError, solve_poisson_radial
from vpstab.steady_state import phase_space_density


def _q_fn(model):
    return lambda r, u: model.profile.evaluate(0.5 * u**2 + model.phi_fn(r))


@pytest.fixture(scope="module")
def king_f(king):
    return phase_space_density(king, n_r=200, n_u=100)


def _plain_sample(f, n_particles, seed, value_fn):
    """sample_particles in its plain form: every expression written out
    whole, and the kept particles copied out of all six arrays."""
    rng = np.random.default_rng(seed)
    grid = f.grid
    mass_c = (f.measure * f.values).ravel()
    total = mass_c.sum()
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
    i_r, j_u = np.unravel_index(idx, f.values.shape)
    re3 = grid.radial.edges**3
    ue3 = grid.speeds.edges**3
    xi = rng.uniform(size=idx.size)
    r = np.cbrt(re3[i_r] + xi * (re3[i_r + 1] - re3[i_r]))
    xi = rng.uniform(size=idx.size)
    u = np.cbrt(ue3[j_u] + xi * (ue3[j_u + 1] - ue3[j_u]))
    cos_a = rng.uniform(-1.0, 1.0, size=idx.size)
    v_r = u * cos_a
    ell = r**2 * u**2 * (1.0 - cos_a**2)
    volume = (f.measure.ravel()[idx]) / expect[idx]
    f0 = value_fn(r, u)
    weight = volume * f0
    keep = weight > 0
    return ParticleEnsemble(
        r=r[keep], v_r=v_r[keep], ell=ell[keep], weight=weight[keep],
        f0=np.asarray(f0)[keep], volume=volume[keep],
    )


def _sampler_cases(king, king_f):
    q_fn = _q_fn(king)
    bump, bump_fn = calibrated_bump(king, 0.02, seed=11)
    holes = king_f.values.copy()
    holes[::3] = 0.0
    return {
        "Q": (king_f, q_fn),
        "bump eta=0.02": (bump, bump_fn),
        "zero cells": (king_f.with_values(holes), q_fn),
        # a carried value of 0 drops the particle: the kept arrays are copies
        "zero values": (king_f, lambda r, u: np.where(r < 0.5 * king.R_Q, q_fn(r, u), 0.0)),
    }


@pytest.mark.parametrize("case", ["Q", "bump eta=0.02", "zero cells", "zero values"])
def test_sampler_matches_its_plain_form(king, king_f, case):
    f, value_fn = _sampler_cases(king, king_f)[case]
    for seed in (1, 2):
        ens, plain = sample_particles(f, 20_000, seed, value_fn), _plain_sample(f, 20_000, seed, value_fn)
        for name in ("r", "v_r", "ell", "weight", "f0", "volume"):
            assert getattr(ens, name).tobytes() == getattr(plain, name).tobytes(), (case, seed, name)
    if case == "zero values":
        assert 0 < ens.n < 20_000


def test_sampler_calls_value_fn_in_blocks(king, monkeypatch):
    # 20k particles in 40 blocks of 512, the last one ragged: value_fn sees
    # no more than a block at a time and f0 keeps the whole-array bits
    monkeypatch.setattr(evolver, "PARTICLE_BLOCK", 512)
    f, value_fn = calibrated_bump(king, 0.02, seed=11)
    sizes = []

    def counting_fn(r, u):
        sizes.append(r.size)
        return value_fn(r, u)

    ens, plain = sample_particles(f, 20_000, 3, counting_fn), _plain_sample(f, 20_000, 3, value_fn)
    for name in ("r", "v_r", "ell", "weight", "f0", "volume"):
        assert getattr(ens, name).tobytes() == getattr(plain, name).tobytes(), name
    assert sizes == [512] * 39 + [20_000 - 39 * 512]


def _plain_kinetic(ens):
    r_floor = np.clip(ens.r, 1e-12, None)
    return float(0.5 * (ens.weight * (ens.v_r**2 + ens.ell / r_floor**2)).sum())


def _plain_orbital_distance(ens, model):
    u = np.sqrt(ens.v_r**2 + ens.ell / np.clip(ens.r, 1e-12, None) ** 2)
    q_here = model.profile.evaluate(0.5 * u**2 + model.phi_fn(ens.r))
    w = 1.0 + u**2
    main = float((ens.volume * (w * np.abs(ens.f0 - q_here))).sum())
    covered = float((ens.volume * (w * q_here)).sum())
    return main + max(0.0, model.M + 2.0 * model.kinetic - covered)


def test_blocked_sums_match_their_plain_forms(king, monkeypatch):
    # the per-particle terms are written block by block into one array and
    # summed whole: the pairwise sum of the plain form, bit for bit (on this
    # seed a sum of the block sums differs from it in each of the three)
    monkeypatch.setattr(evolver, "PARTICLE_BLOCK", 512)
    f, value_fn = calibrated_bump(king, 0.02, seed=11)
    ens = sample_particles(f, 20_000, 4, value_fn)
    assert ens.n > 20 * 512
    assert ens.kinetic() == _plain_kinetic(ens)
    assert orbital_distance(ens, king) == _plain_orbital_distance(ens, king) > 0.0
    # the fixed-field record's potential energy, at t = 0 of a run without steps
    diag = evolve(ens, king, dt=0.01 * king.dynamical_time, t_end=0.0, field=king.potential())
    assert diag.hamiltonian == [_plain_kinetic(ens) + float((ens.weight * king.phi_fn(ens.r)).sum())]


def test_sampler_mass_and_determinism(king, king_f):
    ens1 = sample_particles(king_f, 20_000, seed=5, value_fn=_q_fn(king))
    ens2 = sample_particles(king_f, 20_000, seed=5, value_fn=_q_fn(king))
    assert np.array_equal(ens1.r, ens2.r)
    assert np.array_equal(ens1.v_r, ens2.v_r)
    assert ens1.mass() == pytest.approx(king.M, rel=1.0 / np.sqrt(20_000))
    assert np.all(ens1.ell >= 0)
    assert np.all(ens1.weight > 0)


def test_sampler_error_scaling(king, king_f):
    # doubling N shrinks the mass spread by about sqrt(2)
    m1 = np.array([sample_particles(king_f, 20_000, seed=s, value_fn=_q_fn(king)).mass() for s in range(12)])
    m2 = np.array([sample_particles(king_f, 40_000, seed=s, value_fn=_q_fn(king)).mass() for s in range(12)])
    assert m1.std() / m2.std() == pytest.approx(np.sqrt(2.0), rel=0.5)


def test_sampler_rejects_empty(king, king_f):
    with pytest.raises(DegenerateInputError):
        sample_particles(king_f.with_values(np.zeros_like(king_f.values)), 1000, seed=0, value_fn=_q_fn(king))


def test_kepler_orbit_frozen_field(king):
    # one particle in a point-mass field, integrated over exactly one radial
    # period: the orbit closes and energy/angular momentum return to 1e-8
    M = 4 * np.pi  # so dphi = 1/r^2, phi = -1/r
    ens = ParticleEnsemble(
        r=np.array([1.0]),
        v_r=np.array([0.0]),
        ell=np.array([0.81]),  # |x ^ v|^2, tangential speed 0.9
        weight=np.array([1.0]),
        f0=np.array([1.0]),
        volume=np.array([1.0]),
    )
    point_mass = SimpleNamespace(
        phi_fn=lambda r: -M / (4 * np.pi * np.asarray(r, dtype=float)),
        dphi_fn=lambda r: M / (4 * np.pi * np.asarray(r, dtype=float) ** 2),
    )
    energy0 = 0.5 * 0.81 - 1.0
    period = 2 * np.pi * (-1.0 / (2 * energy0)) ** 1.5

    evolve(
        ens,
        king,  # only used for scales/cadence here
        dt=1e-4,
        t_end=period,
        cadence=1000,
        field=point_mass,
    )
    e_final = 0.5 * (ens.v_r[0] ** 2 + ens.ell[0] / ens.r[0] ** 2) - 1.0 / ens.r[0]
    assert e_final == pytest.approx(energy0, abs=1e-8 * abs(energy0))
    assert ens.ell[0] == 0.81  # exact invariant
    assert ens.r[0] == pytest.approx(1.0, abs=1e-4)  # closed orbit


def test_time_reversibility_frozen(king, king_f):
    ens = sample_particles(king_f, 2_000, seed=9, value_fn=_q_fn(king))
    r0, v0 = ens.r.copy(), ens.v_r.copy()
    dt = 0.005 * king.dynamical_time
    evolve(ens, king, dt=dt, t_end=200 * dt, field=king.potential())
    ens.v_r *= -1.0
    evolve(ens, king, dt=dt, t_end=200 * dt, field=king.potential())
    ens.v_r *= -1.0
    scale = king.R_Q
    assert np.max(np.abs(ens.r - r0)) <= 1e-6 * scale
    assert np.max(np.abs(ens.v_r - v0)) <= 1e-6


def test_dt_halving_reduces_energy_drift(king, king_f):
    drifts = []
    for dt_frac in (0.04, 0.02):
        ens = sample_particles(king_f, 5_000, seed=11, value_fn=_q_fn(king))
        diag = evolve(
            ens, king, dt=dt_frac * king.dynamical_time, t_end=2 * king.dynamical_time,
            cadence=10, field=king.potential(),
        )
        h = np.array(diag.hamiltonian)
        drifts.append(np.max(np.abs(h - h[0]) / abs(h[0])))
    assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.5)


def test_self_consistent_short_run_conserves(king, king_f):
    ens = sample_particles(king_f, 30_000, seed=2, value_fn=_q_fn(king))
    diag = evolve(ens, king, dt=0.01 * king.dynamical_time, t_end=3 * king.dynamical_time)
    rep = conservation_report(diag)
    assert rep.mass_drift <= 1e-6
    assert rep.hamiltonian_drift <= 1e-3
    assert rep.passed


def test_record_steps_solve_from_the_steps_cell_moments(king, king_f, monkeypatch):
    # field_state() builds one CellMoments per call and a record step solves
    # the potential from it: n steps build n + 1, recorded or not
    import vpstab.poisson as poisson

    built = []
    of = CellMoments.of

    def counting_of(grid, rho):
        built.append(grid)
        return of(grid, rho)

    monkeypatch.setattr(poisson.CellMoments, "of", staticmethod(counting_of))
    ens = sample_particles(king_f, 2_000, seed=4, value_fn=_q_fn(king))
    diag = evolve(ens, king, dt=0.01 * king.dynamical_time, t_end=0.05 * king.dynamical_time, cadence=1)
    assert len(diag.times) == 6
    assert len(built) == 6


@pytest.mark.parametrize("field_average", [0, -1, 0.5])
def test_evolve_rejects_an_empty_averaging_window(king, king_f, field_average):
    # a window below one step held no density: the field was 0/0 and the run
    # failed steps later inside np.bincount
    ens = sample_particles(king_f, 2_000, seed=4, value_fn=_q_fn(king))
    r0 = ens.r.copy()
    with pytest.raises(InvalidArgumentError, match="field_average"):
        evolve(ens, king, dt=0.01 * king.dynamical_time, t_end=0.05 * king.dynamical_time,
               field_average=field_average)
    assert np.array_equal(ens.r, r0)  # raised before the first step


@pytest.mark.parametrize(
    "options",
    [{"cadence": 0}, {"cadence": -1}, {"field_average": 3, "field": "model"}],
    ids=["cadence-0", "cadence-negative", "fixed-field-averaged"],
)
def test_evolve_rejects_an_option_before_the_first_step(king, king_f, options):
    # cadence 0 recorded t = 0, took a step and failed at step % cadence; a
    # fixed field ignored field_average
    options = {k: king.potential() if v == "model" else v for k, v in options.items()}
    ens = sample_particles(king_f, 2_000, seed=4, value_fn=_q_fn(king))
    r0, v0 = ens.r.copy(), ens.v_r.copy()
    with pytest.raises(InvalidArgumentError, match="cadence" if "cadence" in options else "field_average"):
        evolve(ens, king, dt=0.01 * king.dynamical_time, t_end=0.05 * king.dynamical_time, **options)
    assert np.array_equal(ens.r, r0) and np.array_equal(ens.v_r, v0)


def test_orbital_distance_zero_at_start(king, king_f):
    ens = sample_particles(king_f, 20_000, seed=4, value_fn=_q_fn(king))
    assert orbital_distance(ens, king) <= 1e-10 * king.M


def test_orbital_distance_detects_perturbation(king, king_f):
    from vpstab.perturbations import bump_field

    chi = bump_field(king.R_Q, float(king.u_escape(np.array([0.0]))[0]), seed=11)
    eps = 0.05
    q = _q_fn(king)

    def value_fn(r, u):
        return np.clip(q(r, u) * (1.0 + eps * chi(r, u)), 0.0, None)

    vals = chi(king_f.grid.radial.nodes[:, None], king_f.grid.speeds.nodes[None, :])
    f_pert = king_f.with_values(np.clip(king_f.values * (1 + eps * vals), 0.0, None))
    ens = sample_particles(f_pert, 50_000, seed=4, value_fn=value_fn)
    d = orbital_distance(ens, king)
    # direct quadrature of the weighted perturbation
    w = 1.0 + king_f.grid.speeds.nodes[None, :] ** 2
    expected = float(np.sum(king_f.measure * w * np.abs(f_pert.values - king_f.values)))
    assert d == pytest.approx(expected, rel=0.2)


def test_energy_jump_abort(king, king_f):
    ens = sample_particles(king_f, 2_000, seed=13, value_fn=_q_fn(king))
    with pytest.warns(UserWarning):
        diag = evolve(ens, king, dt=0.5 * king.dynamical_time, t_end=20 * king.dynamical_time, cadence=1)
    rep = conservation_report(diag)
    assert diag.aborted or rep.hamiltonian_drift > 1e-3
    assert not rep.passed


def test_checkpoint_roundtrip(tmp_path, king, king_f):
    ens = sample_particles(king_f, 5_000, seed=6, value_fn=_q_fn(king))
    path = tmp_path / "state.ckpt"
    ens.save(path, time=1.5)
    loaded, t = ParticleEnsemble.load(path)
    assert t == 1.5
    assert np.array_equal(loaded.r, ens.r)
    assert np.array_equal(loaded.v_r, ens.v_r)
    assert np.array_equal(loaded.ell, ens.ell)
    assert np.array_equal(loaded.weight, ens.weight)
    assert np.array_equal(loaded.f0, ens.f0)
    # the sampled volume itself, which weight / f0 misses by an ulp on some
    # particles
    assert np.array_equal(loaded.volume, ens.volume)
    # fixed-width little-endian layout: header + 6 doubles per particle
    assert path.stat().st_size == 24 + ens.n * 6 * 8


def test_checkpoint_rejects_the_five_column_format(tmp_path, king, king_f):
    ens = sample_particles(king_f, 100, seed=6, value_fn=_q_fn(king))
    path = tmp_path / "old.ckpt"
    body = np.stack([ens.r, ens.v_r, ens.ell, ens.weight, ens.f0], axis=1)
    path.write_bytes(struct.pack("<8sdq", b"VPSTABE1", 0.0, ens.n) + body.astype("<f8").tobytes())
    with pytest.raises(InvalidArgumentError):
        ParticleEnsemble.load(path)


@pytest.mark.parametrize("eta", [0.0, -0.01, 0.01, 0.02])
def test_calibrated_bump_has_relative_l1_size_eta(king, eta):
    f0 = phase_space_density(king, n_r=400, n_u=200)
    f, value_fn = calibrated_bump(king, eta, seed=11)
    assert np.all(f.values >= 0)
    # no clipping at these sizes, so the relative L1 distance is eta exactly
    # (0 for eta <= 0, where the bump is off)
    assert f.l1_distance(f0) / f0.mass() == pytest.approx(max(eta, 0.0), rel=1e-12, abs=0.0)
    r, u = f0.grid.radial.nodes[:, None], f0.grid.speeds.nodes[None, :]
    assert np.array_equal(value_fn(r, u), f.values)


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
def test_calibrated_bump_rejects_a_non_finite_eta(king, eta):
    # NaN used to fail eta > 0 and give the unperturbed model silently
    with pytest.raises(InvalidArgumentError, match="eta"):
        calibrated_bump(king, eta, seed=11)


def test_diagnostics_csv(tmp_path, king, king_f):
    ens = sample_particles(king_f, 2_000, seed=1, value_fn=_q_fn(king))
    diag = evolve(ens, king, dt=0.02 * king.dynamical_time, t_end=0.2 * king.dynamical_time, cadence=5)
    path = tmp_path / "series.csv"
    diag.write_csv(path, header_lines=["config deadbeef"])
    text = path.read_text()
    assert text.startswith("# config deadbeef")
    assert "hamiltonian" in text.splitlines()[1]
    assert len(text.splitlines()) >= 4


def _mesh_cloud(grid, rng):
    """Radii covering the whole field mesh: a random cloud, every edge and
    node exactly, points below the first node and above the last one, the
    outer boundary and a little past it."""
    x_max = grid.x_max
    r = np.concatenate([
        rng.uniform(0.0, x_max, 5000),
        grid.edges,
        grid.nodes,
        rng.uniform(0.0, grid.nodes[0], 20),
        rng.uniform(grid.nodes[-1], x_max, 20),
        [0.0, 1e-13 * x_max, x_max, (1.0 + 1e-9) * x_max],
    ])
    return ParticleEnsemble(
        r=r, v_r=np.zeros_like(r), ell=np.zeros_like(r), weight=rng.uniform(0.5, 2.0, r.size),
        f0=np.ones_like(r), volume=np.ones_like(r),
    )


def _reference_deposit(grid, ens):
    # cloud-in-cell by search: node pair bracketing each radius
    nodes = grid.nodes
    idx = np.clip(np.searchsorted(nodes, ens.r) - 1, 0, nodes.size - 2)
    t = np.clip((ens.r - nodes[idx]) / (nodes[idx + 1] - nodes[idx]), 0.0, 1.0)
    mass = np.zeros(nodes.size)
    np.add.at(mass, idx, ens.weight * (1.0 - t))
    np.add.at(mass, idx + 1, ens.weight * t)
    return mass / (4.0 * np.pi * grid.sq_moments)


def _binner_density(binner, ens, block):
    """The binner's node densities of ens, deposited in blocks of `block`
    particles."""
    shares = np.zeros((2, binner.grid.n))
    for start in range(0, ens.n, block):
        b = slice(start, start + block)
        binner.density(ens.weight[b], ens.r[b] * binner.inv_h, shares)
    return binner.nodes(shares)


def test_binner_density_matches_searchsorted_deposit(rng):
    grid = make_1d_grid(2.7, 256)
    ens = _mesh_cloud(grid, rng)
    binner = _Binner(grid, ens.n)
    rho = _binner_density(binner, ens, 1000)
    # blocks sum each node in particle order, as one deposit of all does
    assert rho.tobytes() == _binner_density(binner, ens, ens.n).tobytes()
    ref = _reference_deposit(grid, ens)
    np.testing.assert_allclose(rho, ref, rtol=1e-13, atol=0.0)
    volumes = 4.0 * np.pi * grid.sq_moments
    total = ens.weight.sum()
    assert abs(np.dot(rho, volumes) - total) <= 1e-14 * total
    assert abs(np.dot(rho, volumes) - np.dot(ref, volumes)) <= 1e-14 * total


def test_binner_force_matches_cells_potential(rng):
    grid = make_1d_grid(2.7, 256)
    cloud = _mesh_cloud(grid, rng)
    binner = _Binner(grid, 10_000)
    rho = _binner_density(binner, cloud, cloud.n)
    x_max = grid.x_max
    r = np.concatenate([
        rng.uniform(0.0, 1.2 * x_max, 5000),
        grid.edges,
        grid.nodes,
        [0.0, 1e-14 * x_max, 0.999e-12 * x_max, 1e-12 * x_max, x_max, 1.5 * x_max, 40.0 * x_max],
    ])
    cells = CellMoments.of(grid, rho)
    force = binner.dphi(cells, r, r * binner.inv_h, out=np.empty(r.size))
    ref = solve_poisson_radial(grid, cells).dphi_fn(r)
    np.testing.assert_allclose(force, ref, rtol=1e-13, atol=0.0)
    assert np.all(force[r < 1e-12 * x_max] == 0.0)


class _ReferenceBinner:
    """The mesh arithmetic written plainly: s computed per use, np.clip
    everywhere, the upper shares binned at idx + 1, cum_sq from CellMoments."""

    def __init__(self, grid):
        self.grid = grid
        self.volumes = 4.0 * np.pi * grid.sq_moments
        self.inv_h = grid.n / grid.x_max

    def density(self, ens):
        n = self.grid.n
        x = ens.r * self.inv_h - 0.5
        idx = np.clip(x, 0.0, n - 2).astype(np.intp)
        t = np.clip(x - idx, 0.0, 1.0)
        rho = np.bincount(idx, ens.weight * (1.0 - t), minlength=n)
        rho += np.bincount(idx + 1, ens.weight * t, minlength=n)
        return rho / self.volumes

    def dphi(self, cells, r):
        x_max = self.grid.x_max
        tiny = 1e-12 * x_max
        rs = np.clip(r, tiny, x_max)
        i = np.minimum((rs * self.inv_h).astype(np.intp), self.grid.n - 1)
        out = cells.cum_sq(rs, i)
        out /= np.maximum(r, tiny) ** 2
        out[r < tiny] = 0.0
        return out


def _reference_evolve(ens, model, dt, t_end, cadence, field_average=1, field=None):
    """evolve's kick-drift-kick loop and records in plain numpy: the kick adds
    dt/2 times the negated force, the drift uses np.clip floors."""
    from vpstab.evolver import FIELD_FACTOR, FIELD_N, TrajectoryDiagnostics
    from vpstab.poisson import field_energy, grad_distance2

    grid = make_1d_grid(FIELD_FACTOR * model.R_Q, FIELD_N)
    binner = _ReferenceBinner(grid)
    diag = TrajectoryDiagnostics()
    window = []
    rho_sum = np.zeros(FIELD_N)  # a running sum, added to and dropped from as evolve does

    def field_state():
        nonlocal rho_sum
        if field is not None:
            return None, -field.dphi_fn(ens.r)
        rho = binner.density(ens)
        window.append(rho)
        rho_sum = rho_sum + rho
        if len(window) > field_average:
            rho_sum = rho_sum - window.pop(0)
        cells = CellMoments.of(grid, rho_sum / len(window))
        return cells, -binner.dphi(cells, ens.r)

    def free_drift(tau):
        r0 = np.clip(ens.r, 1e-14 * model.R_Q, None)
        b = r0 * ens.v_r
        speed2 = ens.v_r**2 + ens.ell / r0**2
        r1 = np.sqrt(np.clip(r0**2 + 2.0 * b * tau + speed2 * tau**2, 1e-28 * model.R_Q**2, None))
        ens.v_r = (b + speed2 * tau) / r1
        ens.r = r1

    def record(t, cells):
        if field is None:
            pot = solve_poisson_radial(grid, cells)
            ham = ens.kinetic() - field_energy(pot)
            pdist = float(np.sqrt(grad_distance2(pot, model.potential(), n=FIELD_N)))
        else:
            ham, pdist = ens.kinetic() + float((ens.weight * field.phi_fn(ens.r)).sum()), 0.0
        diag.times.append(t)
        diag.hamiltonian.append(ham)
        diag.mass.append(ens.mass())
        diag.orbital.append(orbital_distance(ens, model))
        diag.potential_dist.append(pdist)

    cells, a = field_state()
    record(0.0, cells)
    n_steps = int(round(t_end / dt))
    for step in range(1, n_steps + 1):
        ens.v_r += 0.5 * dt * a
        free_drift(dt)
        above = ens.r > grid.x_max
        diag.reflections += int(above.sum())
        ens.r[above] = 2.0 * grid.x_max - ens.r[above]
        ens.v_r[above] *= -1.0
        cells, a = field_state()
        ens.v_r += 0.5 * dt * a
        if step % cadence == 0 or step == n_steps:
            record(step * dt, cells)
    return diag


def _edge_ensemble(king, king_f, dt):
    """2k sampled particles, with the last one on a radial orbit that crosses
    x_max in the first step and the one before it at rest below 1e-12 x_max:
    with blocks of 512 both sit in the last, ragged block, whose force reads
    take _Binner.dphi's clipped branch while the other blocks' do not."""
    from vpstab.evolver import FIELD_FACTOR

    ens = sample_particles(king_f, 2_000, seed=21, value_fn=_q_fn(king))
    x_max = FIELD_FACTOR * king.R_Q
    ens.ell[-2:] = 0.0
    ens.v_r[-1], ens.r[-1] = 1.0, x_max - 0.5 * dt
    ens.v_r[-2], ens.r[-2] = 0.0, 1e-13 * x_max
    return ens


@pytest.mark.parametrize(
    "mode",
    [
        {"field_average": 1},
        {"field_average": 3},
        {"field": "model"},
        {"field": "external"},
    ],
    ids=["field_average_1", "field_average_3", "frozen", "external_dphi"],
)
def test_evolve_bit_identical_to_plain_reference(king, king_f, mode, monkeypatch):
    # field=king.potential() gives the bits of king.phi_fn and king.dphi_fn
    # on the particles, the frozen field of the two-flag form; "external" is
    # any object with both
    # 2k particles in four blocks, the last one ragged
    monkeypatch.setattr(evolver, "PARTICLE_BLOCK", 512)
    mode = dict(mode)
    if mode.get("field") == "model":
        mode["field"] = king.potential()
    elif mode.get("field") == "external":
        mode["field"] = SimpleNamespace(phi_fn=lambda r: king.phi_fn(r), dphi_fn=lambda r: king.dphi_fn(r))
    dt = 0.01 * king.dynamical_time
    ens, ref = _edge_ensemble(king, king_f, dt), _edge_ensemble(king, king_f, dt)
    pot = king.potential()
    assert np.array_equal(pot.phi_fn(ens.r), king.phi_fn(ens.r))
    assert np.array_equal(pot.dphi_fn(ens.r), king.dphi_fn(ens.r))
    diag = evolve(ens, king, dt=dt, t_end=20 * dt, cadence=5, **mode)
    ref_diag = _reference_evolve(ref, king, dt=dt, t_end=20 * dt, cadence=5, **mode)
    assert diag.reflections == ref_diag.reflections >= 1
    assert np.array_equal(ens.r, ref.r)
    assert np.array_equal(ens.v_r, ref.v_r)
    assert list(diag.rows()) == list(ref_diag.rows())
    assert len(ref_diag.times) == 5


@pytest.mark.parametrize("fixed", [False, True], ids=["self_consistent", "frozen"])
def test_evolve_rows_do_not_depend_on_the_blas_thread_count(king, king_f, fixed, serial_blas):
    # the record's sums run over 20k particles, past the size where a BLAS
    # dot product is split across threads; the pairwise sums give the same
    # bits on any count
    dt = 0.01 * king.dynamical_time

    def run(context):
        ens = sample_particles(king_f, 20_000, seed=3, value_fn=_q_fn(king))
        with context():
            diag = evolve(ens, king, dt=dt, t_end=10 * dt, cadence=5, field=king.potential() if fixed else None)
        return diag, ens

    (diag, ens), (ref_diag, ref) = run(contextlib.nullcontext), run(serial_blas)
    assert ens.n > 10_000 and len(diag.times) == 3
    assert ens.r.tobytes() == ref.r.tobytes() and ens.v_r.tobytes() == ref.v_r.tobytes()
    assert diag.reflections == ref_diag.reflections
    for name in ("times", "hamiltonian", "mass", "orbital", "potential_dist"):
        assert np.asarray(getattr(diag, name)).tobytes() == np.asarray(getattr(ref_diag, name)).tobytes(), name


def test_evolve_leaves_external_force_array_unchanged(king, king_f):
    # an external force may hand back the same cached array on every call
    ens = sample_particles(king_f, 2_000, seed=8, value_fn=_q_fn(king))
    cached = king.dphi_fn(ens.r)
    before = cached.copy()
    dt = 0.01 * king.dynamical_time
    evolve(ens, king, dt=dt, t_end=5 * dt, cadence=5, field=SimpleNamespace(phi_fn=king.phi_fn, dphi_fn=lambda r: cached))
    assert np.array_equal(cached, before)


SWEEP_SMALL = dict(n_particles=2_000, seed=21, n_dynamical_times=0.2)


def test_stability_sweep_bit_identical_to_serial_loop(king):
    etas = (0.0, 0.005, 0.02)
    sweep = stability_sweep(king, etas=etas, **SWEEP_SMALL)
    assert not multiprocessing.active_children()
    dt = 0.01 * king.dynamical_time
    serial = {}
    for eta in etas:
        f_eta, value_fn = calibrated_bump(king, eta, 11)
        ens = sample_particles(f_eta, 2_000, seed=21, value_fn=value_fn)
        serial[eta] = evolve(ens, king, dt=dt, t_end=0.2 * king.dynamical_time, field_average=128)
    assert list(sweep["diagnostics"]) == list(etas)
    for eta, ref in serial.items():
        diag = sweep["diagnostics"][eta]
        for name in ("times", "hamiltonian", "mass", "orbital", "potential_dist"):
            assert np.asarray(getattr(diag, name)).tobytes() == np.asarray(getattr(ref, name)).tobytes()
        assert (diag.reflections, diag.aborted) == (ref.reflections, ref.aborted)
    dmax = [max(serial[eta].orbital) for eta in etas[1:]]
    assert sweep["max_distance"] == dict(zip(etas[1:], dmax))
    assert sweep["exponent"] == float(np.polyfit(np.log(etas[1:]), np.log(dmax), 1)[0])


def test_stability_sweep_raises_the_child_exception(king):
    with pytest.raises(InvalidArgumentError, match="at least one particle"):
        stability_sweep(king, etas=(0.0, 0.01), **{**SWEEP_SMALL, "n_particles": 0})
    assert not multiprocessing.active_children()


def test_stability_sweep_reemits_child_warnings(king):
    with pytest.warns(UserWarning, match="time step exceeds a tenth") as caught:
        stability_sweep(king, etas=(0.0, 0.01), dt_frac=0.2, **SWEEP_SMALL)
    assert sum("exceeds a tenth" in str(w.message) for w in caught) == 2
    assert not multiprocessing.active_children()


def _fail_first(arg):
    if arg == 0:
        raise ZeroDivisionError("first run fails")
    time.sleep(60)


def test_forked_runs_failure_terminates_the_other_children():
    t0 = time.perf_counter()
    with pytest.raises(ZeroDivisionError, match="first run fails"):
        _forked_runs(_fail_first, [0, 1, 2])
    assert time.perf_counter() - t0 < 30
    assert not multiprocessing.active_children()


def test_forked_runs_interrupted_leaves_no_child():
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            _forked_runs(lambda arg: time.sleep(60), [0, 1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < 30
    assert not multiprocessing.active_children()

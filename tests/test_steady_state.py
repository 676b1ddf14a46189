import dataclasses
import functools
import json
import math
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.special import cython_special

from vpstab.numerics import (
    InvalidArgumentError,
    RadialOdeSolution,
    hermite_coefficients,
    jacobi_integral,
    make_1d_grid,
    power_eval,
    solve_profile_ode,
)
from vpstab.poisson import field_energy
from vpstab.spectral import coercivity_constant
from vpstab.steady_state import (
    FOUR_PI_SQRT2,
    KING_W0_MIN,
    POLYTROPE_DEPTH_RANGE,
    DomainError,
    KingProfile,
    PolytropeProfile,
    SteadyStateModel,
    _power_source,
    build_king,
    build_polytrope,
    check_steady_state,
    king_model,
    phase_space_density,
    polytrope_model,
    radial_laplacian,
    recipe_model,
    support_grid,
)


def density_from_potential(profile, phi):
    """Spatial density at local potential phi, by energy quadrature.

    Evaluates both the F-weighted half-power form and the |F'|-weighted
    3/2-power form; they must agree to 1e-8 relative, and the F-form value is
    returned.
    """
    if phi >= 0:
        raise DomainError("potential must be negative")
    if phi >= profile.e0:
        return 0.0
    e0 = profile.e0
    f_form = FOUR_PI_SQRT2 * jacobi_integral(profile.f_smooth, phi, e0, profile.f_cusp, 0.5)
    fp_form = (2.0 / 3.0) * FOUR_PI_SQRT2 * jacobi_integral(profile.fp_smooth, phi, e0, profile.fp_cusp, 1.5)
    assert abs(f_form - fp_form) <= 1e-8 * max(abs(f_form), 1e-300), (f_form, fp_form)
    return f_form


def _rk4_oracle(source, y0, h):
    """Independent fixed-step integrator for the profile equation, used at
    10x the builder resolution."""
    r, y, v = h, y0 - source(np.array([y0]))[0] * h**2 / 6, -source(np.array([y0]))[0] * h / 3
    rs, ys, vs = [r], [y], [v]

    def rhs(r, y, v):
        return v, -2 * v / r - float(source(np.array([max(y, 0.0)]))[0])

    while y > 0:
        k1y, k1v = rhs(r, y, v)
        k2y, k2v = rhs(r + h / 2, y + h / 2 * k1y, v + h / 2 * k1v)
        k3y, k3v = rhs(r + h / 2, y + h / 2 * k2y, v + h / 2 * k2v)
        k4y, k4v = rhs(r + h, y + h * k3y, v + h * k3v)
        y += h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        v += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        r += h
        rs.append(r)
        ys.append(y)
        vs.append(v)
    # linear interpolation of the crossing
    t = ys[-2] / (ys[-2] - ys[-1])
    r_zero = rs[-2] + t * h
    v_zero = vs[-2] + t * (vs[-1] - vs[-2])
    return r_zero, v_zero


# The profile solve in its plain form: kernels with np.clip, King's power
# W^(m + 1/2) as np.sqrt(W) times m factors W from the left and a
# polytrope's as `**`, and a fresh one-element array for each RK4 stage. The
# builders call each kernel on one float per stage; they must reproduce this
# form bit for bit.
def _plain_king_kernels():
    def kernel(c, m, b):
        def evaluate(psi):
            w = np.clip(np.asarray(psi, dtype=float), 0.0, None)
            power = functools.reduce(np.multiply, [w] * m, np.sqrt(w))
            return FOUR_PI_SQRT2 * 1.0 * c * power * special.hyp1f1(1.0, b, w)

        return evaluate

    return kernel(4.0 / 15.0, 2, 3.5), kernel(2.0 / 3.0, 1, 2.5), kernel(4.0 / 35.0, 3, 4.5)


# The King kernel as model files were written before the power became
# sqrt(W) * W^m: np.power on arrays and on each float of the profile solve.
def _np_power_king_kernel(self, psi, c, m, b):
    w = np.maximum(psi, 0.0)
    return FOUR_PI_SQRT2 * c * np.power(w, m + 0.5) * special.hyp1f1(1.0, b, w)


def _np_power_king_source(self):
    c, m, b = self._RHO
    k = float(FOUR_PI_SQRT2 * c)

    def source(y):
        w = max(y, 0.0)
        return k * float(np.power(w, m + 0.5)) * cython_special.hyp1f1(1.0, b, w)

    return source


def _plain_polytrope_kernels(q):
    def kernel(c, a):
        return lambda psi: c * np.clip(psi, 0.0, None) ** a

    return (
        kernel(FOUR_PI_SQRT2 * special.beta(q + 1.0, 1.5) * 1.0, q + 1.5),
        kernel(FOUR_PI_SQRT2 * q * special.beta(q, 1.5) * 1.0, q + 0.5),
        kernel(FOUR_PI_SQRT2 * special.beta(q + 1.0, 2.5) * 1.0, q + 2.5),
    )


def _plain_solve(source, y0, h):
    s0 = float(source(np.array([y0]))[0])
    ds = float((source(np.array([y0 * (1 + 1e-7)]))[0] - source(np.array([y0 * (1 - 1e-7)]))[0]) / (2e-7 * y0))

    def series(r):
        return y0 - s0 * r**2 / 6.0 + s0 * ds * r**4 / 120.0, -s0 * r / 3.0 + s0 * ds * r**3 / 30.0

    def rhs(r, y, v):
        return v, -2.0 * v / r - float(source(np.array([max(y, 0.0)]))[0])

    y, v = series(2.0 * h)
    y_h, v_h = series(h)
    rs, ys, vs, r = [0.0, h, 2.0 * h], [y0, y_h, y], [0.0, v_h, v], 2.0 * h
    while True:
        k1y, k1v = rhs(r, y, v)
        k2y, k2v = rhs(r + h / 2, y + h / 2 * k1y, v + h / 2 * k1v)
        k3y, k3v = rhs(r + h / 2, y + h / 2 * k2y, v + h / 2 * k2v)
        k4y, k4v = rhs(r + h, y + h * k3y, v + h * k3v)
        y_new = y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        v_new = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        r += h
        rs.append(r)
        ys.append(y_new)
        vs.append(v_new)
        if y_new <= 0.0:
            break
        y, v = y_new, v_new
    rs, ys, vs = np.array(rs), np.array(ys), np.array(vs)
    ra, rb, ya, yb = rs[-2], rs[-1], ys[-2], ys[-1]
    nodes = np.array([ra, rb])
    coef = hermite_coefficients(nodes, np.array([ya, yb]), np.array([vs[-2], vs[-1]]))

    def val_der(x):
        return float(power_eval(nodes, coef, x)[0]), float(power_eval(nodes, coef, x, derivative=True)[0])

    x = ra + (rb - ra) * ya / (ya - yb)
    for _ in range(60):
        f, fp = val_der(x)
        x_new = min(max(x - f / fp, ra), rb)
        if abs(x_new - x) < 1e-15 * rb:
            x = x_new
            break
        x = x_new
    ypp = np.empty_like(rs)
    ypp[1:] = -2.0 * vs[1:] / rs[1:] - source(np.clip(ys[1:], 0.0, None))
    ypp[0] = -s0 / 3.0
    return RadialOdeSolution(r=rs, y=ys, yp=vs, ypp=ypp, r_zero=float(x), yp_zero=val_der(x)[1])


def _plain_profile(source, y0):
    h = min(0.02, float(np.sqrt(6.0 * y0 / source(y0))) / 10.0)
    return _plain_solve(source, y0, _plain_solve(source, y0, h).r_zero / 6000)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "build, plain",
    [
        (lambda: king_model(3.0), lambda: _plain_profile(_plain_king_kernels()[0], 3.0)),
        (lambda: king_model(12.0), lambda: _plain_profile(_plain_king_kernels()[0], 12.0)),
    ]
    + [
        (lambda q=q: polytrope_model(q), lambda q=q: _plain_profile(lambda y: np.clip(y, 0.0, None) ** (q + 1.5), 1.0))
        for q in (0.5, 1.0, 3.45)
    ],
    ids=["W0-3", "W0-12", "q-0.5", "q-1", "q-3.45"],
)
def test_profile_solve_matches_the_plain_form_bit_for_bit(build, plain):
    ode, ref = build().interior.ode, plain()
    for name in ("r", "y", "yp", "ypp", "r_zero", "yp_zero"):
        assert _same_bits(getattr(ode, name), getattr(ref, name)), name


def test_kernels_match_the_plain_form_bit_for_bit():
    # on arrays and, one value at a time, on floats against one-element
    # arrays: the form an RK4 stage used to take. `**` on a float differs
    # from np.power on about 5% of inputs, so the 1001 depths up to 20 catch
    # a kernel that uses it.
    edges = [-0.0, -1e-300, -2.5, 0.0, 1e-300, 1e-8, 700.5, 710.0, 800.0]
    psi = np.concatenate([edges, np.linspace(0.0, 20.0, 1001)])
    pairs = [(KingProfile(e0=-1.0), _plain_king_kernels())]
    pairs += [(PolytropeProfile(q=q, e0=-1.0), _plain_polytrope_kernels(q)) for q in (0.5, 1.0, 3.45)]
    with np.errstate(over="ignore"):  # the King kernels are inf at 800
        for profile, plain in pairs:
            for kernel, ref in zip((profile.rho_kernel, profile.vq_kernel, profile.kin_kernel), plain):
                assert _same_bits(kernel(psi), ref(psi))
                for x in psi:
                    assert _same_bits(kernel(float(x)), ref(np.array([x]))[0]), (profile, x)


def test_king_kernels_take_the_same_bits_on_floats_and_arrays():
    # each King kernel in float arithmetic (math.sqrt, float products and
    # cython_special's scalar hyp1f1: the form of the profile solve's source)
    # against the array kernel. The power sqrt(W) * W^m lies within 4.5e-16
    # of np.power's W^(m + 1/2), and differs from it on 25-41% of the depths.
    edges = [-0.0, -1e-300, -2.5, 0.0, 1e-300, 1e-8, 700.5, 710.0, 800.0]
    psi = np.concatenate([edges, np.linspace(0.0, 20.0, 1001)])
    profile = KingProfile(e0=-1.0)
    kernels = (profile.rho_kernel, profile.vq_kernel, profile.kin_kernel)
    for kernel, (c, m, b) in zip(kernels, (profile._RHO, profile._VQ, profile._KIN)):
        with np.errstate(over="ignore"):  # the kernels are inf at 800
            array_form = kernel(psi)
        powers = []
        for x, ref in zip(psi, array_form):
            w = max(float(x), 0.0) + 0.0
            power = math.sqrt(w)
            for _ in range(m):
                power = power * w
            powers.append(power)
            got = float(FOUR_PI_SQRT2 * c) * power * cython_special.hyp1f1(1.0, b, w)
            assert _same_bits(got, ref), (m, x)
        powers, np_powers = np.array(powers), np.power(np.maximum(psi, 0.0), m + 0.5)
        assert np.all(np.abs(powers - np_powers) <= 4.5e-16 * np_powers), m
        assert 0.1 < np.mean(powers != np_powers) < 0.5, m


def test_float_sources_match_the_plain_form_bit_for_bit():
    # the sources of the profile solve, one float at a time, against the
    # plain kernels on one-element arrays: King's rho kernel, and the
    # Lane-Emden power at each polytrope kernel's exponent (q = 1/2 and 3/2
    # give the odd powers 1 and 3, which keep the sign of -0.0). No King
    # source gets +inf: scipy 1.17's hyp1f1(1, 3.5, inf) did not return within
    # 12 s, and no depth the program reaches is infinite.
    edges = [-0.0, -1e-300, -2.5, 0.0, 1e-300, 1e-8, 700.5, 710.0, 800.0]
    psi = np.concatenate([edges, np.linspace(0.0, 20.0, 1001)])
    pairs = [(KingProfile(e0=-1.0)._rho_source(), _plain_king_kernels()[0])]
    pairs += [(_power_source(q + d), lambda x, n=q + d: np.clip(x, 0.0, None) ** n)
              for q in (0.5, 1.0, 1.5, 3.45) for d in (0.5, 1.5, 2.5)]
    with np.errstate(over="ignore"):  # the King kernel is inf at 800
        for source, ref in pairs:
            for x in psi:
                got = source(float(x))
                assert type(got) is float and _same_bits(got, ref(np.array([x]))[0]), x
            assert np.isnan(source(float("nan")))


def _float_only(source):
    """source, raising on an argument that is not a float."""
    def strict(y):
        if type(y) is not float:
            raise TypeError(f"source called on {type(y).__name__}")
        return float(source(y))

    return strict


@pytest.mark.parametrize("source, y0", [(KingProfile(e0=-1.0).rho_kernel, 3.0),
                                        (lambda y: np.power(np.maximum(y, 0.0), 2.5), 1.0)], ids=["king", "q-1"])
def test_profile_solve_calls_its_source_on_floats_only(source, y0):
    ref = solve_profile_ode(source, y0, 0.02)
    ode = solve_profile_ode(_float_only(source), y0, 0.02)
    for name in ("r", "y", "yp", "ypp", "r_zero", "yp_zero"):
        assert _same_bits(getattr(ode, name), getattr(ref, name)), name


def test_king_build_leaves_the_hyp1f1_ufunc_out_of_its_rk4_stages(monkeypatch):
    # each RK4 stage calls cython_special's scalar hyp1f1 and no numpy
    # function; stages that called the ufunc made 24 191 calls of it per
    # build, and stages that took np.power as many calls of that
    calls, ufunc = [], special.hyp1f1
    powers, power = [], np.power
    monkeypatch.setattr(special, "hyp1f1", lambda *args: calls.append(1) or ufunc(*args))
    monkeypatch.setattr(np, "power", lambda *args, **kw: powers.append(1) or power(*args, **kw))
    king_model(3.0)
    assert 0 < len(calls) < 10
    assert powers == []


@pytest.mark.parametrize("W0", [1e-3, 3.0, 12.0])
def test_model_file_written_with_the_np_power_kernel_still_loads(W0, monkeypatch):
    # a file of the np.power kernel holds numbers a few 1e-13 from today's
    # rebuild, inside the load check's 1e-12 of scale
    with monkeypatch.context() as patch:
        patch.setattr(KingProfile, "_kernel", _np_power_king_kernel)
        patch.setattr(KingProfile, "_rho_source", _np_power_king_source)
        doc = json.loads(json.dumps(king_model(W0).to_json()))
    model = SteadyStateModel.from_json(doc)
    assert model.R_Q != doc["R_Q"] or model.M != doc["M"]
    for name in ("R_Q", "M", "kinetic", "hamiltonian"):
        assert getattr(model, name) == pytest.approx(doc[name], rel=1e-12, abs=0), name


def test_polytrope_profile_validation():
    with pytest.raises(InvalidArgumentError):
        PolytropeProfile(q=4.0, e0=-1.0)
    with pytest.raises(InvalidArgumentError):
        PolytropeProfile(q=0.0, e0=-1.0)


def test_king_profile_vanishes_continuously():
    prof = KingProfile(e0=-1.0)
    assert prof.evaluate(np.array([-1.0]))[0] == 0.0
    assert prof.evaluate(np.array([-1.0 + 1e-9]))[0] == 0.0
    assert prof.evaluate(np.array([-1.0 - 1e-9]))[0] == pytest.approx(1e-9, rel=1e-6)


def test_density_zero_above_cutoff():
    prof = PolytropeProfile(q=1.0, e0=-0.5)
    assert density_from_potential(prof, -0.4) == 0.0


def test_density_domain_error():
    prof = PolytropeProfile(q=1.0, e0=-0.5)
    with pytest.raises(DomainError):
        density_from_potential(prof, 0.1)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.5])
def test_density_beta_closed_form(q):
    prof = PolytropeProfile(q=q, e0=-0.5)
    phi = -2.0
    expected = 4 * np.pi * np.sqrt(2) * special.beta(q + 1, 1.5) * (prof.e0 - phi) ** (q + 1.5)
    assert density_from_potential(prof, phi) == pytest.approx(expected, rel=1e-12)


def test_density_king_quadrature_oracle():
    prof = KingProfile(e0=-1.0)
    phi = -2.0
    oracle = (
        4
        * np.pi
        * np.sqrt(2)
        * quad(lambda e: (np.exp(prof.e0 - e) - 1) * np.sqrt(e - phi), phi, prof.e0, epsabs=1e-14)[0]
    )
    assert density_from_potential(prof, phi) == pytest.approx(oracle, rel=1e-10)


def test_polytrope_builder_matches_oracle():
    model = polytrope_model(1.0, 1.0, n_r=400)
    n_index = 2.5
    source = lambda y: np.clip(y, 0, None) ** n_index
    xi1, dtheta1 = _rk4_oracle(source, 1.0, 1e-4)
    c_q = 4 * np.pi * np.sqrt(2) * special.beta(2.0, 1.5)
    alpha = 1.0 / np.sqrt(c_q)
    assert model.R_Q == pytest.approx(alpha * xi1, rel=1e-4)
    assert model.M == pytest.approx(4 * np.pi * alpha * xi1**2 * abs(dtheta1), rel=1e-4)
    assert model.e0 == pytest.approx(-xi1 * abs(dtheta1), rel=1e-4)


def test_king_builder_matches_oracle():
    model = king_model(3.0, n_r=400)
    stub = KingProfile(e0=-1.0)
    r_zero, v_zero = _rk4_oracle(lambda y: stub.rho_kernel(y), 3.0, 2e-5)
    assert model.R_Q == pytest.approx(r_zero, rel=1e-4)
    assert model.M == pytest.approx(-4 * np.pi * r_zero**2 * v_zero, rel=1e-4)
    assert model.e0 == pytest.approx(r_zero * v_zero, rel=1e-4)


def test_king_mass_monotone_in_depth():
    masses = [king_model(w0, n_r=80).M for w0 in (1.0, 0.5, 0.25)]
    assert masses[0] > masses[1] > masses[2] > 0


def test_build_validation():
    # a parameter that is not a finite number > 0 is rejected before the
    # profile solve, which would otherwise run toward its step cap on NaN
    grid = make_1d_grid(10.0, 64)
    for q, depth in ((4.0, 1.0), (np.nan, 1.0), (1.0, np.nan), (1.0, np.inf), (1.0, "1"), (1.0, 0.0)):
        with pytest.raises(InvalidArgumentError):
            build_polytrope(q, depth, grid)
    for w0 in (-1.0, np.nan, np.inf, "3", None):
        with pytest.raises(InvalidArgumentError):
            build_king(w0, grid)
    # deeper profiles than the fine solve converges for are rejected before
    # it starts: at W0 = 18 it stopped after one step with a negative mass,
    # at W0 = 20 it ran past 30 s, at W0 = 1e3 it divided by zero
    for w0 in (13.0, 16.0, 18.0, 20.0, 1e3):
        with pytest.raises(InvalidArgumentError, match="does not converge"):
            build_king(w0, grid)
    with pytest.raises(InvalidArgumentError, match="does not converge"):
        build_polytrope(3.49, 1.0, grid)
    # so are King models too shallow for the coarse solve's fixed step, and
    # polytrope depths whose model leaves the float range
    for w0 in (1e-9, 1e-6, KING_W0_MIN * (1 - 1e-12)):
        with pytest.raises(InvalidArgumentError, match="below"):
            build_king(w0, grid)
    lo, hi = POLYTROPE_DEPTH_RANGE
    for depth in (1e-300, lo * (1 - 1e-12), hi * (1 + 1e-12), 1e300):
        with pytest.raises(InvalidArgumentError, match="float range"):
            build_polytrope(1.0, depth, grid)


@pytest.mark.parametrize("q", [0.5, 3.45])
def test_polytrope_depth_range_keeps_the_homology(q):
    # every quantity of a polytrope is a power of the depth times a
    # scale-free number, so these ratios cannot depend on the depth; at both
    # ends of the accepted range they hold to rounding, without a warning
    def ratios(m):
        return [m.hamiltonian / m.kinetic, m.e0 * 4 * np.pi * m.R_Q / m.M, m.kinetic * m.R_Q / m.M**2,
                m.L0 / (m.R_Q**3 * abs(m.e0) ** 1.5)]

    ref = ratios(polytrope_model(q, 1.0, n_r=200))
    for depth in POLYTROPE_DEPTH_RANGE:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ratios(polytrope_model(q, depth, n_r=200))
        assert got == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("build", [lambda: king_model(12.0), lambda: polytrope_model(3.45), lambda: king_model(KING_W0_MIN)],
                         ids=["W0-12", "q-3.45", "W0-min"])
def test_profile_solve_converges_at_the_depth_bounds(build, monkeypatch):
    # the deepest and the shallowest accepted profiles: R_Q moves by less
    # than 1e-5 when the fine solve (the second profile solve of a build)
    # runs at half the step
    import vpstab.steady_state as steady_state

    R_Q = build().R_Q
    solve, steps = steady_state.solve_profile_ode, []

    def halved(source, y0, h):
        steps.append(h)
        return solve(source, y0, h / 2 if len(steps) == 2 else h)

    monkeypatch.setattr(steady_state, "solve_profile_ode", halved)
    assert abs(build().R_Q - R_Q) / R_Q < 1e-5
    assert len(steps) == 2


def test_model_basic_structure(king):
    assert king.phi_center < king.e0 < 0
    phi = king.phi
    assert np.all(np.diff(phi) > 0)
    r = king.grid.nodes
    outside = r > king.R_Q
    assert np.allclose(phi[outside], -king.M / (4 * np.pi * r[outside]), rtol=1e-6)
    assert np.all(king.rho[outside] == 0)
    assert np.all(np.diff(king.rho) <= 1e-12)
    assert king.hamiltonian < 0


def test_virial_identity(king, poly):
    # 2 K = 1/2 |grad phi|^2 for a steady self-gravitating state
    for model in (king, poly):
        grad2 = 2 * field_energy(model.potential())
        assert 2 * model.kinetic == pytest.approx(0.5 * grad2, rel=1e-3)


def test_check_steady_state_convergence(poly):
    res = [check_steady_state(polytrope_model(1.0, 1.0, n_r=n)) for n in (100, 200, 400)]
    assert res[-1] <= 5e-3
    slopes = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert np.all(slopes > 1.6)


def test_check_steady_state_perturbed(king):
    bump = np.where(king.grid.nodes < king.R_Q, 0.01 * king.grid.nodes**2, 0.0)
    perturbed = SteadyStateModel(
        profile=king.profile,
        grid=king.grid,
        phi=np.array(king.phi) + bump,
        rho=np.array(king.rho),
        e0=king.e0,
        R_Q=king.R_Q,
        M=king.M,
        L0=king.L0,
        kinetic=king.kinetic,
        hamiltonian=king.hamiltonian,
        interior=king.interior,
        meta=king.meta,
    )
    # interior residual is the constant Laplacian of the bump; the support
    # edge carries the indicator's distributional spike and is excluded
    lap = radial_laplacian(king.grid.nodes, perturbed.phi)
    interior = king.grid.nodes < 0.9 * king.R_Q
    res = (lap - perturbed.rho)[interior]
    assert np.median(res) == pytest.approx(0.06, rel=0.05)
    assert check_steady_state(perturbed) >= 0.06 / king.rho.max()


def test_discrete_solution_has_tiny_residual(king):
    # phi from the discrete flux Laplacian inverse reproduces rho to near
    # machine precision under the same stencil
    r = king.grid.nodes
    rho = np.array(king.rho)
    n = r.size
    lap = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        lap[:, j] = radial_laplacian(r, e)
    # Dirichlet-like closure at the outer edge: pin the last value to the model
    A = lap[:-1, :-1]
    b = rho[:-1] - lap[:-1, -1] * king.phi[-1]
    phi_d = np.linalg.solve(A, b)
    phi_full = np.concatenate([phi_d, [king.phi[-1]]])
    res = np.abs(radial_laplacian(r, phi_full) - rho)
    assert res[:-1].max() / rho.max() <= 1e-6


def test_phase_space_density_support_and_mass(king):
    f = phase_space_density(king, n_r=200, n_u=100)
    grid = f.grid
    phi = king.phi_fn(grid.radial.nodes)
    e = 0.5 * grid.speeds.nodes[None, :] ** 2 + phi[:, None]
    assert np.all(f.values[e >= king.e0] == 0)
    assert f.mass() == pytest.approx(king.M, rel=2e-3)
    assert f.sup() == pytest.approx(
        float(king.profile.evaluate(np.array([king.phi_center]))[0]), rel=1e-3
    )


def test_phase_space_density_truncation_warns(king):
    from vpstab.numerics import make_grids

    small = make_grids(0.5 * king.R_Q, 32, 1.0, 32)
    with pytest.warns(UserWarning):
        phase_space_density(king, grid=small)


def test_phase_space_density_takes_a_grid_or_its_sizes(king):
    from vpstab.numerics import make_grids

    grid = make_grids(king.R_Q, 32, float(king.u_escape(np.array([0.0]))[0]), 32)
    for sizes in ({"n_r": 32}, {"n_u": 32}, {"n_r": 32, "n_u": 32}):
        with pytest.raises(InvalidArgumentError, match="not both"):
            phase_space_density(king, grid=grid, **sizes)
    # a zero size reaches make_1d_grid's check instead of reading as "not given"
    for sizes in ({"n_r": 0}, {"n_u": 0}):
        with pytest.raises(InvalidArgumentError, match="at least 16 cells"):
            phase_space_density(king, **sizes)


def test_energy_monotonicity_inside_support(king):
    f = phase_space_density(king, n_r=100, n_u=50)
    phi = king.phi_fn(f.grid.radial.nodes)
    e = 0.5 * f.grid.speeds.nodes[None, :] ** 2 + phi[:, None]
    inside = e < king.e0 - 1e-6
    order = np.argsort(e[inside])
    vals = f.values[inside][order]
    assert np.all(np.diff(vals) <= 1e-12)


def test_polytrope_scaling_covariance():
    # R_Q ~ depth^((1-n)/2) with n = q + 3/2
    q = 1.0
    n_index = q + 1.5
    depths = np.array([0.5, 1.0, 2.0])
    radii = np.array([polytrope_model(q, d, n_r=80).R_Q for d in depths])
    slope = np.polyfit(np.log(depths), np.log(radii), 1)[0]
    assert slope == pytest.approx((1 - n_index) / 2, rel=0.01)


def test_serialization_roundtrip(tmp_path, king):
    path = tmp_path / "model.json"
    king.save(path)
    loaded = SteadyStateModel.load(path)
    for name in ("M", "e0", "R_Q", "L0", "kinetic", "hamiltonian", "phi_center"):
        assert getattr(loaded, name) == getattr(king, name)  # full float round trip
    assert np.array_equal(loaded.phi, king.phi)
    assert np.array_equal(loaded.rho, king.rho)
    assert np.array_equal(loaded.grid.edges, king.grid.edges)
    assert loaded.profile == king.profile and loaded.meta == king.meta
    r = np.linspace(0.01, 2.5 * king.R_Q, 50)
    assert np.array_equal(loaded.phi_fn(r), king.phi_fn(r))
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["format"] == "vpstab-model"


def test_model_grid_covers_three_fine_support_radii():
    # the grid is sized from the fine profile solve; a coarse-step radius
    # falls short for deep King models
    model = king_model(6.0)
    assert model.grid.x_max >= 3.0 * model.R_Q


def test_deep_king_profile_takes_about_n_steps():
    # the coarse solve that sizes the fine step resolves the central scale
    ode = king_model(9.0).interior.ode
    assert ode.r.size - 1 <= 6100


def test_model_scoped_objects_are_built_once(king):
    assert king.potential() is king.potential()
    assert king.rearrangement is king.rearrangement
    assert king.rearrangement.jac.pot is king.potential()
    assert king.energy_mesh is king.energy_mesh
    # a copy is a new model: it builds its own
    copy = dataclasses.replace(king)
    assert copy.potential() is not king.potential()
    assert copy.rearrangement is not king.rearrangement
    assert copy.energy_mesh is not king.energy_mesh
    assert np.array_equal(copy.rearrangement.jac._a_tab, king.rearrangement.jac._a_tab)


def test_phi_center_is_kept_per_model(king, monkeypatch):
    # phi(0) = e0 - psi(0), bit for bit, evaluated once per model
    assert king.phi_center == king.e0 - float(king.psi_fn(np.array([0.0]))[0])
    monkeypatch.setattr(type(king), "psi_fn", lambda self, r: pytest.fail("psi_fn evaluated again"))
    assert king.phi_center == king.phi_center
    monkeypatch.undo()
    # a copy with another e0 computes its own
    shifted = dataclasses.replace(king, e0=king.e0 - 0.25)
    assert shifted.phi_center == shifted.e0 - float(shifted.psi_fn(np.array([0.0]))[0])
    assert shifted.phi_center != king.phi_center


def test_model_scoped_arrays_are_read_only(king):
    from vpstab.spectral import _SectorMatrices

    jac = king.rearrangement.jac
    mesh = king.energy_mesh
    shared = [
        king.rearrangement.breaks,
        king.rearrangement._v,
        jac._e_tab,
        jac._a_tab,
        jac._ap_tab,
        mesh.e,
        mesh.w_fprime,
        mesh.r_nodes,
        mesh.r_weights,
        mesh.denom,
        mesh.r_turn,
        _SectorMatrices(king, n=200).projector_factor(),
    ]
    for arr in shared:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_reference_hamiltonian_follows_the_grid(king, monkeypatch):
    import vpstab.steady_state as steady_state
    from vpstab.functionals import hamiltonian
    from vpstab.numerics import make_grids

    model = dataclasses.replace(king)
    u_max = float(model.u_escape(np.array([0.0]))[0])
    grids = [make_grids(model.R_Q * 1.05, 60, u_max * 1.15, 40), make_grids(model.R_Q * 1.05, 80, u_max * 1.15, 30)]
    fresh = [hamiltonian(phase_space_density(model, grid=g)).hamiltonian for g in grids]
    assert fresh[0] != fresh[1]
    builds = []
    monkeypatch.setattr(
        steady_state, "phase_space_density", lambda m, grid: builds.append(grid) or phase_space_density(m, grid=grid)
    )
    # alternate the grids: each switch recomputes, a repeat does not
    for k in (0, 0, 1, 0, 1, 1):
        assert model.reference_hamiltonian(grids[k]) == fresh[k]
    assert len(builds) == 4 and all(g is grids[k] for g, k in zip(builds, (0, 1, 0, 1)))
    # an equal grid that is another object is recomputed too
    assert model.reference_hamiltonian(make_grids(model.R_Q * 1.05, 80, u_max * 1.15, 30)) == fresh[1]
    assert len(builds) == 5


@pytest.mark.parametrize("build", [lambda: king_model(3.0), lambda: king_model(6.0), lambda: polytrope_model(1.0)],
                         ids=["king3", "king6", "poly1"])
def test_reloaded_model_is_bit_identical(build, tmp_path):
    # a model file is a recipe: the reloaded model is the rebuilt one, so it
    # evaluates through the same profile ODE, bit for bit
    model = build()
    path = tmp_path / "model.json"
    model.save(path)
    loaded = SteadyStateModel.load(path)
    r = np.linspace(0.0, 1.5 * model.R_Q, 2001)
    for name in ("phi_fn", "dphi_fn", "psi_fn"):
        assert np.array_equal(getattr(loaded, name)(r), getattr(model, name)(r)), name


@pytest.mark.parametrize("entry", ["phi", "rho", "hamiltonian", "e0"])
def test_model_document_that_disagrees_with_its_recipe_is_rejected(king, entry):
    doc = king.to_json()
    if entry in ("hamiltonian", "e0"):
        doc[entry] *= 1 + 1e-9
    else:
        doc[entry][5] *= 1 + 1e-9
    with pytest.raises(InvalidArgumentError, match=entry):
        SteadyStateModel.from_json(doc)


def _version_1(doc, model):
    """doc as a version-1 file held it: with a `params` block repeating e0,
    a polytrope's q and the profile amplitude 1.0."""
    params = {"q": model.meta["q"]} if "q" in model.meta else {}
    return dict(doc, version=1, params={**params, "e0": model.e0, "amplitude": 1.0})


@pytest.mark.parametrize("build", [lambda: king_model(1e-3), lambda: king_model(3.0), lambda: king_model(12.0),
                                   lambda: polytrope_model(1.0), lambda: polytrope_model(3.45)],
                         ids=["king1e-3", "king3", "king12", "poly1", "poly3.45"])
def test_model_document_of_either_version_loads(build):
    # version 2 writes no `params`; a version-1 file's block is not read, so
    # the file loads when its tables agree, and its e0 is still checked
    model = build()
    doc = json.loads(json.dumps(model.to_json()))
    assert doc["version"] == 2 and "params" not in doc
    for stored in (doc, _version_1(doc, model)):
        assert SteadyStateModel.from_json(stored).to_json() == doc
    tampered = _version_1(doc, model)
    tampered["e0"] *= 1 + 1e-9
    with pytest.raises(InvalidArgumentError, match="e0"):
        SteadyStateModel.from_json(tampered)


def test_coercivity_constant_is_homology_invariant():
    # polytropes of one index are rescalings of each other (Chandrasekhar
    # 1939, ch. IV), so c0 cannot depend on the depth: an absolute-unit
    # constant in the spectral code would break this
    c0 = [coercivity_constant(polytrope_model(1.0, depth, n_r=200)) for depth in (0.5, 2.0)]
    assert c0[0] == pytest.approx(c0[1], rel=1e-11, abs=0)


@pytest.mark.parametrize("drop", ["edges", "phi0", "meta"])
def test_model_document_without_an_entry_is_rejected(king, drop):
    doc = king.to_json()
    del doc[drop]
    with pytest.raises(InvalidArgumentError, match=drop):
        SteadyStateModel.from_json(doc)


def _where_phi(model, r):
    r = np.asarray(r, dtype=float)
    inside = r < model.R_Q
    outside_val = -model.M / (4.0 * np.pi * np.maximum(r, model.R_Q))
    inner_val = model.e0 - model.interior.psi(np.clip(r, 0.0, model.R_Q))
    return np.where(inside, inner_val, outside_val)


def _where_dphi(model, r):
    r = np.asarray(r, dtype=float)
    inside = r < model.R_Q
    outside_val = model.M / (4.0 * np.pi * np.maximum(r, model.R_Q) ** 2)
    inner_val = -model.interior.dpsi(np.clip(r, 0.0, model.R_Q))
    return np.where(inside, inner_val, outside_val)


def test_model_potential_matches_the_where_form_bit_for_bit(king, poly, radius_kinds, same_bits):
    # phi_fn and dphi_fn evaluate each side only where it applies; the
    # np.where form evaluates both everywhere. Same bits and same shape for
    # every kind of input, a float and a 0-d array (shape (1,)) among them
    for model in (king, poly):
        for kind, r in radius_kinds(model.R_Q, model.grid.x_max).items():
            assert same_bits(model.phi_fn(r), _where_phi(model, r)), kind
            assert same_bits(model.dphi_fn(r), _where_dphi(model, r)), kind


def _non_numeric_entry(doc):
    doc["L0"] = "not a number"
    return doc


@pytest.mark.parametrize(
    "call",
    [
        lambda king: build_king(3.0, make_1d_grid(0.1 * king.R_Q, 50)),
        lambda king: SteadyStateModel.from_json([1, 2]),
        lambda king: SteadyStateModel.from_json(dict(king.to_json(), format="another-format")),
        lambda king: SteadyStateModel.from_json(_non_numeric_entry(king.to_json())),
        lambda king: recipe_model("plummer", {}, support_grid(100)),
    ],
    ids=["grid-ends-before-support", "document-not-an-object", "document-not-a-model", "non-numeric-entry",
         "unknown-kind"],
)
def test_model_input_guards_raise(king, call):
    with pytest.raises(InvalidArgumentError):
        call(king)

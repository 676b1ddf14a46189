import numpy as np
import pytest

from vpstab.steady_state import king_model, polytrope_model


@pytest.fixture(scope="session")
def king():
    return king_model(3.0, n_r=400)


@pytest.fixture(scope="session")
def poly():
    return polytrope_model(1.0, 1.0, n_r=400)


@pytest.fixture(scope="session")
def king_pot(king):
    return king.potential()


@pytest.fixture(scope="session")
def king_jac(king):
    return king.rearrangement.jac


@pytest.fixture(scope="session")
def king_phase(king):
    from vpstab.steady_state import phase_space_density

    return phase_space_density(king, n_r=200, n_u=100)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def dirichlet_solves(monkeypatch):
    """A list that gains (n, k) for each Dirichlet-normalized sector solve
    run while the test runs."""
    from vpstab.spectral import _SectorMatrices

    solves = []
    dirichlet_eigenvalues = _SectorMatrices.dirichlet_eigenvalues

    def counted(self, k, n_eigs):
        solves.append((self.n, k))
        return dirichlet_eigenvalues(self, k, n_eigs)

    monkeypatch.setattr(_SectorMatrices, "dirichlet_eigenvalues", counted)
    return solves


@pytest.fixture()
def shift_invert_applications(monkeypatch):
    """A list that gains, for each shift-invert Lanczos solve run while the
    test runs, the number of times ARPACK applied its operator OPinv."""
    from scipy.sparse.linalg import LinearOperator

    import vpstab.spectral as spectral

    applications = []
    eigsh = spectral.eigsh

    def counted(a, *args, OPinv=None, **kwargs):
        if OPinv is None:  # not shift-invert mode
            return eigsh(a, *args, **kwargs)
        applications.append(0)

        def matvec(x):
            applications[-1] += 1
            return OPinv.matvec(x)

        return eigsh(a, *args, OPinv=LinearOperator(OPinv.shape, matvec=matvec, dtype=OPinv.dtype), **kwargs)

    monkeypatch.setattr(spectral, "eigsh", counted)
    return applications


def _plain_value(profile, t):
    """A rearrangement profile's value by the plain form: a search per point
    for a step profile; for Q*, scipy's PchipInterpolator through its table
    (breaks, _v) at every point, clipped to [0, L0] and to nonnegative
    values, and 0 from L0 on."""
    from scipy.interpolate import PchipInterpolator

    from vpstab.rearrangement import MonotoneRearrangement

    if isinstance(profile, MonotoneRearrangement):
        idx = np.searchsorted(profile.breaks, t, side="right")
        return np.concatenate([profile.step_values, [0.0]])[idx]
    interp = PchipInterpolator(profile.breaks, profile._v)
    return np.where(t < profile.L0, np.clip(interp(np.clip(t, 0.0, profile.L0)), 0.0, None), 0.0)


def _plain_l1_distance(p, q):
    """l1_distance with the union of the breaks taken by np.unique."""
    t = np.unique(np.concatenate([[0.0], p.breaks, q.breaks]))
    mids = 0.5 * (t[:-1] + t[1:])
    return float((np.diff(t) * np.abs(_plain_value(p, mids) - _plain_value(q, mids))).sum())


def _plain_potential_distance(pot1, pot2, z=(0.0, 0.0, 0.0)):
    """potential_distance at z = 0 with both potentials sampled afresh."""
    from vpstab.numerics import make_1d_grid
    from vpstab.poisson import FOUR_PI

    assert not np.any(z)
    r_max = max(pot1.r_max, pot2.r_max)
    r = np.linspace(0.0, r_max, 8192)
    dist_inf = float(np.max(np.abs(pot1.phi_fn(r) - pot2.phi_fn(r))))
    grid = make_1d_grid(r_max, max(pot1.grid.n, pot2.grid.n, 512))
    d = pot1.dphi_fn(grid.nodes) - pot2.dphi_fn(grid.nodes)
    dist2 = FOUR_PI * float(np.dot(d**2, grid.sq_moments)) + (pot1.M - pot2.M) ** 2 / (FOUR_PI * r_max)
    return dist_inf, float(np.sqrt(dist2))


def _plain_branchwise(x, inside, inner, outer):
    """np.where(inside, inner(x), outer(x)). A law read off its own side may
    divide by zero there (the monopole law at r = 0), and np.where drops
    that value, so the division is not reported."""
    with np.errstate(divide="ignore"):
        return np.where(inside, inner(x), outer(x))


@pytest.fixture()
def plain_forms():
    """The plain forms that the potentials, potential_distance and
    l1_distance must match bit for bit: `branchwise` evaluating both
    formulas at every point and picking with np.where, the distance
    sampling both potentials on every call, and L1 from np.unique with a
    search per midpoint."""
    from types import SimpleNamespace

    return SimpleNamespace(
        branchwise=_plain_branchwise,
        potential_distance=_plain_potential_distance,
        l1_distance=_plain_l1_distance,
    )


def _pchip_potential(grid, rho):
    """solve_poisson_radial(grid, rho) in its spline form built with scipy:
    the PchipInterpolator of rho through (0, rho0) and the nodes, rho0 the
    least-squares fit of a + b r^2 to the first three nodes by LAPACK, and the
    PPoly antiderivatives of the interpolant times s^2 and times s, each
    multiplied out exactly per piece, read apart by two evaluations. (phi_fn,
    dphi_fn, M, min_phi)."""
    from scipy import special
    from scipy.interpolate import PchipInterpolator, PPoly

    from vpstab.poisson import FOUR_PI

    def weighted_antiderivative(pp, power):
        k, m = pp.c.shape
        out = np.zeros((k + power, m))
        for j in range(power + 1):
            # (x_i + t)^power: its t^j term shifts the piece down j degrees
            out[power - j : power - j + k] += pp.c * (special.comb(power, j) * pp.x[:-1] ** (power - j))
        return PPoly(out, pp.x).antiderivative()

    rho = np.clip(np.asarray(rho, dtype=float), 0.0, None)
    fit = np.vstack([np.ones(3), grid.nodes[:3] ** 2]).T
    rho0 = np.linalg.lstsq(fit, rho[:3], rcond=None)[0][0]
    dens = PchipInterpolator(np.concatenate([[0.0], grid.nodes]), np.concatenate([[rho0], rho]))
    p2, p1 = weighted_antiderivative(dens, 2), weighted_antiderivative(dens, 1)
    x_max, tiny = grid.x_max, 1e-12 * grid.x_max
    M, tot1 = FOUR_PI * float(p2(x_max)), float(p1(x_max))

    def phi_fn(r):
        r = np.asarray(r, dtype=float)
        rc = np.clip(r, 0.0, x_max)
        inner = -p2(rc) / np.clip(r, 1e-300, None) - (tot1 - p1(rc))
        return np.where(r < x_max, inner, -M / (FOUR_PI * np.clip(r, 1e-300, None)))

    def dphi_fn(r):
        r = np.asarray(r, dtype=float)
        rs = np.clip(r, tiny, None)
        inner = np.where(r < tiny, 0.0, p2(np.clip(rs, 0.0, x_max)) / rs**2)
        return np.where(r < x_max, inner, M / (FOUR_PI * rs**2))

    return phi_fn, dphi_fn, M, -tot1


@pytest.fixture()
def pchip_potential():
    """The spline potential that solve_poisson_radial must match to
    rounding: `_pchip_potential`."""
    return _pchip_potential


@pytest.fixture(scope="session")
def pchip_branch_densities():
    """(grid, rho) by name: densities on a uniform 64-cell grid of [0, 1]
    whose PCHIP takes each slope branch: a flat run (zero secants), secants
    of both signs, and a right end whose three-point estimate is clamped to
    0 (its sign differs from the end secant's) or to 3x the end secant (the
    last two secants differ in sign and the estimate exceeds that)."""
    from vpstab.numerics import make_1d_grid

    grid = make_1d_grid(1.0, 64)
    smooth = np.exp(-4.0 * grid.nodes**2)
    clamp0, clamp3 = smooth.copy(), smooth.copy()
    clamp0[-3:] = [0.0, 1.0, 1.01]
    clamp3[-3:] = [1.0, 0.0, 0.1]
    rhos = {
        "flat run": np.minimum(smooth, 0.7),
        "sign change": 1.2 + np.sin(9.0 * grid.nodes),
        "end clamp to 0": clamp0,
        "end clamp to 3 m0": clamp3,
    }
    # the end estimate (3 m0 - m1) / 2 on the uniform grid, before its clamp
    m0, m1 = (np.diff(clamp0[-3:]) / grid.weights[-1])[::-1]
    assert np.sign((3 * m0 - m1) / 2) != np.sign(m0)
    m0, m1 = (np.diff(clamp3[-3:]) / grid.weights[-1])[::-1]
    assert np.sign(m0) != np.sign(m1) and abs((3 * m0 - m1) / 2) > 3 * abs(m0)
    return {name: (grid, rho) for name, rho in rhos.items()}


@pytest.fixture()
def radius_kinds():
    """Radii of each kind a potential is evaluated on, about an edge R (the
    support radius or the grid's extent) and a second radius x_max: a
    float, 0-d arrays, 1-d and 2-d arrays, nan, exact edges and their
    neighbours, and arrays wholly inside or outside R."""

    def kinds(R, x_max):
        line = np.linspace(-0.1 * R, 4.0 * max(R, x_max), 3001)
        return {
            "float inside": 0.5 * R,
            "float outside": 2.0 * R,
            "float zero": 0.0,
            "0-d inside": np.array(0.3 * R),
            "0-d outside": np.array(3.3 * R),
            "0-d at R": np.array(R),
            "1-d": line,
            "2-d": line[:3000].reshape(1000, 3),
            "column": line[:2048, None],
            "fan": np.linspace(0.0, 1.5 * R, 2048)[:, None] * np.linspace(0.5, 1.5, 257)[None, :],
            "nan": np.array([np.nan, 0.1 * R, 5.0 * R, np.nan]),
            "at R": np.array([R, np.nextafter(R, 0.0), np.nextafter(R, np.inf)]),
            "at x_max": np.array([x_max, np.nextafter(x_max, 0.0), np.nextafter(x_max, np.inf)]),
            "zeros": np.array([0.0, -0.0, 1e-300, -1.0]),
            "all inside": np.linspace(0.0, 0.999 * R, 500),
            "all outside": np.linspace(R, 10.0 * R, 500),
            "empty": np.zeros(0),
        }

    return kinds


@pytest.fixture()
def serial_blas():
    """numerics.serial_blas, for a test that compares a result at the
    default BLAS thread count with the same result on one thread. Skips the
    test when every bundled OpenBLAS already runs one thread (or none is
    bundled), since the two runs would then be the same run."""
    from vpstab import numerics

    if max((get() for get, _ in numerics._openblas_thread_controls()), default=1) < 2:
        pytest.skip("OpenBLAS runs one thread here: serial_blas() changes nothing to compare against")
    return numerics.serial_blas


@pytest.fixture()
def same_bits():
    """A test of whether two results have the same shape and the same bytes."""
    return lambda a, b: np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()

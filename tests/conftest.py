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
def king_jac(king_pot):
    from vpstab.rearrangement import jacobian_a

    return jacobian_a(king_pot)


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
    shift_invert = _SectorMatrices._shift_invert

    def counted(self, k, n_eigs, sigma, dirichlet):
        if dirichlet:
            solves.append((self.n, k))
        return shift_invert(self, k, n_eigs, sigma, dirichlet)

    monkeypatch.setattr(_SectorMatrices, "_shift_invert", counted)
    return solves

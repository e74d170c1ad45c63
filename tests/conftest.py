import numpy as np
import pytest

from mamimo.geometry import DEFAULT_HEIGHT_MM, SPACING_MM, build_topology
from mamimo.model import ArrayGeometry, RadioConfig


def small_ura() -> ArrayGeometry:
    """A 2x2 panel laid out like the 8x8 URA: 4 antennas, row-major from the bottom."""
    offsets = np.array([-0.5, 0.5]) * SPACING_MM
    return ArrayGeometry([[x, 0.0, DEFAULT_HEIGHT_MM + z] for z in offsets for x in offsets])


@pytest.fixture(scope="session")
def radio():
    return RadioConfig()


@pytest.fixture(scope="session")
def fast_radio():
    # same interleaving structure, only 4 pilots per user: keeps tests quick
    return RadioConfig(total_subcarriers=48, pilot_count=4, interleave_factor=12)


@pytest.fixture(scope="session")
def ura():
    return build_topology("ura")


@pytest.fixture(scope="session")
def ura_small():
    return small_ura()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_csi_matrix(rng, m, f):
    """Random complex matrix with float32-representable entries."""
    return (rng.standard_normal((m, f)).astype(np.float32).astype(np.float64)
            + 1j * rng.standard_normal((m, f)).astype(np.float32).astype(np.float64))

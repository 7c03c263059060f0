import tracemalloc

import numpy as np
import pytest

from spdc_studio import fixtures
from spdc_studio.optics import (CrystalSpec, FrequencyGrid, PumpSpec,
                                compute_jsa)


@pytest.fixture(scope="session")
def default_pump():
    return PumpSpec()


@pytest.fixture(scope="session")
def default_crystal():
    return CrystalSpec()


@pytest.fixture(scope="session")
def default_jsa(default_pump, default_crystal):
    grid = FrequencyGrid.wavelength_window(1500e-9, 1620e-9, 512)
    return compute_jsa(grid, default_crystal, default_pump)


@pytest.fixture(scope="session")
def measured_jsi():
    return fixtures.load_measured_jsi()


@pytest.fixture(scope="session")
def reference_state():
    return fixtures.load_reference_state()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


GRID_BYTES = 512 * 512 * 8  # one 512^2 float64 grid


@pytest.fixture()
def peak_grids():
    """The peak memory a call allocates, in 512^2 float64 grids, as
    tracemalloc sees it (numpy reports its buffers to it)."""
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / GRID_BYTES
        finally:
            tracemalloc.stop()
    return peak

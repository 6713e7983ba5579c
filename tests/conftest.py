import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import settings

from msflow.grid import build_two_scale_mesh
from msflow.model import FluidProps, PermeabilityField

# property tests draw the same examples on every run and never time out
settings.register_profile("msflow", deadline=None, derandomize=True, database=None)
settings.load_profile("msflow")


def _reaped():
    """Every child of this process has been joined and reaped."""
    if multiprocessing.active_children():
        return False
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(autouse=True)
def no_child_processes():
    """Fails every test that leaves a child process behind; a test that asks
    for it gets the check itself, to run between its steps."""
    yield _reaped
    assert _reaped(), "a child process outlived the test"


@pytest.fixture(scope="session")
def mesh8():
    """8^3 fine grid, 2^3 coarse grid (r=4), 27 neighborhoods."""
    return build_two_scale_mesh(8, 8, 8, r=4)


@pytest.fixture(scope="session")
def mesh4():
    """Smallest usable two-scale mesh: 4^3 fine, 2^3 coarse (r=2)."""
    return build_two_scale_mesh(4, 4, 4, r=2)


@pytest.fixture(scope="session")
def mesh6():
    """Smallest mesh with v2 snapshots: 6^3 fine, 3^3 coarse (r=2)."""
    return build_two_scale_mesh(6, 6, 6, r=2)


@pytest.fixture(scope="session")
def fluid():
    return FluidProps()


@pytest.fixture
def uniform_perm8(mesh8):
    return PermeabilityField(np.ones(mesh8.fine.n_cells))


@pytest.fixture
def uniform_perm4(mesh4):
    return PermeabilityField(np.ones(mesh4.fine.n_cells))

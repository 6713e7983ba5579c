"""Property tests of the Q1 connectivity and the cell-block assembler on
small random grids, weights and Dirichlet node sets."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from msflow.fem import (
    assemble_cells,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    element_matrices,
    newton_jacobian,
    newton_residual,
)
from msflow.grid import FineGrid, build_two_scale_mesh
from msflow.model import BoundarySpec, FluidProps, PermeabilityField

cells_per_axis = st.integers(2, 4)


@st.composite
def grid_cases(draw):
    """(grid, rng, Dirichlet nodes): 2-4 cells per axis, a random subset of
    the nodes (possibly empty) as the Dirichlet set."""
    fine = FineGrid(draw(cells_per_axis), draw(cells_per_axis), draw(cells_per_axis),
                    draw(st.sampled_from([0.5, 1.0, 3.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_dirichlet = draw(st.integers(0, fine.n_nodes // 3))
    dirichlet = rng.choice(fine.n_nodes, n_dirichlet, replace=False)
    return fine, rng, dirichlet


def dense_cell_loop(fine, blocks, dirichlet=()):
    A = np.zeros((fine.n_nodes, fine.n_nodes))
    for nodes, block in zip(fine.cell_nodes(), blocks):
        A[np.ix_(nodes, nodes)] += block
    A[dirichlet, :] = 0.0
    A[:, dirichlet] = 0.0
    A[dirichlet, dirichlet] = 1.0
    return A


@settings(max_examples=15)
@given(grid_cases())
def test_assembler_matches_dense_cell_loop(case):
    fine, rng, dirichlet = case
    blocks = rng.standard_normal((fine.n_cells, 8, 8))
    A = assemble_cells(fine, blocks, dirichlet).toarray()
    oracle = dense_cell_loop(fine, blocks, dirichlet)
    assert np.abs(A - oracle).max() <= 1e-13 * np.abs(oracle).max()

    w = rng.uniform(0.1, 10.0, fine.n_cells)
    Ke, Me = element_matrices(fine.h)
    for assemble, elem in ((assemble_weighted_stiffness, Ke), (assemble_weighted_mass, Me)):
        oracle = dense_cell_loop(fine, w[:, None, None] * elem)
        A = assemble(fine, w).toarray()
        assert np.abs(A - oracle).max() <= 1e-13 * np.abs(oracle).max()


@settings(max_examples=15)
@given(grid_cases())
def test_assembler_structure_is_coo_to_csr_of_kept_entries(case):
    fine, rng, dirichlet = case
    cn = fine.cell_nodes()
    rows = np.repeat(cn, 8, axis=1).ravel()
    cols = np.tile(cn, (1, 8)).ravel()
    dmask = np.zeros(fine.n_nodes, dtype=bool)
    dmask[dirichlet] = True
    keep = ~(dmask[rows] | dmask[cols])
    coo = sp.coo_matrix(
        (np.ones(int(keep.sum()) + dirichlet.size),
         (np.concatenate([rows[keep], dirichlet]), np.concatenate([cols[keep], dirichlet]))),
        shape=(fine.n_nodes, fine.n_nodes),
    ).tocsr()
    A = assemble_cells(fine, rng.standard_normal((fine.n_cells, 8, 8)), dirichlet)
    assert np.array_equal(A.indptr, coo.indptr)
    assert np.array_equal(A.indices, coo.indices)


@settings(max_examples=10)
@given(grid_cases())
def test_jacobian_matches_central_differences(case):
    fine, rng, dirichlet = case
    fluid = FluidProps()
    perm = PermeabilityField(rng.uniform(1.0, 1e3, fine.n_cells))
    boundary = BoundarySpec(
        dirichlet_nodes=dirichlet,
        dirichlet_values=fluid.p_ref * (1.0 + 0.01 * rng.standard_normal(dirichlet.size)),
    )
    n = fine.n_nodes
    p = fluid.p_ref * (1.0 + 0.01 * rng.standard_normal(n))
    p_prev = np.full(n, fluid.p_ref)
    load = rng.standard_normal(n)
    dt = 2.5e-5
    J = newton_jacobian(p, fluid, perm, dt, fine, boundary).toarray()
    delta = 1e-6 * np.abs(p).max()
    free = np.setdiff1d(np.arange(n), dirichlet)  # Dirichlet columns are eliminated
    for i in rng.choice(free, min(6, free.size), replace=False):
        e = np.zeros(n)
        e[i] = delta
        fd = (
            newton_residual(p + e, p_prev, fluid, perm, dt, load, fine, boundary)
            - newton_residual(p - e, p_prev, fluid, perm, dt, load, fine, boundary)
        ) / (2 * delta)
        assert np.abs(fd - J[:, i]).max() <= 1e-6 * max(1.0, np.abs(J[:, i]).max())


@settings(max_examples=10)
@given(st.integers(2, 3), st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))
def test_box_connectivity_is_local_numbering(r, Nx, Ny, Nz):
    mesh = build_two_scale_mesh(r * Nx, r * Ny, r * Nz, r)
    fine = mesh.fine
    for nb in mesh.neighborhoods:
        glob2loc = np.full(fine.n_nodes, -1)
        glob2loc[nb.nodes] = np.arange(nb.n_local)
        assert np.array_equal(nb.box.cell_nodes(), glob2loc[fine.cell_nodes()[nb.cells]])
        # the local mass assembled on the box integrates to the patch volume
        M = assemble_weighted_mass(nb.box, np.ones(nb.cells.size))
        assert M.sum() == pytest.approx(nb.cells.size * fine.h**3, rel=1e-12)


@settings(max_examples=5)
@given(cells_per_axis, cells_per_axis, cells_per_axis)
def test_memoized_connectivity_is_read_only(nx, ny, nz):
    fine = FineGrid(nx, ny, nz, 1.0)
    cn = fine.cell_nodes()
    assert FineGrid(nx, ny, nz, 1.0).cell_nodes() is cn
    with pytest.raises(ValueError):
        cn[0, 0] = 1

"""Property tests on small random grids, weights, states and Dirichlet node
sets: the Q1 connectivity, the cell-block assembler and its CSR pattern, the
Jacobian, its matrix-free operator, its Galerkin projection on a basis
matrix, the fine solver's kept factorization, mass balance, the partition of
unity, the driver-independent offline span, the nested dissection node
order, the v2 snapshots and their Schur complement pencil, and the coarse
solver's identity-projection equivalence and determinism."""

import logging
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dgemm

from msflow import fem, offline, online
from msflow.coarse import solve_gmsfem
from msflow.errors import NewtonConvergenceError, SingularMatrixError
from msflow.fem import (
    NewtonConfig,
    _Galerkin,
    assemble_cells,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    cell_average,
    element_matrices,
    newton_jacobian,
    newton_residual,
    solve_fine,
)
from msflow.grid import FineGrid, build_two_scale_mesh
from msflow.model import (
    BoundarySpec,
    FluidProps,
    PermeabilityField,
    ProblemSpec,
    SourceSpec,
    TimeGrid,
    build_source_vector,
    density,
    generate_channel_field,
    make_problem,
)
from msflow.offline import (
    OfflineSpace,
    PartitionOfUnity,
    ProjectionMatrix,
    _cluster_starts,
    _column_block,
    build_offline_space,
    build_snapshot_v1,
    build_snapshot_v2,
    compute_kappa_tilde,
    select_offline_basis,
    solve_local_spectral,
)
from msflow.online import UpdateSchedule

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


def sorted_entry_pattern(fine, dirichlet_key):
    """The CSR pattern by sorting every kept cell entry's row * n + col key
    (with the Dirichlet diagonal added) and numbering the distinct keys."""
    n = fine.n_nodes
    cn = fine.cell_nodes()
    dirichlet = np.frombuffer(dirichlet_key, dtype=np.int64)
    dmask = np.zeros(n, dtype=bool)
    dmask[dirichlet] = True
    dcell = dmask[cn]
    keep = ~(dcell[:, :, None] | dcell[:, None, :]).ravel()
    n_keep = int(keep.sum())
    entry = (cn[:, :, None] * n + cn[:, None, :]).ravel()
    keys, slot = np.unique(
        np.concatenate([entry[keep], dirichlet * (n + 1)]), return_inverse=True
    )
    scatter = np.full(entry.size, keys.size, dtype=np.int32)
    scatter[keep] = slot[:n_keep]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    indices = (keys % n).astype(np.int32)
    diag = slot[n_keep:].astype(np.int32)
    return indptr, indices, scatter, diag


def assert_pattern_matches_sorted_entries(fine, dirichlet):
    key = np.asarray(dirichlet, dtype=np.int64).tobytes()
    got = fem._csr_pattern.__wrapped__(fine, key)
    for a, b in zip(got, sorted_entry_pattern(fine, key)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
        assert not a.flags.writeable


@settings(max_examples=25)
@given(
    st.integers(2, 6), st.integers(2, 6), st.integers(2, 6),
    st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
)
def test_stencil_pattern_matches_sorted_cell_entries(nx, ny, nz, seed, share):
    """The 27-point stencil pattern equals the sort of all cell entries, for
    random Dirichlet lists, unsorted and with repeated nodes."""
    fine = FineGrid(nx, ny, nz, 1.0)
    rng = np.random.default_rng(seed)
    size = int(share * fine.n_nodes)
    assert_pattern_matches_sorted_entries(fine, rng.choice(fine.n_nodes, size))


@pytest.mark.parametrize("case", ["empty", "x=0 face", "corner", "every node", "unsorted"])
@pytest.mark.parametrize("shape", [(5, 7, 6), (8, 8, 4)])
def test_stencil_pattern_fixed_dirichlet_sets(case, shape):
    fine = FineGrid(*shape, 1.0)
    i, _, _ = fine.node_ijk(np.arange(fine.n_nodes))
    dirichlet = {
        "empty": [],
        "x=0 face": np.flatnonzero(i == 0),
        "corner": [fine.n_nodes - 1],
        "every node": np.arange(fine.n_nodes),
        "unsorted": [17, 3, fine.n_nodes - 1, 3, 0, 17, 40],
    }[case]
    assert_pattern_matches_sorted_entries(fine, dirichlet)


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


def dissection_oracle(grid):
    """Nested dissection by plain recursion over node boxes [lo, hi)."""
    order = []

    def visit(lo, hi):
        n = [b - a for a, b in zip(lo, hi)]
        if min(n) == 0:
            return
        a = int(np.argmax(n))
        if n[a] == 1:
            order.append(grid.node_index(*lo))
            return
        mid = lo[a] + (n[a] - 1) // 2

        def at(t, v):
            return t[:a] + (v,) + t[a + 1:]

        visit(lo, at(hi, mid))
        visit(at(lo, mid + 1), hi)
        visit(at(lo, mid), at(hi, mid + 1))

    visit((0, 0, 0), (grid.nx + 1, grid.ny + 1, grid.nz + 1))
    return np.array(order)


@settings(max_examples=10)
@given(st.sampled_from([2, 3]), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_dissection_is_a_memoized_permutation(r, Nx, Ny, Nz):
    """On a fine grid and the box grid of every neighborhood shape, the
    dissection is a read-only permutation of the nodes, equal to the plain
    recursion, and one object per grid."""
    mesh = build_two_scale_mesh(r * Nx, r * Ny, r * Nz, r)
    for grid in {mesh.fine} | {nb.box for nb in mesh.neighborhoods}:
        order = grid.dissection()
        assert np.array_equal(np.sort(order), np.arange(grid.n_nodes))
        assert np.array_equal(order, dissection_oracle(grid))
        assert FineGrid(grid.nx, grid.ny, grid.nz, grid.h).dissection() is order
        with pytest.raises(ValueError):
            order[0] = 1


@settings(max_examples=15)
@given(grid_cases())
def test_jacobian_operator_matches_the_assembled_jacobian(case):
    """The fine Jacobian operator's product equals the assembled Jacobian's,
    Dirichlet rows and columns included, for a random vector and for ones,
    to 1e-13 relative to |J| |x|, the scale of either product's rounding
    (the flux terms of J 1 cancel, since the rows of Ke sum to zero); its
    assembly is `newton_jacobian`, entry for entry."""
    fine, rng, dirichlet = case
    problem = random_problem(fine, rng, dirichlet, load=balanced_wells(fine, rng, 1e8))
    args = (problem.p0, problem.fluid, problem.perm, problem.time.dt, fine,
            problem.boundary)
    J = newton_jacobian(*args)
    op = fem._Jacobian(*args)
    for x in (rng.standard_normal(fine.n_nodes), np.ones(fine.n_nodes)):
        assert np.abs(op @ x - J @ x).max() <= 1e-13 * (abs(J) @ np.abs(x)).max()
    A = op.tocsc()
    assert A.format == "csc" and np.array_equal(A.toarray(), J.toarray())


@pytest.mark.parametrize("preset", ["neumann-wells", "mixed-bc"])
@settings(max_examples=10)
@given(case=grid_cases())
def test_dissection_ordered_solve_matches_minimum_degree(preset, case):
    """A kept LU factored in the dissection order solves a fine Jacobian
    (the mixed-bc one with its Dirichlet rows) as a direct solve on the
    minimum-degree ordering does, to 1e-12."""
    fine, rng, _ = case
    perm = PermeabilityField(rng.uniform(1.0, 1e3, fine.n_cells))
    problem = make_problem(fine, FluidProps(), perm, TimeGrid(dt=2.5e-5, n_steps=1),
                           preset, well_rate=1e8)
    p = problem.p0 * (1.0 + 1e-3 * rng.standard_normal(fine.n_nodes))
    J = newton_jacobian(p, problem.fluid, perm, problem.time.dt, fine, problem.boundary)
    b = rng.standard_normal(fine.n_nodes)
    x = fem._KeptLU(order=fine.dissection()).solve(J, b)
    ref = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@st.composite
def two_scale_cases(draw, max_cells=4, ratios=(2, 3)):
    """(mesh, rng, Dirichlet nodes): 2-max_cells coarse cells per axis of r^3
    fine cells each, a random subset of the nodes (possibly empty) as the
    Dirichlet set."""
    r = draw(st.sampled_from(ratios))
    n = [r * draw(st.integers(2, max_cells)) for _ in range(3)]
    mesh = build_two_scale_mesh(*n, r)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_dirichlet = draw(st.integers(0, mesh.fine.n_nodes // 4))
    dirichlet = rng.choice(mesh.fine.n_nodes, n_dirichlet, replace=False)
    return mesh, rng, dirichlet


def random_problem(fine, rng, dirichlet, n_steps=2, load=None):
    """Random permeability, Dirichlet values and initial state; a random load
    unless one is given."""
    fluid = FluidProps()
    n = fine.n_nodes
    return ProblemSpec(
        fine=fine,
        fluid=fluid,
        perm=PermeabilityField(rng.uniform(1.0, 1e3, fine.n_cells)),
        boundary=BoundarySpec(
            dirichlet_nodes=dirichlet,
            dirichlet_values=fluid.p_ref * (1.0 + 1e-3 * rng.standard_normal(dirichlet.size)),
        ),
        load=1e3 * rng.standard_normal(n) if load is None else load,
        time=TimeGrid(dt=2.5e-5, n_steps=n_steps),
        p0=fluid.p_ref * (1.0 + 1e-3 * rng.standard_normal(n)),
    )


def patch_column(mesh, rng, i, density=1.0):
    """Random values on a random part of patch i, as (fine rows, values)."""
    nb = mesh.neighborhoods[i]
    on = nb.nodes[rng.random(nb.n_local) < density]
    return on, rng.standard_normal(on.size)


def basis_matrix(kind, mesh, rng, dirichlet, problem):
    n_nb = mesh.n_neighborhoods
    if kind == "offline+online":
        space = build_offline_space(
            mesh, problem.perm, problem.fluid, problem.p0, 2, dirichlet_nodes=dirichlet
        )
        chosen = np.sort(rng.choice(n_nb, rng.integers(1, n_nb + 1), replace=False))
        space.projection.set_online(
            [(int(i), *patch_column(mesh, rng, i)) for i in chosen]
        )
        return space.projection.matrix()
    if kind == "identity":
        return sp.identity(mesh.fine.n_nodes, format="csr")
    cols = [patch_column(mesh, rng, i, density=0.5) for i in rng.integers(0, n_nb, 2 * n_nb)]
    if kind == "zero column":
        cols.insert(int(rng.integers(0, len(cols) + 1)), (np.empty(0, int), np.empty(0)))
    return _column_block(mesh.fine.n_nodes, cols)


@pytest.mark.parametrize("kind", ["offline+online", "identity", "sparse", "zero column"])
@settings(max_examples=8)
@given(case=two_scale_cases())
def test_projected_jacobian_matches_triple_product(kind, case):
    mesh, rng, dirichlet = case
    if kind == "identity":  # keep the dense oracle small
        mesh = build_two_scale_mesh(*(2 * c for c in (mesh.coarse.Nx, mesh.coarse.Ny,
                                                      mesh.coarse.Nz)), 2)
        dirichlet = dirichlet[dirichlet < mesh.fine.n_nodes]
    problem = random_problem(mesh.fine, rng, dirichlet)
    R = basis_matrix(kind, mesh, rng, dirichlet, problem)
    J = newton_jacobian(problem.p0, problem.fluid, problem.perm, problem.time.dt,
                        mesh.fine, problem.boundary)
    Rd = R.toarray()
    oracle = Rd.T @ J.toarray() @ Rd
    tol = 1e-12 * np.abs(oracle).max()

    Jc = _Galerkin(R, J)
    A = Jc.tocsc()
    assert A.format == "csc"
    assert np.abs(A.toarray() - oracle).max() <= tol
    # the matrix-free product, Dirichlet rows included, against R^T J R x
    for x in (rng.standard_normal(R.shape[1]), np.ones(R.shape[1])):
        y = oracle @ x
        assert np.abs(Jc @ x - y).max() <= 1e-12 * (np.abs(oracle) @ np.abs(x)).max()


def identity_space(mesh):
    n = mesh.fine.n_nodes
    pm = ProjectionMatrix(sp.identity(n, format="csr"), [0] * n)
    return OfflineSpace(mesh=mesh, projection=pm,
                        lambda_next=np.ones(mesh.n_neighborhoods))


@settings(max_examples=8)
@given(two_scale_cases(max_cells=3, ratios=(2,)))
def test_identity_projection_matches_fine_solve(case):
    mesh, rng, dirichlet = case
    problem = random_problem(mesh.fine, rng, dirichlet)
    ref = np.asarray(solve_fine(problem).states)
    states = np.asarray(solve_gmsfem(problem, identity_space(mesh)).states)
    assert np.abs(states - ref).max() <= 1e-10 * np.abs(ref).max()


@settings(max_examples=5)
@given(two_scale_cases(max_cells=3))
def test_coarse_solve_is_deterministic(case):
    """Two coarse solves on one shared space, with online enrichment (two
    rounds, so the projected corrector runs too), give identical states."""
    mesh, rng, dirichlet = case
    problem = random_problem(mesh.fine, rng, dirichlet, n_steps=3)
    space = build_offline_space(
        mesh, problem.perm, problem.fluid, problem.p0, 2, dirichlet_nodes=dirichlet
    )
    schedule = UpdateSchedule(2, (1, 3))
    first = solve_gmsfem(problem, space, schedule)
    space.projection.set_online([])
    second = solve_gmsfem(problem, space, schedule)
    assert np.array_equal(np.asarray(first.states), np.asarray(second.states))
    assert first.newton_iters == second.newton_iters


def balanced_wells(fine, rng, rate):
    """The load of 2-4 single-cell wells at random cells, with random rates
    of magnitude up to `rate` that sum to zero."""
    cells = rng.choice(fine.n_cells, rng.integers(2, 5), replace=False)
    rates = rate * rng.uniform(-1.0, 1.0, cells.size)
    rates -= rates.mean()
    return build_source_vector(
        fine, SourceSpec([(np.array([c]), q) for c, q in zip(cells, rates)])
    )


@settings(max_examples=15)
@given(case=two_scale_cases(), rate=st.sampled_from([1e4, 1e8]))
def test_banded_local_solve_matches_superlu(case, rate):
    """`linear_solve`, LAPACK's banded LU in natural node order, solves every
    patch's online block of a Jacobian with Dirichlet nodes and wells, and
    the block's symmetric part (the indicator's system), as SuperLU does, to
    1e-12 relative."""
    mesh, rng, dirichlet = case
    problem = random_problem(mesh.fine, rng, dirichlet,
                             load=balanced_wells(mesh.fine, rng, rate))
    fluid, perm, dt = problem.fluid, problem.perm, problem.time.dt
    p = problem.p0 * (1.0 + 1e-3 * rng.standard_normal(mesh.fine.n_nodes))
    F = newton_residual(p, problem.p0, fluid, perm, dt, problem.load, mesh.fine,
                        problem.boundary)
    J = newton_jacobian(p, fluid, perm, dt, mesh.fine, problem.boundary)
    for rows in online._free_rows(mesh, dirichlet):
        if rows.size == 0:
            continue
        J_loc = J[np.ix_(rows, rows)]
        b = -F[rows]
        for A in (J_loc, 0.5 * (J_loc + J_loc.T)):
            ref = spla.splu(A.tocsc()).solve(b)
            x = fem.linear_solve(A, b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


class _Factorization:
    """A SuperLU factorization that can be weakly referenced; whatever keeps
    its `solve` keeps it alive."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b):
        return self.lu.solve(b)


class TrackedFactorizations:
    """Stands in for `spla.splu` (the one found at construction): counts the
    calls, records their diagonal pivot thresholds and checks at each one
    that every earlier factorization has been freed."""

    def __init__(self):
        self.splu = spla.splu
        self.calls = 0
        self.pivots = []  # diag_pivot_thresh of each call
        self.made = []  # weak references to the factorizations returned

    def __call__(self, A, **kwargs):
        self.calls += 1
        self.pivots.append(kwargs.get("diag_pivot_thresh"))
        assert self.all_freed(), "two sparse factorizations alive at once"
        lu = _Factorization(self.splu(A, **kwargs))
        self.made.append(weakref.ref(lu))
        return lu

    def all_freed(self):
        return all(ref() is None for ref in self.made)


def direct_solve(_kept, J, b, _step, _it, _target):
    """A fresh factorization and direct solve for every fine Newton system."""
    return fem.linear_solve(J.tocsc(), b)


@pytest.mark.parametrize("cap", [fem._REFINE_MAXSTEPS, 0])
@settings(max_examples=10)
@given(case=grid_cases(), rate=st.sampled_from([1e4, 1e6, 1e8]))
def test_kept_factorization_matches_direct_solve(cap, case, rate):
    """solve_fine on one kept factorization takes the same Newton iterations
    to the same states as a direct solve of every system.  The default cap
    never refactors here; cap 0, with no forcing term (so that one solve on
    the kept LU never meets the target), refactors on every system after the
    first."""
    fine, rng, dirichlet = case
    problem = random_problem(fine, rng, dirichlet, n_steps=3,
                             load=balanced_wells(fine, rng, rate))
    lus = TrackedFactorizations()
    with mock.patch.object(fem.spla, "splu", lus), \
            mock.patch.object(fem, "_REFINE_MAXSTEPS", cap), \
            mock.patch.object(fem, "_FORCING", fem._FORCING if cap else 0.0):
        sol = solve_fine(problem)
    assert lus.all_freed()  # nothing outlives the solve
    with mock.patch.object(fem._KeptLU, "solve", direct_solve):
        ref = solve_fine(problem)
    assert sol.newton_iters == ref.newton_iters
    systems = sum(ref.newton_iters)
    assert lus.calls == (min(systems, 1) if cap else systems)
    states, ref_states = np.asarray(sol.states), np.asarray(ref.states)
    assert np.abs(states - ref_states).max() <= 1e-10 * np.abs(ref_states).max()


@pytest.mark.parametrize("cap", [fem._REFINE_MAXSTEPS, 0])
def test_fine_jacobian_is_assembled_once_per_factorization(cap, monkeypatch):
    """solve_fine assembles the sparse Jacobian (`newton_jacobian`) only to
    factor it: once per run by default, and for every Newton system when
    each one is refactored (cap 0, no forcing term)."""
    fine = FineGrid(4, 4, 4, 1.0)
    rng = np.random.default_rng(0)
    problem = random_problem(fine, rng, rng.choice(fine.n_nodes, 10, replace=False),
                             n_steps=3, load=balanced_wells(fine, rng, 1e8))
    calls = []
    jacobian = fem.newton_jacobian

    def counting_jacobian(*args):
        calls.append(None)
        return jacobian(*args)

    lus = TrackedFactorizations()
    monkeypatch.setattr(fem, "newton_jacobian", counting_jacobian)
    monkeypatch.setattr(fem.spla, "splu", lus)
    monkeypatch.setattr(fem, "_REFINE_MAXSTEPS", cap)
    monkeypatch.setattr(fem, "_FORCING", fem._FORCING if cap else 0.0)
    sol = solve_fine(problem)
    systems = sum(sol.newton_iters)
    assert systems > 1
    assert len(calls) == lus.calls == (1 if cap else systems)


@pytest.mark.parametrize("online", [0, 1, 2])
def test_coarse_kept_factorization_matches_refactoring(online, mesh8, fluid):
    """solve_gmsfem with one kept LU per basis takes the same Newton
    iterations to the same states as with a factorization of every
    projected system (cap 0).  The default factors once per basis (the
    offline basis, then one per online update; the projected systems are
    the factorizations with the coarse diagonal pivot threshold, the online
    local solves use SuperLU's default 1.0), and every LU is freed by the
    time the run returns."""
    perm = generate_channel_field(mesh8.fine, seed=1, background=1.0,
                                  channel=1e4, n_channels=4, n_inclusions=4)
    problem = make_problem(mesh8.fine, fluid, perm, TimeGrid(dt=2.5e-5, n_steps=4),
                           "neumann-wells", well_rate=1e8)
    space = build_offline_space(mesh8, perm, fluid, problem.p0, 3)
    schedule = UpdateSchedule(online, (1, 3)) if online else UpdateSchedule.none()
    runs = {}
    for cap in (fem._REFINE_MAXSTEPS, 0):
        lus = TrackedFactorizations()
        with mock.patch.object(fem.spla, "splu", lus), \
                mock.patch.object(fem, "_REFINE_MAXSTEPS", cap):
            result = solve_gmsfem(problem, space, schedule)
        assert lus.all_freed()
        runs[cap] = result, lus.pivots.count(fem._COARSE_PIVOT)
    (sol, kept), (ref, refactored) = runs[fem._REFINE_MAXSTEPS], runs[0]
    assert sol.newton_iters == ref.newton_iters
    bases = len(schedule.update_steps) if online else 1
    correctors = bases if online == 2 else 0  # one per update, between rounds
    assert kept == bases + correctors
    assert refactored == sum(ref.newton_iters) + correctors
    states, ref_states = np.asarray(sol.states), np.asarray(ref.states)
    assert np.abs(states - ref_states).max() <= 1e-10 * np.abs(ref_states).max()


@pytest.mark.parametrize("singular_from", [1, 2])
@settings(max_examples=5)
@given(case=grid_cases())
def test_singular_fine_jacobian_raises(singular_from, case):
    """An exactly singular fine Jacobian raises SingularMatrixError, whether
    it is the first (factored directly) or a later one (refinement fails, then
    the refactorization does), and the kept factorization is freed."""
    fine, rng, dirichlet = case
    problem = random_problem(fine, rng, dirichlet, n_steps=3,
                             load=balanced_wells(fine, rng, 1e8))
    free = np.setdiff1d(np.arange(fine.n_nodes), dirichlet)
    keep = np.ones(fine.n_nodes)
    keep[rng.choice(free)] = 0.0
    jacobians = []

    class SingularJacobian(fem._Jacobian):
        """The fine Jacobian operator with one free row zeroed from the
        singular_from-th on, in its product and its assembly alike."""

        def __init__(self, *args):
            super().__init__(*args)
            jacobians.append(self)
            self.singular = len(jacobians) >= singular_from

        def __matmul__(self, x):
            y = super().__matmul__(x)
            return keep * y if self.singular else y

        def tocsc(self):
            J = super().tocsc()
            if self.singular:
                J = (sp.diags(keep) @ J).tocsc()
                J.eliminate_zeros()
            return J

    lus = TrackedFactorizations()
    with mock.patch.object(fem.spla, "splu", lus), \
            mock.patch.object(fem, "_Jacobian", SingularJacobian), \
            pytest.raises(SingularMatrixError):
        solve_fine(problem)
    assert len(jacobians) == singular_from
    assert lus.calls == singular_from
    assert lus.all_freed()


def test_failed_fine_solve_frees_the_factorization():
    """A Newton failure after the first factorization frees it, even while
    the exception and its traceback are still held."""
    fine = FineGrid(3, 3, 3, 1.0)
    rng = np.random.default_rng(0)
    problem = random_problem(fine, rng, np.empty(0, dtype=np.int64),
                             load=balanced_wells(fine, rng, 1e8))
    lus = TrackedFactorizations()
    with mock.patch.object(fem.spla, "splu", lus), \
            pytest.raises(NewtonConvergenceError) as failure:
        solve_fine(problem, NewtonConfig(tol=1e-300, max_iter=2, stall_ratio=1e-300))
    assert failure.value.step == 1 and lus.calls == 1
    assert lus.all_freed()


def test_kept_factorization_refactors_when_refinement_diverges(caplog):
    """Refinement on the LU of 0.4 J multiplies the error by -1.5 per step,
    so its first step raises the residual: the kept factorization is freed
    after that one step, J is factored once, one DEBUG record names the
    system, and the result is the direct solution."""
    fine = FineGrid(3, 3, 3, 1.0)
    rng = np.random.default_rng(0)
    dirichlet = rng.choice(fine.n_nodes, 8, replace=False)
    problem = random_problem(fine, rng, dirichlet)
    J = newton_jacobian(problem.p0, problem.fluid, problem.perm, problem.time.dt,
                        fine, problem.boundary)
    b = J @ rng.standard_normal(fine.n_nodes)
    lus = TrackedFactorizations()
    kept = fem._KeptLU(order=fine.dissection())
    with mock.patch.object(fem.spla, "splu", lus), \
            caplog.at_level(logging.DEBUG, logger="msflow"):
        kept.lu = lus(sp.csc_matrix(0.4 * J))
        x = kept.solve(J, b, 3, 2)
    assert lus.calls == 2
    assert [r.args for r in caplog.records] == [(3, 2, 1)]
    assert caplog.records[0].levelno == logging.DEBUG
    direct = spla.spsolve(J.tocsc(), b)
    assert np.linalg.norm(x - direct) <= 1e-10 * np.linalg.norm(direct)
    kept.release()
    assert lus.all_freed()


class NoisyProduct:
    """J whose product carries a fresh relative error of 1e-9, as a badly
    conditioned or nearly dependent system does: refinement reaches that
    floor, then its residual wanders there."""

    def __init__(self, J, rng):
        self.J, self.rng = J, rng

    def __matmul__(self, x):
        y = self.J @ x
        return y + 1e-9 * np.abs(y).max() * self.rng.uniform(-1.0, 1.0, y.size)

    def tocsc(self):
        return self.J.tocsc()


def test_kept_factorization_refactors_when_refinement_stagnates(caplog):
    """Refinement on the LU of 0.9 J divides the error by -9 per step until
    the residual reaches the floor of the noisy product, above the
    tolerance.  It stops at the first step that does not lower the residual,
    well before _REFINE_MAXSTEPS: one DEBUG record names the steps spent, J
    is factored, and the result is the direct solution to the floor."""
    fine = FineGrid(3, 3, 3, 1.0)
    rng = np.random.default_rng(1)
    problem = random_problem(fine, rng, rng.choice(fine.n_nodes, 8, replace=False))
    J = newton_jacobian(problem.p0, problem.fluid, problem.perm, problem.time.dt,
                        fine, problem.boundary)
    b = J @ rng.standard_normal(fine.n_nodes)
    lus = TrackedFactorizations()
    kept = fem._KeptLU(order=fine.dissection())
    with mock.patch.object(fem.spla, "splu", lus), \
            caplog.at_level(logging.DEBUG, logger="msflow"):
        kept.lu = lus(sp.csc_matrix(0.9 * J))
        x = kept.solve(NoisyProduct(J, rng), b, 3, 2)
    assert lus.calls == 2
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    step, it, steps = record.args
    assert (step, it) == (3, 2) and 4 <= steps < fem._REFINE_MAXSTEPS
    direct = spla.spsolve(J.tocsc(), b)
    assert np.linalg.norm(x - direct) <= 1e-7 * np.linalg.norm(direct)
    kept.release()
    assert lus.all_freed()


@settings(max_examples=10)
@given(case=grid_cases(), rate=st.sampled_from([1e6, 1e8]))
def test_balanced_wells_conserve_mass(case, rate):
    """With wells whose rates sum to zero and zero-Neumann boundaries, the
    total fluid mass of every fine state equals the initial one to 1e-8."""
    fine, rng, _ = case
    problem = random_problem(fine, rng, np.empty(0, dtype=np.int64), n_steps=4,
                             load=balanced_wells(fine, rng, rate))
    fluid, cn = problem.fluid, fine.cell_nodes()
    mass = np.array([
        (fluid.phi * density(cell_average(p, cn), fluid) * fine.h**3).sum()
        for p in solve_fine(problem).states
    ])
    assert np.abs(mass - mass[0]).max() <= 1e-8 * mass[0]


@settings(max_examples=10)
@given(st.sampled_from([2, 3, 4]), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_partition_of_unity_on_patches(r, Nx, Ny, Nz):
    """The hats sum to one at every fine node; hat i equals the trilinear hat
    of its coarse vertex evaluated on the whole grid, which is zero off its
    patch and on the patch's constrained boundary and positive inside the
    patch."""
    mesh = build_two_scale_mesh(r * Nx, r * Ny, r * Nz, r)
    fine = mesh.fine
    pou = PartitionOfUnity(mesh)
    ijk = np.stack(fine.node_ijk(np.arange(fine.n_nodes))) / r
    total = np.zeros(fine.n_nodes)
    for i, nb in enumerate(mesh.neighborhoods):
        chi = pou.chi_global(i)
        hat = np.prod(np.maximum(0.0, 1.0 - np.abs(ijk - np.array(nb.vertex)[:, None])), axis=0)
        assert np.abs(chi - hat).max() <= 1e-15
        on_patch = chi[nb.nodes]
        assert np.all(on_patch[nb.constrained_mask] == 0.0)
        box = nb.box
        inside = np.all([
            (0 < g) & (g < n)
            for g, n in zip(box.node_ijk(np.arange(nb.n_local)), (box.nx, box.ny, box.nz))
        ], axis=0)
        assert np.all(on_patch[inside] > 0.0)
        total += chi
    assert np.abs(total - 1.0).max() <= 1e-14


def forced_eigh(mode, rng):
    """scipy.linalg.eigh as the offline solve calls it, with the LAPACK
    driver forced ("gvx" subset; "gvd" or "gv" full spectrum, first pairs
    kept), or ("rotate") the default result with the vectors of every
    cluster of equal eigenvalues mixed by a random orthogonal matrix;
    "full" leaves it as it is, for a solve of the whole spectrum."""
    eigh = la.eigh

    def forced(a, b, subset_by_index=None):
        if mode == "full":  # the default driver, called with n_eig=None
            return eigh(a, b, subset_by_index=subset_by_index)
        if mode == "gvx":
            return eigh(a, b, subset_by_index=subset_by_index, driver="gvx")
        if mode == "rotate":
            vals, vecs = eigh(a, b, subset_by_index=subset_by_index)
            starts = _cluster_starts(vals)
            for lo, hi in zip(starts[:-1], starts[1:]):
                Q, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
                vecs[:, lo:hi] = vecs[:, lo:hi] @ Q
            return vals, vecs
        vals, vecs = eigh(a, b, driver=mode)
        k = vals.size if subset_by_index is None else subset_by_index[1] + 1
        return vals[:k], vecs[:, :k]

    return forced


@settings(max_examples=12)
@given(
    shape=st.sampled_from([
        ("v1", 2, (1, 1, 1)), ("v1", 2, (2, 1, 3)), ("v1", 3, (2, 2, 1)),
        ("v1", 3, (1, 2, 2)), ("v2", 2, (3, 3, 3)),
    ]),
    mode=st.sampled_from(["rotate", "gvx", "gvd", "gv", "full"]),
    scale=st.sampled_from([1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_offline_span_is_driver_independent(shape, mode, scale, seed):
    """On uniform fields, whose symmetric patches have clusters of equal
    eigenvalues, the span of the first L offline modes of every neighborhood
    at every settled cut L is the same, to 1e-10 in the sine of the largest
    principal angle, whichever basis of each cluster the eigensolver returns
    and whichever LAPACK driver or spectrum size computes it; some cut lies
    inside a cluster."""
    kind, r, (Nx, Ny, Nz) = shape
    mesh = build_two_scale_mesh(r * Nx, r * Ny, r * Nz, r)
    perm = PermeabilityField(np.full(mesh.fine.n_cells, scale))
    rho0 = np.ones(mesh.fine.n_cells)
    kt = compute_kappa_tilde(mesh, perm, rho0)
    rng = np.random.default_rng(seed)
    worst, inside = 0.0, 0
    for i, nb in enumerate(mesh.neighborhoods):
        A, M = offline._local_operators(nb, rho0 * perm.values, kt)
        if kind == "v1":
            snap = build_snapshot_v1(mesh, i)
        else:
            snap = build_snapshot_v2(mesh, i, A)
        ref = solve_local_spectral(mesh, i, snap, A, M, n_eig=10)
        with mock.patch.object(offline.la, "eigh", forced_eigh(mode, rng)):
            other = solve_local_spectral(
                mesh, i, snap, A, M, n_eig=None if mode == "full" else 10
            )
        starts = _cluster_starts(ref.eigenvalues)
        for L in range(1, min(ref.n_complete, other.n_complete) + 1):
            a = select_offline_basis(snap, ref, L)
            b = select_offline_basis(snap, other, L)
            worst = max(worst, float(np.sin(la.subspace_angles(a, b).max())))
            inside += L not in starts
    assert inside > 0
    assert worst <= 1e-10


@settings(max_examples=12)
@given(
    shape=st.sampled_from([(2, (2, 1, 2)), (2, (2, 2, 2)), (3, (2, 2, 1)), (3, (1, 2, 2))]),
    field=st.sampled_from(["uniform", "random"]),
    n_eig=st.integers(6, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_sparse_solve_matches_dense(shape, field, n_eig, seed):
    """With the size cut of the sparse path lowered to every patch, the
    shift-invert Lanczos solve of each v1 neighborhood gives the lowest
    eigenvalues of the full dense spectrum to 1e-10 of the largest, and, at
    every cut L <= n_complete between two clusters, the span of the first L
    modes to 1e-10 in the sine of the largest principal angle, on uniform
    fields (clusters of equal eigenvalues) and on random lognormal ones.  A
    patch whose Lanczos solve misses a copy of a cluster (seen on the small
    patches at 12 pairs) is solved densely after the inertia count, and
    agrees as well; most patches keep the sparse solve."""
    r, (Nx, Ny, Nz) = shape
    mesh = build_two_scale_mesh(r * Nx, r * Ny, r * Nz, r)
    rng = np.random.default_rng(seed)
    values = (
        np.ones(mesh.fine.n_cells) if field == "uniform"
        else np.exp(2.0 * rng.standard_normal(mesh.fine.n_cells))
    )
    perm = PermeabilityField(values)
    rho0 = np.ones(mesh.fine.n_cells)
    kt = compute_kappa_tilde(mesh, perm, rho0)
    sparse_solves = 0
    for i, nb in enumerate(mesh.neighborhoods):
        snap = build_snapshot_v1(mesh, i)
        A, M = offline._local_operators(nb, rho0 * perm.values, kt)
        k = min(n_eig, nb.n_local - 2)
        dense = solve_local_spectral(mesh, i, snap, A, M)
        with mock.patch.object(offline, "_SPARSE_MIN_NODES", 0):
            spec = solve_local_spectral(mesh, i, snap, A, M, n_eig=k)
        assert spec.solver in ("sparse", "fallback")
        sparse_solves += spec.solver == "sparse"
        lam = dense.eigenvalues[:k]
        assert np.abs(spec.eigenvalues - lam).max() <= 1e-10 * np.abs(lam).max()
        for L in _cluster_starts(lam)[1:]:
            if L > spec.n_complete:
                break
            angles = la.subspace_angles(
                dense.eigenvectors[:, :L], spec.eigenvectors[:, :L]
            )
            assert np.sin(angles.max()) <= 1e-10
    assert sparse_solves > mesh.n_neighborhoods // 2


def superlu_snapshot_v2(nb, A):
    """The v2 snapshot basis of a neighborhood with local stiffness A by the
    sparse formulation: SuperLU on the interior block in the patch box's
    `dissection()` order, solved for all boundary columns at once."""
    bnd = np.flatnonzero(nb.constrained_mask)
    order = nb.box.dissection()
    free = order[nb.free_mask[order]]
    lu = spla.splu(sp.csc_matrix(A[np.ix_(free, free)]), permc_spec="NATURAL")
    S = np.zeros((nb.n_local, bnd.size))
    S[bnd, np.arange(bnd.size)] = 1.0
    S[free] = lu.solve(-A[np.ix_(free, bnd)].toarray())
    return S


@settings(max_examples=6)
@given(
    shape=st.sampled_from([(6, 2), (12, 4)]),
    field=st.sampled_from(["uniform", "lognormal"]),
    n_eig=st.integers(6, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_v2_cholesky_and_schur_pencil_match_the_sparse_formulation(
    shape, field, n_eig, seed
):
    """On every v2 patch, the harmonic extensions from the dense Cholesky of
    the interior block equal those of a SuperLU solve to 1e-12 relative, and
    the spectral solve on the Schur complement pencil gives the eigenvalues
    of the pencil S^T (A S), S^T (M S) formed by dgemm to 1e-10 of the
    largest and, at every cut L <= n_complete between two clusters, the span
    of the first L offline modes to 1e-9 in the sine of the largest
    principal angle; on uniform fields (clusters of equal eigenvalues) and
    on random lognormal ones."""
    n, r = shape
    mesh = build_two_scale_mesh(n, n, n, r)
    rng = np.random.default_rng(seed)
    values = (
        np.ones(mesh.fine.n_cells) if field == "uniform"
        else np.exp(2.0 * rng.standard_normal(mesh.fine.n_cells))
    )
    perm = PermeabilityField(values)
    rho0 = np.ones(mesh.fine.n_cells)
    kt = compute_kappa_tilde(mesh, perm, rho0)
    for i, nb in enumerate(mesh.neighborhoods):
        A, M = offline._local_operators(nb, rho0 * perm.values, kt)
        snap = build_snapshot_v2(mesh, i, A)
        S = superlu_snapshot_v2(nb, A)
        assert np.abs(snap.basis - S).max() <= 1e-12 * np.abs(S).max()
        Ad = dgemm(1.0, S.T, (A @ S).T, trans_b=True)
        Md = dgemm(1.0, S.T, (M @ S).T, trans_b=True)
        k = min(n_eig, snap.dim)
        lam, V = la.eigh(Ad, Md, subset_by_index=[0, k - 1])
        spec = solve_local_spectral(mesh, i, snap, A, M, n_eig=k)
        assert np.abs(spec.eigenvalues - lam).max() <= 1e-10 * np.abs(lam).max()
        m = spec.n_complete
        new = select_offline_basis(snap, spec, m)
        old = dgemm(1.0, S.T, V[:, :m], trans_a=True)  # S V on scipy's BLAS
        for L in _cluster_starts(spec.eigenvalues)[1:]:
            if L > m:
                break
            angles = la.subspace_angles(new[:, :L], old[:, :L])
            assert np.sin(angles.max()) <= 1e-9

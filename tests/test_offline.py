import logging
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from msflow import offline, workers
from msflow.cli import main
from msflow.errors import ConfigError, SingularMatrixError
from msflow.grid import build_two_scale_mesh
from msflow.model import (
    PermeabilityField,
    TimeGrid,
    density,
    generate_channel_field,
    make_problem,
)
from msflow.offline import (
    PartitionOfUnity,
    _cluster_starts,
    _local_operators,
    build_offline_space,
    build_offline_spaces,
    build_snapshot_v1,
    build_snapshot_v2,
    compute_kappa_tilde,
    select_offline_basis,
    solve_local_spectral,
)
from msflow.online import enrich_projection


@pytest.fixture(scope="module")
def pou8(mesh8):
    return PartitionOfUnity(mesh8)


def coarse_vertex_node(mesh, vertex):
    I, J, K = vertex
    r = mesh.coarse.r
    return mesh.fine.node_index(I * r, J * r, K * r)


def test_hat_kronecker_at_coarse_vertices(mesh8, pou8):
    for i in (0, 13, 26):
        chi = pou8.chi_global(i)
        for j, nb in enumerate(mesh8.neighborhoods):
            node = coarse_vertex_node(mesh8, nb.vertex)
            assert chi[node] == (1.0 if i == j else 0.0)


def test_hat_edge_midpoint(mesh8, pou8):
    # midpoint of the coarse edge between vertices (0,0,0) and (1,0,0)
    r = mesh8.coarse.r
    mid = mesh8.fine.node_index(r // 2, 0, 0)
    a = next(i for i, nb in enumerate(mesh8.neighborhoods) if nb.vertex == (0, 0, 0))
    b = next(i for i, nb in enumerate(mesh8.neighborhoods) if nb.vertex == (1, 0, 0))
    assert pou8.chi_global(a)[mid] == pytest.approx(0.5, abs=1e-15)
    assert pou8.chi_global(b)[mid] == pytest.approx(0.5, abs=1e-15)


def test_hats_sum_to_one(mesh8, pou8):
    total = np.zeros(mesh8.fine.n_nodes)
    for i in range(mesh8.n_neighborhoods):
        chi = pou8.chi_global(i)
        assert chi.min() >= 0.0 and chi.max() <= 1.0
        total += chi
    assert np.abs(total - 1.0).max() <= 1e-14


def test_hat_vanishes_on_constrained_boundary(mesh8, pou8):
    for i in (0, 13):
        nb = mesh8.neighborhoods[i]
        chi = pou8.chi_local(i)
        assert np.all(chi[nb.constrained_mask] == 0.0)


def chi_grad_sq(mesh, i):
    """|grad chi_i|^2 at the centers of neighborhood i's cells, from the 1D
    hat values and slopes."""
    nb = mesh.neighborhoods[i]
    r, H = mesh.coarse.r, mesh.coarse.H

    def val_slope(c, V):
        t = (c + 0.5) / r - V
        value = np.maximum(0.0, 1.0 - np.abs(t))
        return value, np.where(np.abs(t) < 1.0, -np.sign(t) / H, 0.0)

    (vx, gx), (vy, gy), (vz, gz) = (
        val_slope(c, V) for c, V in zip(mesh.fine.cell_ijk(nb.cells), nb.vertex)
    )
    return (gx * vy * vz) ** 2 + (vx * gy * vz) ** 2 + (vx * vy * gz) ** 2


def test_grad_sq_sum_matches_per_hat_sum(mesh8, pou8):
    total = np.zeros(mesh8.fine.n_cells)
    for i, nb in enumerate(mesh8.neighborhoods):
        total[nb.cells] += chi_grad_sq(mesh8, i)
    assert np.allclose(pou8.grad_sq_sum(), total, rtol=1e-12)
    assert pou8.grad_sq_sum().min() > 0.0


def test_kappa_tilde_scaling(mesh8, uniform_perm8):
    rho0 = np.full(mesh8.fine.n_cells, 2.0)
    kt1 = compute_kappa_tilde(mesh8, uniform_perm8, rho0)
    kt3 = compute_kappa_tilde(
        mesh8, PermeabilityField(3.0 * uniform_perm8.values), rho0
    )
    assert np.allclose(kt3, 3.0 * kt1, rtol=1e-14)
    assert np.all(kt1 > 0.0)


def test_kappa_tilde_interior_cell_value(mesh8, uniform_perm8):
    """Cell at a coarse vertex: the hat with value ~1 there has its largest
    slope 1/H per axis; the tensor formula gives g*(sy*sz + sx*sz + sx*sy)
    with s(t) = (1-t)^2 + t^2 at the cell-center offsets."""
    kt = compute_kappa_tilde(mesh8, uniform_perm8, np.ones(mesh8.fine.n_cells))
    r, H = mesh8.coarse.r, mesh8.coarse.H
    g = 2.0 / H**2

    def s(t):
        return (1.0 - t) ** 2 + t**2

    c = mesh8.fine.cell_index(0, 0, 0)
    t0 = 0.5 / r
    expected = 3.0 * g * s(t0) * s(t0)
    assert kt[c] == pytest.approx(expected, rel=1e-13)


def test_snapshot_v1_dimensions(mesh8):
    snap = build_snapshot_v1(mesh8, 0)
    assert snap.basis is None
    assert snap.dim == 125  # corner patch of the r=4 mesh: 5^3 nodes


def test_snapshot_v2_columns(mesh8, fluid, uniform_perm8):
    rho0 = np.ones(mesh8.fine.n_cells)
    i = 0  # corner patch: three constrained faces
    nb = mesh8.neighborhoods[i]
    A, _ = _local_operators(nb, rho0 * uniform_perm8.values, rho0)
    snap = build_snapshot_v2(mesh8, i, A)
    S = snap.basis
    bnd = np.flatnonzero(nb.constrained_mask)
    assert snap.dim == bnd.size

    # boundary trace: 1 at its own node, 0 at other constrained nodes
    assert np.allclose(S[bnd], np.eye(bnd.size))
    # discrete maximum principle for uniform coefficients
    assert S.min() >= -1e-12 and S.max() <= 1.0 + 1e-12
    # columns sum to the local constant 1
    assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-12

    # discrete-harmonic: interior rows of A_loc * column vanish
    res = A @ S
    free = np.flatnonzero(nb.free_mask)
    scale = np.abs(A.data).max()
    assert np.abs(res[free]).max() <= 1e-10 * scale


@pytest.fixture(scope="module")
def spectral13(mesh8):
    perm = PermeabilityField(np.ones(mesh8.fine.n_cells))
    rho0 = np.ones(mesh8.fine.n_cells)
    kt = compute_kappa_tilde(mesh8, perm, rho0)
    snap = build_snapshot_v1(mesh8, 13)
    A, M = _local_operators(mesh8.neighborhoods[13], rho0 * perm.values, kt)
    spec = solve_local_spectral(mesh8, 13, snap, A, M)
    return mesh8, perm, rho0, kt, snap, spec


def test_spectral_smallest_eigenvalue_zero(spectral13):
    mesh, _, _, _, _, spec = spectral13
    scale = spec.eigenvalues[-1]
    assert abs(spec.eigenvalues[0]) <= 1e-10 * scale
    v0 = spec.eigenvectors[:, 0]
    # constant eigenvector (natural-BC kernel)
    assert np.abs(v0 - v0.mean()).max() <= 1e-8 * np.abs(v0).max()


def test_spectral_ascending_orthonormal(spectral13):
    mesh, perm, rho0, kt, snap, spec = spectral13
    assert np.all(np.diff(spec.eigenvalues) >= -1e-10 * spec.eigenvalues[-1])
    nb = mesh.neighborhoods[13]
    _, M = _local_operators(nb, rho0 * perm.values, kt)
    V = spec.eigenvectors[:, :10]
    G = V.T @ (M @ V)
    assert np.abs(G - np.eye(10)).max() <= 1e-8


def test_spectral_kappa_scale_invariance(mesh8):
    rho0 = np.ones(mesh8.fine.n_cells)
    snap = build_snapshot_v1(mesh8, 0)
    vals = {}
    for s in (1.0, 100.0):
        perm = PermeabilityField(np.full(mesh8.fine.n_cells, s))
        kt = compute_kappa_tilde(mesh8, perm, rho0)
        A, M = _local_operators(mesh8.neighborhoods[0], rho0 * perm.values, kt)
        spec = solve_local_spectral(mesh8, 0, snap, A, M)
        vals[s] = spec.eigenvalues[:20]
    denom = np.abs(vals[1.0]).max()
    assert np.abs(vals[1.0] - vals[100.0]).max() <= 1e-10 * denom


def assert_probe_signs(nb, snap, V):
    """Every column v of V follows the sign convention: p^T v > 0 for the
    first probe p with |p^T v| > _PROBE_MIN ||v||, else v_k > 0 for the first
    such component."""
    P = offline._probes(nb, snap)
    for v in V.T:
        tol = offline._PROBE_MIN * np.linalg.norm(v)
        lead = next(c for c in [*(P.T @ v), *v] if abs(c) > tol)
        assert lead > 0


def test_spectral_sign_convention_deterministic(spectral13):
    mesh, _, _, _, snap, spec = spectral13
    assert_probe_signs(mesh.neighborhoods[13], snap, spec.eigenvectors)


def test_eigenvalue_decay_on_contrast_field(mesh8):
    """High-contrast channels: the inverse eigenvalues fall off rapidly."""
    perm = generate_channel_field(mesh8.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=6, n_inclusions=8)
    rho0 = np.ones(mesh8.fine.n_cells)
    kt = compute_kappa_tilde(mesh8, perm, rho0)
    i = 13
    snap = build_snapshot_v1(mesh8, i)
    A, M = _local_operators(mesh8.neighborhoods[i], rho0 * perm.values, kt)
    spec = solve_local_spectral(mesh8, i, snap, A, M)
    lam = spec.eigenvalues
    first = max(lam[1], 1e-300)  # skip the zero mode
    assert lam[19] / first >= 1e2


def test_select_offline_basis(spectral13):
    mesh, perm, rho0, kt, snap, spec = spectral13
    psi = select_offline_basis(snap, spec, 4)
    assert psi.shape == (mesh.neighborhoods[13].n_local, 4)
    nb = mesh.neighborhoods[13]
    _, M = _local_operators(nb, rho0 * perm.values, kt)
    G = psi.T @ (M @ psi)
    assert np.abs(G - np.eye(4)).max() <= 1e-8
    with pytest.raises(ConfigError):
        select_offline_basis(snap, spec, 0)
    with pytest.raises(ConfigError):
        select_offline_basis(snap, spec, spec.eigenvalues.size + 1)


def test_v2_within_v1_span(mesh8, uniform_perm8):
    # V1 is the full local space, so every V2 column already lies in it
    rho0 = np.ones(mesh8.fine.n_cells)
    A, _ = _local_operators(mesh8.neighborhoods[0], rho0 * uniform_perm8.values, rho0)
    snap2 = build_snapshot_v2(mesh8, 0, A)
    v1_dim = build_snapshot_v1(mesh8, 0).dim
    assert snap2.dim < v1_dim
    assert snap2.basis.shape == (v1_dim, snap2.dim)


def test_projection_assembly_properties(
    mesh4, mesh8, fluid, uniform_perm4, uniform_perm8
):
    """Every basis column, dependent offline ones included, is supported in
    the patch that col_nb names and vanishes on its constrained boundary.
    col_nb indexes the columns of `offline`: on the 4^3 r=2 mixed-bc space
    matrix() leaves 12 of the 54 out, so its columns are not col_nb's."""
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref)
    space8 = build_offline_space(mesh8, uniform_perm8, fluid, p0, 2)
    assert space8.projection.dim == 2 * mesh8.n_neighborhoods
    prob4 = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=1), "mixed-bc"
    )
    space4 = build_offline_space(
        mesh4, uniform_perm4, fluid, prob4.p0, 2,
        dirichlet_nodes=prob4.boundary.dirichlet_nodes,
    )
    assert space4.projection.matrix().shape[1] < space4.projection.n_offline
    for mesh, space in ((mesh8, space8), (mesh4, space4)):
        pm = space.projection
        assert len(pm.col_nb) == pm.n_offline
        for i, vals in zip(pm.col_nb, pm.offline.toarray().T):
            nb = mesh.neighborhoods[i]
            member = np.zeros(mesh.fine.n_nodes, dtype=bool)
            member[nb.nodes] = True
            assert np.all(vals[~member] == 0.0)
            # conforming: zero on the constrained patch boundary
            assert np.all(vals[nb.nodes[nb.constrained_mask]] == 0.0)


def test_projection_dirichlet_rows_zero(mesh8, fluid, uniform_perm8):
    from msflow.model import TimeGrid, make_problem
    prob = make_problem(
        mesh8.fine, fluid, uniform_perm8, TimeGrid(dt=1.0, n_steps=1), "mixed-bc"
    )
    space = build_offline_space(
        mesh8, uniform_perm8, fluid, prob.p0, 2,
        dirichlet_nodes=prob.boundary.dirichlet_nodes,
    )
    R = space.projection.matrix().toarray()
    assert np.all(R[prob.boundary.dirichlet_nodes] == 0.0)


def test_first_basis_is_hat_for_uniform_field(mesh8, fluid, uniform_perm8):
    # constant first eigenvector: column = chi_i up to normalization
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref)
    space = build_offline_space(mesh8, uniform_perm8, fluid, p0, 1)
    pou = PartitionOfUnity(mesh8)
    R = space.projection.matrix().toarray()
    i = 13
    chi = pou.chi_global(i)
    col = R[:, i]
    ratio = col[np.abs(chi) > 1e-12] / chi[np.abs(chi) > 1e-12]
    assert np.abs(ratio - ratio[0]).max() <= 1e-8 * abs(ratio[0])


def test_extra_density_mass_flag(mesh8, fluid, uniform_perm8):
    # constant rho0: the doubled density weight rescales all eigenvalues by
    # exactly 1/rho0, the first discarded ones included
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref + 1e6)
    rho0 = density(fluid.p_ref + 1e6, fluid)
    a = build_offline_space(mesh8, uniform_perm8, fluid, p0, 2)
    b = build_offline_space(
        mesh8, uniform_perm8, fluid, p0, 2, extra_density_mass=True
    )
    assert np.all(a.lambda_next > 0)
    assert np.allclose(b.lambda_next, a.lambda_next / rho0, rtol=1e-10)


def test_offline_space_metadata(mesh8, fluid, uniform_perm8):
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref)
    space = build_offline_space(mesh8, uniform_perm8, fluid, p0, 3)
    assert space.lambda_next.shape == (mesh8.n_neighborhoods,)
    assert np.all(space.lambda_next >= 0)
    R = space.projection.matrix()
    ev = np.linalg.eigvalsh((R.T @ R).toarray())
    assert ev[0] > 1e-10 * ev[-1]


def test_offline_spaces_need_a_count(mesh4, fluid, uniform_perm4):
    """An empty list of offline counts is a ConfigError, not a bare
    ValueError from min(); so are an unknown snapshot kind, a count below 1
    and a count that is not an int (a per-neighborhood list)."""
    p0 = np.full(mesh4.fine.n_nodes, fluid.p_ref)
    for counts, kind, match in [
        ([], "v1", "no offline basis count"),
        ([2], "v3", "unknown snapshot kind 'v3'"),
        ([2, 0], "v1", "offline basis count 0 is not an integer >= 1"),
        ([[2] * 27], "v1", r"offline basis count \[2, .*\] is not an integer >= 1"),
    ]:
        with pytest.raises(ConfigError, match=match):
            build_offline_spaces(mesh4, uniform_perm4, fluid, p0, counts, kind=kind)


@pytest.fixture(scope="module")
def desk_patch():
    """The 16^3 high-contrast desk field and one interior neighborhood (8
    coarse cells, 729 nodes), as in the acceptance suite."""
    mesh = build_two_scale_mesh(16, 16, 16, r=4)
    perm = generate_channel_field(mesh.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=6, n_inclusions=8)
    rho0 = np.ones(mesh.fine.n_cells)
    kt = compute_kappa_tilde(mesh, perm, rho0)
    i = next(
        j for j, nb in enumerate(mesh.neighborhoods) if nb.n_coarse_cells == 8
    )
    return mesh, perm, rho0, kt, i


@pytest.mark.parametrize("kind", ["v1", "v2"])
def test_partial_spectrum_matches_full_oracle(desk_patch, kind):
    """The n_eig lowest eigenpairs agree with the full dense spectrum:
    eigenvalues to 1e-12 relative, M-orthonormal vectors with the sign
    convention, and the same span of the first L vectors wherever the
    spectrum has a gap at L."""
    mesh, perm, rho0, kt, i = desk_patch
    nb = mesh.neighborhoods[i]
    A, M = _local_operators(nb, rho0 * perm.values, kt)
    if kind == "v1":
        snap = build_snapshot_v1(mesh, i)
    else:
        snap = build_snapshot_v2(mesh, i, A)
    k = 10
    full = solve_local_spectral(mesh, i, snap, A, M)
    part = solve_local_spectral(mesh, i, snap, A, M, n_eig=k)
    lam, mu = full.eigenvalues[:k], part.eigenvalues
    assert mu.size == k and part.eigenvectors.shape == (snap.dim, k)
    assert np.abs(mu - lam).max() <= 1e-12 * np.abs(lam).max()

    if snap.basis is not None:
        M = snap.basis.T @ (M @ snap.basis)
    V, W = full.eigenvectors[:, :k], part.eigenvectors
    assert np.abs(W.T @ (M @ W) - np.eye(k)).max() <= 1e-8
    assert_probe_signs(nb, snap, W)

    checked = 0
    for L in range(1, k):
        if (lam[L] - lam[L - 1]) / lam[L] > 1e-8:
            cosines = np.linalg.svd(V[:, :L].T @ (M @ W[:, :L]), compute_uv=False)
            assert cosines.min() >= 1.0 - 1e-8
            checked += 1
    assert checked >= 5


def test_subset_larger_than_snapshot_space(mesh8, uniform_perm8):
    """n_eig beyond the snapshot dimension returns the whole spectrum."""
    rho0 = np.ones(mesh8.fine.n_cells)
    kt = compute_kappa_tilde(mesh8, uniform_perm8, rho0)
    A, M = _local_operators(mesh8.neighborhoods[0], rho0 * uniform_perm8.values, kt)
    snap = build_snapshot_v2(mesh8, 0, A)
    full = solve_local_spectral(mesh8, 0, snap, A, M)
    part = solve_local_spectral(mesh8, 0, snap, A, M, n_eig=snap.dim + 5)
    assert part.eigenvalues.size == snap.dim
    assert np.allclose(part.eigenvalues, full.eigenvalues, rtol=1e-12, atol=1e-12)


def test_dependent_columns_left_out_of_matrix(
    mesh4, mesh8, fluid, uniform_perm4, uniform_perm8
):
    """On the r=2 mesh the hat-times-mode columns of neighboring patches
    coincide and Dirichlet rows remove more: 12 of the 54 columns at L=2 with
    mixed-bc are dependent, 8 of them zero (modes of the canonical cluster
    bases that vanish on the hat's support outside the Dirichlet rows).  dim
    still counts all 54 basis functions, and matrix() spans the same space
    with 42 independent columns.  On the 8^3 r=4 mesh nothing is left out."""
    def space(mesh, perm, L):
        prob = make_problem(
            mesh.fine, fluid, perm, TimeGrid(dt=2.5e-5, n_steps=1), "mixed-bc"
        )
        return build_offline_space(
            mesh, perm, fluid, prob.p0, L,
            dirichlet_nodes=prob.boundary.dirichlet_nodes,
        )

    s4 = space(mesh4, uniform_perm4, 2)
    full = s4.projection.offline.toarray()
    R = s4.projection.matrix().toarray()
    assert s4.projection.dim == 54 and full.shape[1] == 54
    assert R.shape[1] == 42
    assert np.linalg.matrix_rank(R) == 42
    assert np.linalg.matrix_rank(np.hstack([full, R])) == 42

    for L in (2, 4):
        s8 = space(mesh8, uniform_perm8, L)
        assert s8.projection.dim == L * mesh8.n_neighborhoods
        assert s8.projection.matrix() is s8.projection.offline


def test_set_online_replaces_the_online_block_of_matrix(mesh4, fluid, uniform_perm4):
    """matrix() follows set_online: the online columns come after the
    offline basis, and replacing the online block by an empty one gives the
    offline basis back, so a space shared by several runs never solves with
    the basis of an earlier online block."""
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=1), "mixed-bc"
    )
    d = prob.boundary.dirichlet_nodes
    pm = build_offline_space(
        mesh4, uniform_perm4, fluid, prob.p0, 2, dirichlet_nodes=d
    ).projection
    R0 = pm.matrix()

    nb = mesh4.neighborhoods[13]
    rows = np.setdiff1d(nb.nodes[nb.free_mask], d)
    pm.set_online([(13, rows, np.ones(rows.size))])
    R1 = pm.matrix()
    assert R1.shape[1] == R0.shape[1] + 1 and pm.dim == pm.n_offline + 1
    assert (R1[:, :-1] != R0).nnz == 0
    v = np.zeros(mesh4.fine.n_nodes)
    v[nb.nodes[nb.free_mask]] = 1.0
    v[d] = 0.0
    assert np.array_equal(R1[:, -1].toarray().ravel(), v)

    pm.set_online([])
    assert pm.matrix() is R0 and pm.dim == pm.n_offline


@pytest.fixture(scope="module")
def enriched12(fluid):
    """12^3 r=2 neumann-wells on a uniform field, offline space L=2 with
    the online block of one enrichment round at the initial state."""
    mesh = build_two_scale_mesh(12, 12, 12, r=2)
    perm = PermeabilityField(np.ones(mesh.fine.n_cells))
    prob = make_problem(
        mesh.fine, fluid, perm, TimeGrid(dt=2.5e-5, n_steps=1), "neumann-wells",
        well_rate=1e8,
    )
    pm = build_offline_space(mesh, perm, fluid, prob.p0, 2).projection
    enrich_projection(pm, mesh, prob, p_state=prob.p0, n_online=1)
    assert pm.n_online > 0
    return mesh, pm


def test_set_online_checks_rows_against_values_and_grid(enriched12):
    """An online column whose rows and values differ in size, or with a row
    off the fine grid, is a ConfigError naming its neighborhood, and the
    online block stays as it was."""
    mesh, pm = enriched12
    before = pm.online_cols
    n = mesh.fine.n_nodes
    for rows, x in [
        (np.arange(3), np.ones(2)),
        (np.array([0, 5, n]), np.ones(3)),
        (np.array([-1, 5]), np.ones(2)),
    ]:
        with pytest.raises(ConfigError, match="neighborhood 7"):
            pm.set_online([(7, rows, x)])
        assert pm.online_cols is before
    pm.set_online([(7, np.array([0, n - 1]), np.ones(2))])
    pm.set_online(before)


def test_online_block_equals_the_dense_stack(enriched12):
    """matrix() with online columns, some holding exact zeros (one column
    only zeros), has the indptr, indices and data of the basis stacked with
    the CSR matrix of the dense fine-length columns."""
    mesh, pm = enriched12
    before = pm.online_cols
    cols = [(i, rows, x.copy()) for i, rows, x in before]
    cols[0][2][::3] = 0.0
    cols[-1][2][:] = 0.0
    dense = []
    for _, rows, x in cols:
        v = np.zeros(mesh.fine.n_nodes)
        v[rows] = x
        dense.append(v)
    pm.set_online([])
    basis = pm.matrix()
    pm.set_online(cols)
    try:
        got = pm.matrix()
    finally:
        pm.set_online(before)
    oracle = sp.hstack([basis, sp.csr_matrix(np.column_stack(dense))]).tocsr()
    assert got.shape == oracle.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, attr), getattr(oracle, attr))


def test_online_block_memory_is_patch_local(enriched12):
    """matrix() never forms the fine-length online columns: its tracemalloc
    peak stays below half of one dense n_fine x n_online stack."""
    mesh, pm = enriched12
    dense_bytes = mesh.fine.n_nodes * pm.n_online * 8
    tracemalloc.start()
    try:
        pm.matrix()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 2


def test_offline_pass_logs_clusters_and_resolves(
    mesh8, fluid, uniform_perm8, caplog, monkeypatch
):
    """The uniform field's symmetric patches have clusters of equal
    eigenvalues across the cut.  An offline pass logs one DEBUG record on
    msflow.offline with the number of neighborhoods whose cut at each count
    lies inside a cluster (as the full spectra count them), the number of
    neighborhoods that reuse an equal patch's solve, and the number of solves
    repeated with more pairs (as the calls count them)."""
    calls = []
    solve = offline.solve_local_spectral

    def counting(*args, n_eig):
        calls.append(n_eig)
        return solve(*args, n_eig=n_eig)

    monkeypatch.setattr(offline, "solve_local_spectral", counting)
    # counting sees the solves of this process only, so the pass runs in one
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref)
    build_offline_spaces(mesh8, uniform_perm8, fluid, p0, [4, 8])
    records = [r for r in caplog.records if r.name == "msflow.offline"]
    assert len(records) == 1 and records[0].levelno == logging.DEBUG
    m = re.search(
        r"(\d+) reused .* (\d+) n_eig growth re-solves; .*: (\d+) at L=4, "
        r"(\d+) at L=8",
        records[0].getMessage(),
    )
    reused = int(m.group(1))
    assert 0 < reused < mesh8.n_neighborhoods
    assert int(m.group(2)) == len(calls) - (mesh8.n_neighborhoods - reused)

    rho0 = np.ones(mesh8.fine.n_cells)
    kt = compute_kappa_tilde(mesh8, uniform_perm8, rho0)
    inside = {4: 0, 8: 0}
    for i in range(mesh8.n_neighborhoods):
        snap = build_snapshot_v1(mesh8, i)
        A, M = _local_operators(
            mesh8.neighborhoods[i], rho0 * uniform_perm8.values, kt
        )
        starts = _cluster_starts(solve(mesh8, i, snap, A, M).eigenvalues)
        for L in inside:
            inside[L] += L not in starts
    assert inside[4] > 0 and inside[8] > 0
    assert (int(m.group(3)), int(m.group(4))) == (inside[4], inside[8])


def test_growth_re_solves_give_the_same_space(mesh8, fluid, uniform_perm8, caplog, monkeypatch):
    """Asking for fewer pairs first makes the build grow its subsets where a
    cluster of equal eigenvalues runs past them, and the spaces are the same
    as with the default first request, column by column to 1e-10 relative,
    signs included."""
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref)
    ref = build_offline_spaces(mesh8, uniform_perm8, fluid, p0, [4, 8])
    monkeypatch.setattr(offline, "_EXTRA_PAIRS", 1)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    grown = build_offline_spaces(mesh8, uniform_perm8, fluid, p0, [4, 8])
    resolves = re.search(r"(\d+) n_eig growth re-solves", caplog.text)
    assert int(resolves.group(1)) > 0
    for a, b in zip(ref, grown):
        Ra, Rb = a.projection.matrix().toarray(), b.projection.matrix().toarray()
        assert np.abs(Ra - Rb).max() <= 1e-10 * np.abs(Ra).max()
        assert np.allclose(a.lambda_next, b.lambda_next, rtol=1e-10, atol=0)


@pytest.fixture(scope="module")
def uniform6(mesh6, fluid):
    """Uniform field and initial state on the 6^3 r=2 mesh: its v2 patches
    are symmetric, with clusters of equal eigenvalues and mirror-node ties."""
    perm = PermeabilityField(np.ones(mesh6.fine.n_cells))
    p0 = np.full(mesh6.fine.n_nodes, fluid.p_ref)
    return perm, p0


def test_space_does_not_depend_on_the_product_rounding(
    mesh6, fluid, uniform6, monkeypatch
):
    """Nudging every harmonic entry of the v2 snapshot basis S by one ulp
    moves the rounding of the products S^T M S and S V; the offline columns
    stay the same to 1e-10 relative, signs included, on patches whose
    mirror nodes tie."""
    perm, p0 = uniform6
    ref = build_offline_space(mesh6, perm, fluid, p0, 4, kind="v2")
    build = offline.build_snapshot_v2

    def nudged(mesh, i, A):
        snap = build(mesh, i, A)
        free = mesh.neighborhoods[i].free_mask
        # one ulp away from zero; exact zeros stay
        snap.basis[free] = np.nextafter(snap.basis[free], 2.0 * snap.basis[free])
        return snap

    monkeypatch.setattr(offline, "build_snapshot_v2", nudged)
    other = build_offline_space(mesh6, perm, fluid, p0, 4, kind="v2")
    Ra = ref.projection.offline.toarray()
    Rb = other.projection.offline.toarray()
    assert not np.array_equal(Ra, Rb)  # the rounding did move
    assert np.abs(Ra - Rb).max() <= 1e-10 * np.abs(Ra).max()


def test_failed_interior_factorization_names_the_neighborhood(
    mesh6, uniform6, tmp_path, capsys, monkeypatch
):
    """An interior block whose Cholesky factorization fails raises
    SingularMatrixError naming the neighborhood, and `msflow run` exits with
    that error's code, 1."""
    def not_positive_definite(*args, **kwargs):
        raise la.LinAlgError("2-th leading minor of the array is not positive definite")

    monkeypatch.setattr(offline, "cho_factor", not_positive_definite)
    perm, _ = uniform6
    rho0 = np.ones(mesh6.fine.n_cells)
    A, _ = _local_operators(mesh6.neighborhoods[5], rho0 * perm.values, rho0)
    with pytest.raises(SingularMatrixError, match="interior block of neighborhood 5 "):
        build_snapshot_v2(mesh6, 5, A)
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 6\nmesh.ny = 6\nmesh.nz = 6\nmesh.ratio = 2\n"
        "time.steps = 1\nbasis.offline = 2\nbasis.snapshot = v2\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert "interior block of neighborhood 0 is singular" in err
    assert "not positive definite" in err


def test_v2_kernel_matches_dense_reference(mesh6, uniform6):
    """On every neighborhood the pairs solve the projected problem
    S^T A S v = lambda S^T M S v formed densely by numpy, to 1e-10 relative
    residual, with V^T S^T M S V = I, and the offline basis is S V[:, :L]."""
    perm, _ = uniform6
    rho0 = np.ones(mesh6.fine.n_cells)
    kt = compute_kappa_tilde(mesh6, perm, rho0)
    L = 4
    for i, nb in enumerate(mesh6.neighborhoods):
        A, M = _local_operators(nb, rho0 * perm.values, kt)
        snap = build_snapshot_v2(mesh6, i, A)
        spec = solve_local_spectral(mesh6, i, snap, A, M, n_eig=L + 4)
        S = snap.basis
        Ad, Md = S.T @ (A @ S), S.T @ (M @ S)
        lam, V = spec.eigenvalues, spec.eigenvectors
        scale = (np.linalg.norm(Ad, 2) + np.abs(lam) * np.linalg.norm(Md, 2)) * (
            np.linalg.norm(V, axis=0)
        )
        residual = np.linalg.norm(Ad @ V - (Md @ V) * lam, axis=0)
        assert np.all(residual <= 1e-10 * scale)
        assert np.abs(V.T @ Md @ V - np.eye(lam.size)).max() <= 1e-10
        psi = select_offline_basis(snap, spec, L)
        ref = S @ V[:, :L]
        assert np.abs(psi - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("kind", ["v1", "v2"])
def test_offline_pass_logs_its_time_split(
    kind, mesh6, mesh8, fluid, caplog
):
    """The offline pass's DEBUG record reports the seconds spent assembling
    local pencils and building snapshot spaces and those spent solving
    spectral problems, summed over the pass."""
    mesh = mesh8 if kind == "v1" else mesh6
    perm = PermeabilityField(np.ones(mesh.fine.n_cells))
    p0 = np.full(mesh.fine.n_nodes, fluid.p_ref)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    build_offline_space(mesh, perm, fluid, p0, 2, kind=kind)
    (record,) = [r for r in caplog.records if r.name == "msflow.offline"]
    m = re.search(
        r"snapshot builds ([0-9.]+) s, spectral solves ([0-9.]+) s",
        record.getMessage(),
    )
    assert m is not None
    assert float(m.group(1)) >= 0.0 and float(m.group(2)) >= 0.0


def test_missed_cluster_copy_falls_back_to_the_dense_solve(
    mesh8, fluid, uniform_perm8, caplog, monkeypatch
):
    """A Lanczos solve that misses one copy of an eigenvalue cluster on the
    729-node interior patch of the uniform 8^3 field fails the inertia
    count: the fallback is logged at INFO with the patch, the pairs found
    and the count, the pass counts it, and the space is the dense one, bit
    for bit."""
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref)
    big = [i for i, nb in enumerate(mesh8.neighborhoods) if nb.n_local > 405]
    assert len(big) == 1
    monkeypatch.setattr(offline, "_SPARSE_MIN_NODES", 10**9)
    dense = build_offline_spaces(mesh8, uniform_perm8, fluid, p0, [4, 8])
    monkeypatch.setattr(offline, "_SPARSE_MIN_NODES", 405)

    eigsh = offline.eigsh
    dropped = []

    def dropping(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        idx = np.argsort(vals)
        vals, vecs = vals[idx], vecs[:, idx]
        starts = _cluster_starts(vals)
        lo = next(
            lo for lo, hi in zip(starts[:-2], starts[1:-1]) if hi - lo > 1
        )
        dropped.append(vals[lo])
        return np.delete(vals, lo), np.delete(vecs, lo, axis=1)

    monkeypatch.setattr(offline, "eigsh", dropping)
    # dropping sees the solves of this process only, so the pass runs in one
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    spaces = build_offline_spaces(mesh8, uniform_perm8, fluid, p0, [4, 8])
    assert len(dropped) == 1
    (info,) = [r for r in caplog.records if r.levelno == logging.INFO]
    m = re.search(
        r"neighborhood (\d+): shift-invert Lanczos found (\d+) pairs below "
        r"\S+, the inertia count gives (\d+)",
        info.getMessage(),
    )
    assert int(m.group(1)) == big[0]
    assert int(m.group(3)) == int(m.group(2)) + 1
    assert "(0 sparse, 1 dense fallbacks)" in caplog.text
    for a, b in zip(dense, spaces):
        assert np.array_equal(
            a.projection.offline.toarray(), b.projection.offline.toarray()
        )
        assert np.array_equal(a.lambda_next, b.lambda_next)


def test_failed_sparse_solves_are_logged_once_each(
    mesh8, fluid, uniform_perm8, caplog, monkeypatch
):
    """A sparse solve whose Lanczos fails returns solver "fallback" and logs
    the reason at INFO, and a pass emits one INFO line per failed sparse
    solve, growth re-solves included, in job order (largest patch first),
    the same on one process and on three."""

    def failing_eigsh(*args, **kwargs):
        raise offline.spla.ArpackError(-9999)

    monkeypatch.setattr(offline, "eigsh", failing_eigsh)
    monkeypatch.setattr(offline, "_SPARSE_MIN_NODES", 0)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    rho0 = np.ones(mesh8.fine.n_cells)
    kt = compute_kappa_tilde(mesh8, uniform_perm8, rho0)
    A, M = _local_operators(
        mesh8.neighborhoods[13], rho0 * uniform_perm8.values, kt
    )
    snap = build_snapshot_v1(mesh8, 13)
    spec = solve_local_spectral(mesh8, 13, snap, A, M, n_eig=6)
    assert spec.solver == "fallback"
    (info,) = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert info.startswith(
        "neighborhood 13: shift-invert Lanczos failed (ARPACK error -9999"
    )

    monkeypatch.setattr(offline, "_EXTRA_PAIRS", 1)
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref)
    logged = []
    for n in (1, 3):
        monkeypatch.setattr(workers, "cpu_count", lambda: n)
        caplog.clear()
        build_offline_space(mesh8, uniform_perm8, fluid, p0, 2)
        m = re.search(
            r"\(0 sparse, (\d+) dense fallbacks\); (\d+) n_eig growth", caplog.text
        )
        assert int(m.group(2)) > 0
        infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert len(infos) == int(m.group(1))
        logged.append([
            int(re.fullmatch(
                r"neighborhood (\d+): shift-invert Lanczos failed \(.+\); "
                r"solved densely",
                msg,
            ).group(1))
            for msg in infos
        ])
    job_order = sorted(
        set(logged[0]), key=lambda i: (-mesh8.neighborhoods[i].n_local, i)
    )
    assert sorted(set(logged[0]), key=logged[0].index) == job_order
    assert logged[0] == logged[1]


def test_sparse_solve_counted_in_the_pass_record(mesh8, fluid, uniform_perm8, caplog):
    """The interior patch of the 8^3 mesh, the one above the size cut, is
    solved sparse, and the pass's DEBUG record counts it."""
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    build_offline_space(mesh8, uniform_perm8, fluid, p0, 4)
    assert "(1 sparse, 0 dense fallbacks)" in caplog.text
    assert not [r for r in caplog.records if r.levelno == logging.INFO]


def _unique_keys(monkeypatch):
    """Make every neighborhood's reuse key its own, so each is solved."""
    counter = iter(range(10**9))
    monkeypatch.setattr(offline, "_patch_key", lambda *args: next(counter))


def test_reused_patches_give_the_same_space(fluid, caplog, monkeypatch):
    """On a random field repeated along x with the period of two coarse
    cells, the patches of vertices two apart in x have equal local problems
    (interior 729-node patches among them, solved sparse): the pass solves
    each once, and its spaces equal, bit for bit, those of a pass that solves
    every neighborhood."""
    mesh = build_two_scale_mesh(16, 8, 8, r=4)
    fine = mesh.fine
    rng = np.random.default_rng(5)
    cell = np.exp(2.0 * rng.standard_normal((fine.nz, fine.ny, 8)))
    perm = PermeabilityField(np.tile(cell, (1, 1, 2)).ravel())
    p0 = np.full(fine.n_nodes, fluid.p_ref)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    reused = build_offline_spaces(mesh, perm, fluid, p0, [2, 4])
    n = int(re.search(r"(\d+) reused", caplog.text).group(1))
    # vertices I = 1 and 3 along x, 3 x 3 of each in y and z; of the three
    # interior patches, I = 3 reuses I = 1
    assert n == 9 and "(2 sparse," in caplog.text
    _unique_keys(monkeypatch)
    solved = build_offline_spaces(mesh, perm, fluid, p0, [2, 4])
    for a, b in zip(reused, solved):
        assert np.array_equal(
            a.projection.offline.toarray(), b.projection.offline.toarray()
        )
        assert np.array_equal(a.lambda_next, b.lambda_next)


def test_v2_patches_with_other_constrained_nodes_are_not_shared(
    mesh6, fluid, uniform6, monkeypatch
):
    """Opposite corner patches of the uniform 6^3 field have the same box
    and weights: one key for v1, whose snapshot space is the whole patch,
    but two for v2, whose harmonic extensions pin each corner's own
    constrained faces; and the v2 space is the one of a pass that solves
    every neighborhood."""
    perm, p0 = uniform6
    rho0 = np.ones(mesh6.fine.n_cells)
    kt = compute_kappa_tilde(mesh6, perm, rho0)
    last = mesh6.n_neighborhoods - 1
    a, b = mesh6.neighborhoods[0], mesh6.neighborhoods[last]
    assert a.box == b.box and not np.array_equal(a.constrained_mask, b.constrained_mask)

    def key(nb, kind):
        return offline._patch_key(nb, kind, rho0 * perm.values, kt)

    assert key(a, "v1") == key(b, "v1")
    assert key(a, "v2") != key(b, "v2")
    ref = build_offline_space(mesh6, perm, fluid, p0, 4, kind="v2")
    _unique_keys(monkeypatch)
    other = build_offline_space(mesh6, perm, fluid, p0, 4, kind="v2")
    assert np.array_equal(
        ref.projection.offline.toarray(), other.projection.offline.toarray()
    )


@pytest.mark.parametrize("kind", ["v1", "v2"])
def test_pass_assembles_each_distinct_patch_pencil_once(
    kind, mesh6, mesh8, fluid, caplog, monkeypatch
):
    """An offline pass on a channel field, with one extra pair per request
    (so a v1 cluster grows past it), assembles the local stiffness and mass
    of each distinct patch exactly once (`_local_operators`): the snapshot
    build and every spectral solve of the patch, growth re-solves included,
    take that pencil."""
    mesh = mesh8 if kind == "v1" else mesh6
    perm = generate_channel_field(mesh.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=2, n_inclusions=2)
    p0 = np.full(mesh.fine.n_nodes, fluid.p_ref)
    assembled = {"stiffness": [], "mass": []}
    solves = []

    def spy(name, fn):
        def counted(box, w_cell):
            assembled[name].append(box)
            return fn(box, w_cell)
        return counted

    def counting(mesh, i, snap, A, M, n_eig=None):
        solves.append((i, A, M))
        return solve(mesh, i, snap, A, M, n_eig=n_eig)

    solve = offline.solve_local_spectral
    monkeypatch.setattr(offline, "assemble_weighted_stiffness",
                        spy("stiffness", offline.assemble_weighted_stiffness))
    monkeypatch.setattr(offline, "assemble_weighted_mass",
                        spy("mass", offline.assemble_weighted_mass))
    monkeypatch.setattr(offline, "solve_local_spectral", counting)
    monkeypatch.setattr(offline, "_EXTRA_PAIRS", 1)
    # the spies see the solves of this process only, so the pass runs in one
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    build_offline_spaces(mesh, perm, fluid, p0, [2, 4], kind=kind)
    m = re.search(r"(\d+) reused .* (\d+) n_eig growth re-solves", caplog.text)
    reused, resolves = int(m.group(1)), int(m.group(2))
    distinct = mesh.n_neighborhoods - reused
    assert resolves > 0 or kind == "v2"  # the v2 pass grows no subset here
    assert len(assembled["stiffness"]) == len(assembled["mass"]) == distinct
    assert len(solves) == distinct + resolves
    # the re-solves of a patch take the pencil of its first solve
    first = {}
    for i, A, M in solves:
        A0, M0 = first.setdefault(i, (A, M))
        assert A0 is A and M0 is M
    assert len(first) == distinct

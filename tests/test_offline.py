import numpy as np
import pytest

from msflow.errors import ConfigError
from msflow.grid import build_two_scale_mesh
from msflow.model import (
    PermeabilityField,
    TimeGrid,
    density,
    generate_channel_field,
    make_problem,
)
from msflow.offline import (
    _local_operators,
    build_offline_space,
    build_partition_of_unity,
    build_snapshot_v1,
    build_snapshot_v2,
    compute_kappa_tilde,
    select_offline_basis,
    solve_local_spectral,
)


@pytest.fixture(scope="module")
def pou8(mesh8):
    return build_partition_of_unity(mesh8)


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


def test_kappa_tilde_scaling(mesh8, pou8, uniform_perm8):
    rho0 = np.full(mesh8.fine.n_cells, 2.0)
    kt1 = compute_kappa_tilde(mesh8, uniform_perm8, rho0, pou8)
    kt3 = compute_kappa_tilde(
        mesh8, PermeabilityField(3.0 * uniform_perm8.values), rho0, pou8
    )
    assert np.allclose(kt3, 3.0 * kt1, rtol=1e-14)
    assert np.all(kt1 > 0.0)


def test_kappa_tilde_interior_cell_value(mesh8, pou8, uniform_perm8):
    """Cell at a coarse vertex: the hat with value ~1 there has its largest
    slope 1/H per axis; the tensor formula gives g*(sy*sz + sx*sz + sx*sy)
    with s(t) = (1-t)^2 + t^2 at the cell-center offsets."""
    kt = compute_kappa_tilde(mesh8, uniform_perm8, np.ones(mesh8.fine.n_cells), pou8)
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
    snap = build_snapshot_v2(mesh8, i, uniform_perm8, rho0)
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
    A, _ = _local_operators(nb, uniform_perm8, rho0, rho0)
    res = A @ S
    free = np.flatnonzero(nb.free_mask)
    scale = np.abs(A.data).max()
    assert np.abs(res[free]).max() <= 1e-10 * scale


@pytest.fixture(scope="module")
def spectral13(mesh8):
    perm = PermeabilityField(np.ones(mesh8.fine.n_cells))
    rho0 = np.ones(mesh8.fine.n_cells)
    pou = build_partition_of_unity(mesh8)
    kt = compute_kappa_tilde(mesh8, perm, rho0, pou)
    snap = build_snapshot_v1(mesh8, 13)
    spec = solve_local_spectral(mesh8, 13, snap, perm, rho0, kt)
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
    _, M = _local_operators(nb, perm, rho0, kt)
    V = spec.eigenvectors[:, :10]
    G = V.T @ (M @ V)
    assert np.abs(G - np.eye(10)).max() <= 1e-8


def test_spectral_kappa_scale_invariance(mesh8):
    rho0 = np.ones(mesh8.fine.n_cells)
    pou = build_partition_of_unity(mesh8)
    snap = build_snapshot_v1(mesh8, 0)
    vals = {}
    for s in (1.0, 100.0):
        perm = PermeabilityField(np.full(mesh8.fine.n_cells, s))
        kt = compute_kappa_tilde(mesh8, perm, rho0, pou)
        spec = solve_local_spectral(mesh8, 0, snap, perm, rho0, kt)
        vals[s] = spec.eigenvalues[:20]
    denom = np.abs(vals[1.0]).max()
    assert np.abs(vals[1.0] - vals[100.0]).max() <= 1e-10 * denom


def test_spectral_sign_convention_deterministic(spectral13):
    _, _, _, _, _, spec = spectral13
    lead = np.argmax(np.abs(spec.eigenvectors), axis=0)
    assert np.all(spec.eigenvectors[lead, np.arange(lead.size)] > 0)


def test_eigenvalue_decay_on_contrast_field(mesh8):
    """High-contrast channels: the inverse eigenvalues fall off rapidly."""
    perm = generate_channel_field(mesh8.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=6, n_inclusions=8)
    rho0 = np.ones(mesh8.fine.n_cells)
    pou = build_partition_of_unity(mesh8)
    kt = compute_kappa_tilde(mesh8, perm, rho0, pou)
    i = 13
    snap = build_snapshot_v1(mesh8, i)
    spec = solve_local_spectral(mesh8, i, snap, perm, rho0, kt)
    lam = spec.eigenvalues
    first = max(lam[1], 1e-300)  # skip the zero mode
    assert lam[19] / first >= 1e2


def test_select_offline_basis(spectral13):
    mesh, perm, rho0, kt, snap, spec = spectral13
    psi = select_offline_basis(snap, spec, 4)
    assert psi.shape == (mesh.neighborhoods[13].n_local, 4)
    nb = mesh.neighborhoods[13]
    _, M = _local_operators(nb, perm, rho0, kt)
    G = psi.T @ (M @ psi)
    assert np.abs(G - np.eye(4)).max() <= 1e-8
    with pytest.raises(ConfigError):
        select_offline_basis(snap, spec, 0)
    with pytest.raises(ConfigError):
        select_offline_basis(snap, spec, spec.eigenvalues.size + 1)


def test_v2_within_v1_span(mesh8, uniform_perm8):
    # V1 is the full local space, so every V2 column already lies in it
    rho0 = np.ones(mesh8.fine.n_cells)
    snap2 = build_snapshot_v2(mesh8, 0, uniform_perm8, rho0)
    v1_dim = build_snapshot_v1(mesh8, 0).dim
    assert snap2.dim < v1_dim
    assert snap2.basis.shape == (v1_dim, snap2.dim)


def test_projection_assembly_properties(mesh8, fluid, uniform_perm8):
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref)
    space = build_offline_space(mesh8, uniform_perm8, fluid, p0, 2)
    R = space.projection.matrix()
    assert space.projection.dim == 2 * mesh8.n_neighborhoods
    # column support within the owning neighborhood
    Rc = R.tocsc()
    for col in (0, 5, 2 * mesh8.n_neighborhoods - 1):
        nb = mesh8.neighborhoods[space.projection.col_nb[col]]
        rows = Rc.indices[Rc.indptr[col]:Rc.indptr[col + 1]]
        member = np.zeros(mesh8.fine.n_nodes, dtype=bool)
        member[nb.nodes] = True
        assert np.all(member[rows])
        # conforming: zero on the constrained patch boundary
        vals = np.zeros(mesh8.fine.n_nodes)
        vals[rows] = Rc.data[Rc.indptr[col]:Rc.indptr[col + 1]]
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
    pou = build_partition_of_unity(mesh8)
    R = space.projection.matrix().toarray()
    i = 13
    chi = pou.chi_global(i)
    col = R[:, i]
    ratio = col[np.abs(chi) > 1e-12] / chi[np.abs(chi) > 1e-12]
    assert np.abs(ratio - ratio[0]).max() <= 1e-8 * abs(ratio[0])


def test_extra_density_mass_flag(mesh8, fluid, uniform_perm8):
    # constant rho0: the doubled density weight rescales all eigenvalues by
    # exactly 1/rho0
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref + 1e6)
    rho0 = density(fluid.p_ref + 1e6, fluid)
    a = build_offline_space(mesh8, uniform_perm8, fluid, p0, 2)
    b = build_offline_space(
        mesh8, uniform_perm8, fluid, p0, 2, extra_density_mass=True
    )
    for ea, eb in zip(a.eigenvalues, b.eigenvalues):
        assert np.allclose(eb, ea / rho0, rtol=1e-10)


def test_offline_space_metadata(mesh8, fluid, uniform_perm8):
    p0 = np.full(mesh8.fine.n_nodes, fluid.p_ref)
    space = build_offline_space(mesh8, uniform_perm8, fluid, p0, 3)
    assert space.lambda_next.shape == (mesh8.n_neighborhoods,)
    assert np.all(space.lambda_next >= 0)
    assert space.n_basis == [3] * mesh8.n_neighborhoods
    R = space.projection.matrix()
    ev = np.linalg.eigvalsh((R.T @ R).toarray())
    assert ev[0] > 1e-10 * ev[-1]


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
    if kind == "v1":
        snap = build_snapshot_v1(mesh, i)
    else:
        snap = build_snapshot_v2(mesh, i, perm, rho0)
    k = 10
    full = solve_local_spectral(mesh, i, snap, perm, rho0, kt)
    part = solve_local_spectral(mesh, i, snap, perm, rho0, kt, n_eig=k)
    lam, mu = full.eigenvalues[:k], part.eigenvalues
    assert mu.size == k and part.eigenvectors.shape == (snap.dim, k)
    assert np.abs(mu - lam).max() <= 1e-12 * np.abs(lam).max()

    _, M = _local_operators(nb, perm, rho0, kt)
    if snap.basis is not None:
        M = snap.basis.T @ (M @ snap.basis)
    V, W = full.eigenvectors[:, :k], part.eigenvectors
    assert np.abs(W.T @ (M @ W) - np.eye(k)).max() <= 1e-8
    lead = np.argmax(np.abs(W), axis=0)
    assert np.all(W[lead, np.arange(k)] > 0)

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
    snap = build_snapshot_v2(mesh8, 0, uniform_perm8, rho0)
    full = solve_local_spectral(mesh8, 0, snap, uniform_perm8, rho0, kt)
    part = solve_local_spectral(
        mesh8, 0, snap, uniform_perm8, rho0, kt, n_eig=snap.dim + 5
    )
    assert part.eigenvalues.size == snap.dim
    assert np.allclose(part.eigenvalues, full.eigenvalues, rtol=1e-12, atol=1e-12)


def test_dependent_columns_left_out_of_matrix(
    mesh4, mesh8, fluid, uniform_perm4, uniform_perm8
):
    """On the r=2 mesh the hat-times-mode columns of neighboring patches
    coincide and Dirichlet rows remove more: 6 of the 54 columns at L=2 with
    mixed-bc are dependent.  dim still counts all 54 basis functions, and
    matrix() spans the same space with 48 independent columns.  On the 8^3
    r=4 mesh nothing is left out."""
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
    assert R.shape[1] == 48
    assert np.linalg.matrix_rank(R) == 48
    assert np.linalg.matrix_rank(np.hstack([full, R])) == 48
    assert s4.n_basis == [2] * mesh4.n_neighborhoods

    for L in (2, 4):
        s8 = space(mesh8, uniform_perm8, L)
        assert s8.projection.dim == L * mesh8.n_neighborhoods
        assert s8.projection.matrix() is s8.projection.offline

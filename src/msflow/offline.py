"""Offline multiscale space.

Coarse hat partition of unity, the gradient-weighted mass coefficient, the
two snapshot space flavors (full local space / harmonic extensions of
boundary deltas), the local generalized spectral problem, and assembly of the
fine-by-coarse projection matrix whose columns are the multiscale basis
vectors.

The local stiffness and mass of a neighborhood are assembled on its box grid
(`CoarseNeighborhood.box`) by the same cell-block assembler as the global
operators, so patches of one box shape share one sparsity pattern.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, SingularMatrixError
from .fem import assemble_weighted_mass, assemble_weighted_stiffness, cell_average
from .model import density

log = logging.getLogger(__name__)


class PartitionOfUnity:
    """Trilinear coarse hat functions sampled at fine nodes.

    hat_i is 1 at coarse vertex i, 0 at every other coarse vertex, and
    supported on the vertex neighborhood.  The hats sum to 1 at every fine
    node.
    """

    def __init__(self, mesh):
        self.mesh = mesh

    def chi_local(self, i):
        """Values of hat i at the fine nodes of its neighborhood."""
        nb = self.mesh.neighborhoods[i]
        fine = self.mesh.fine
        r = self.mesh.coarse.r
        I, J, K = nb.vertex
        gi, gj, gk = fine.node_ijk(nb.nodes)
        tx = np.maximum(0.0, 1.0 - np.abs(gi / r - I))
        ty = np.maximum(0.0, 1.0 - np.abs(gj / r - J))
        tz = np.maximum(0.0, 1.0 - np.abs(gk / r - K))
        return tx * ty * tz

    def chi_global(self, i):
        nb = self.mesh.neighborhoods[i]
        out = np.zeros(self.mesh.fine.n_nodes)
        out[nb.nodes] = self.chi_local(i)
        return out

    def _axis_factors(self):
        """Per-cell 1D hat data at cell centers: squared-value sums s and the
        squared-slope sum g = 2/H^2 (tensor factorization of sum |grad chi|^2)."""
        fine = self.mesh.fine
        r = self.mesh.coarse.r
        H = self.mesh.coarse.H

        def s_axis(n):
            t = ((np.arange(n) + 0.5) % r) / r
            return (1.0 - t) ** 2 + t**2

        return s_axis(fine.nx), s_axis(fine.ny), s_axis(fine.nz), 2.0 / H**2

    def grad_sq_sum(self):
        """sum_i |grad chi_i|^2 evaluated at every fine cell center."""
        fine = self.mesh.fine
        sx, sy, sz, g = self._axis_factors()
        SZ, SY, SX = np.meshgrid(sz, sy, sx, indexing="ij")
        total = g * SY * SZ + SX * g * SZ + SX * SY * g
        return total.ravel()


def build_partition_of_unity(mesh):
    return PartitionOfUnity(mesh)


def compute_kappa_tilde(mesh, perm, rho0_cell, pou=None):
    """Cell-wise spectral mass coefficient:
    rho0 * kappa * sum_i |grad chi_i|^2."""
    pou = pou or build_partition_of_unity(mesh)
    return np.asarray(rho0_cell) * perm.values * pou.grad_sq_sum()


@dataclass
class SnapshotSpace:
    neighborhood: int
    kind: str  # "v1" | "v2"
    basis: np.ndarray | None  # None means the identity (v1)
    dim: int


def _local_stiffness(nb, perm, rho0_cell):
    """rho0 * kappa weighted stiffness of a neighborhood, local numbering."""
    return assemble_weighted_stiffness(nb.box, rho0_cell[nb.cells] * perm.values[nb.cells])


def _local_operators(nb, perm, rho0_cell, kappa_tilde, extra_density_mass=False):
    """Stiffness and spectral mass of the local eigenproblem of a
    neighborhood, local numbering."""
    w_mass = kappa_tilde[nb.cells]
    if extra_density_mass:
        w_mass = w_mass * rho0_cell[nb.cells]
    return _local_stiffness(nb, perm, rho0_cell), assemble_weighted_mass(nb.box, w_mass)


def build_snapshot_v1(mesh, i):
    nb = mesh.neighborhoods[i]
    return SnapshotSpace(neighborhood=i, kind="v1", basis=None, dim=nb.n_local)


def build_snapshot_v2(mesh, i, perm, rho0_cell):
    """Harmonic extensions of the boundary delta traces: one column per
    constrained boundary node of the neighborhood."""
    nb = mesh.neighborhoods[i]
    A = _local_stiffness(nb, perm, rho0_cell)
    bnd = np.flatnonzero(nb.constrained_mask)
    if bnd.size == 0:
        raise ConfigError(
            f"neighborhood {i} has no constrained boundary nodes, so it has "
            f"no v2 snapshots (v2 needs at least 3 coarse cells per axis)"
        )
    free = np.flatnonzero(nb.free_mask)
    A_ff = A[np.ix_(free, free)]
    A_fb = A[np.ix_(free, bnd)]
    try:
        lu = spla.splu(sp.csc_matrix(A_ff))
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"interior block of neighborhood {i} is singular: {exc}"
        ) from exc
    X = lu.solve(-A_fb.toarray())
    S = np.zeros((nb.n_local, bnd.size))
    S[bnd, np.arange(bnd.size)] = 1.0
    S[free] = X
    return SnapshotSpace(neighborhood=i, kind="v2", basis=S, dim=bnd.size)


@dataclass
class SpectralDecomposition:
    neighborhood: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, in snapshot coordinates


def solve_local_spectral(
    mesh, i, snapshot, perm, rho0_cell, kappa_tilde, extra_density_mass=False,
    n_eig=None,
):
    """Generalized eigenproblem A v = lambda M v projected to the snapshot
    space; ascending eigenvalues, M-orthonormal vectors, deterministic sign
    (largest-magnitude component positive).

    n_eig=None computes the full spectrum; otherwise only the n_eig lowest
    eigenpairs (all of them if the snapshot space is smaller).
    """
    nb = mesh.neighborhoods[i]
    A, M = _local_operators(nb, perm, rho0_cell, kappa_tilde, extra_density_mass)
    if snapshot.basis is None:
        Ad, Md = A.toarray(), M.toarray()
    else:
        S = snapshot.basis
        Ad = S.T @ (A @ S)
        Md = S.T @ (M @ S)
    subset = None if n_eig is None else [0, min(n_eig, Ad.shape[0]) - 1]
    try:
        vals, vecs = la.eigh(Ad, Md, subset_by_index=subset)
    except la.LinAlgError as exc:
        raise SingularMatrixError(
            f"spectral mass matrix of neighborhood {i} is numerically singular "
            f"(consider snapshot regularization): {exc}"
        ) from exc
    # deterministic sign convention
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    vecs = vecs * signs[None, :]
    return SpectralDecomposition(neighborhood=i, eigenvalues=vals, eigenvectors=vecs)


def select_offline_basis(snapshot, spectral, n_basis):
    """First n_basis eigenfunctions mapped back to local fine DOFs."""
    if not 1 <= n_basis <= spectral.eigenvalues.size:
        raise ConfigError(
            f"offline basis count {n_basis} out of range "
            f"[1, {spectral.eigenvalues.size}]"
        )
    vecs = spectral.eigenvectors[:, :n_basis]
    if snapshot.basis is None:
        return vecs
    return snapshot.basis @ vecs


class ProjectionMatrix:
    """Fine-by-coarse basis matrix: fixed offline columns plus replaceable
    online columns.

    Column layout: all offline columns (neighborhood ascending, mode
    ascending), then online columns (neighborhood ascending, online index
    ascending).  Replacing the online block never touches offline columns.

    dim counts every basis function.  independent, if given, lists the
    offline columns that span the offline space; the others are linear
    combinations of them and matrix() leaves them out.
    """

    def __init__(self, n_fine, offline, col_nb, dirichlet_nodes, independent=None):
        self.n_fine = n_fine
        self.offline = offline.tocsr()
        self.col_nb = list(col_nb)  # neighborhood id per offline column
        self.dirichlet_nodes = np.asarray(dirichlet_nodes, dtype=int)
        self.online_cols = []  # list of (neighborhood id, fine vector) pairs
        self._basis = (
            self.offline if independent is None else self.offline[:, independent]
        )

    @property
    def n_offline(self):
        return self.offline.shape[1]

    @property
    def n_online(self):
        return len(self.online_cols)

    @property
    def dim(self):
        return self.n_offline + self.n_online

    def set_online(self, cols):
        """Replace the whole online block; cols is a list of (nb id, fine
        vector) sorted by (nb, insertion order)."""
        for _, v in cols:
            if v.shape[0] != self.n_fine:
                raise ConfigError("online column has wrong length")
        self.online_cols = list(cols)

    def matrix(self):
        """The basis the coarse solves use: the independent offline columns,
        then the online columns."""
        if not self.online_cols:
            return self._basis
        dense = np.column_stack([v for _, v in self.online_cols])
        return sp.hstack([self._basis, sp.csr_matrix(dense)]).tocsr()


@dataclass
class OfflineSpace:
    mesh: object
    projection: ProjectionMatrix
    n_basis: list  # offline count per neighborhood
    lambda_next: np.ndarray  # lambda_{L_i+1} per neighborhood (error indicator)
    eigenvalues: list = field(repr=False, default_factory=list)
    kind: str = "v1"
    t_basis: float = 0.0


def _independent_columns(R):
    """Indices, ascending, of a numerically independent subset of R's
    columns: pivoted Cholesky (LAPACK dpstrf, default tolerance
    n * eps * max diagonal) of the Gram matrix of the unit-normalized columns.

    Normalizing first makes the test independent of the column scales, which
    span about six orders of magnitude on high-contrast fields."""
    G = (R.T @ R).toarray()
    d = np.diag(G)
    s = np.zeros_like(d)
    s[d > 0] = d[d > 0] ** -0.5
    _, piv, rank, _ = lapack.dpstrf(s[:, None] * G * s[None, :])
    return np.sort(piv[:rank] - 1)


def assemble_projection(mesh, pou, local_sets, dirichlet_nodes):
    """Stack chi_i * psi_l columns into the sparse projection matrix; rows at
    global Dirichlet nodes are zeroed.  Columns that are linearly dependent on
    the others (hats times modes can coincide on small patches, and Dirichlet
    rows remove more) stay counted in dim but are left out of matrix()."""
    n_fine = mesh.fine.n_nodes
    dmask = np.zeros(n_fine, dtype=bool)
    dirichlet_nodes = np.asarray(dirichlet_nodes, dtype=int)
    dmask[dirichlet_nodes] = True

    rows, cols, data, col_nb = [], [], [], []
    col = 0
    for i, psi in local_sets:
        nb = mesh.neighborhoods[i]
        chi = pou.chi_local(i)
        keep = ~dmask[nb.nodes]
        for l in range(psi.shape[1]):
            v = chi * psi[:, l]
            nz = keep & (v != 0.0)
            rows.append(nb.nodes[nz])
            cols.append(np.full(int(nz.sum()), col))
            data.append(v[nz])
            col_nb.append(i)
            col += 1
    R = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_fine, col),
    ).tocsr()
    keep = _independent_columns(R)
    if keep.size == col:
        return ProjectionMatrix(n_fine, R, col_nb, dirichlet_nodes)
    log.info(
        "left %d of %d offline basis columns out of the coarse solves as "
        "linearly dependent", col - keep.size, col,
    )
    return ProjectionMatrix(n_fine, R, col_nb, dirichlet_nodes, independent=keep)


def build_offline_space(
    mesh,
    perm,
    fluid,
    p0,
    n_basis,
    kind="v1",
    dirichlet_nodes=None,
    extra_density_mass=False,
):
    """Full offline stage: partition of unity, spectral coefficient, one
    spectral solve per neighborhood, projection matrix assembly.

    n_basis is the uniform per-neighborhood offline count (an int) or a
    per-neighborhood list.
    """
    t0 = time.perf_counter()
    fine = mesh.fine
    if isinstance(n_basis, int):
        n_basis = [n_basis] * mesh.n_neighborhoods
    if len(n_basis) != mesh.n_neighborhoods:
        raise ConfigError("per-neighborhood basis count has wrong length")

    rho0_cell = density(cell_average(p0, fine.cell_nodes()), fluid)
    pou = build_partition_of_unity(mesh)
    kt = compute_kappa_tilde(mesh, perm, rho0_cell, pou)

    local_sets = []
    lambda_next = np.empty(mesh.n_neighborhoods)
    all_eigs = []
    for i in range(mesh.n_neighborhoods):
        if kind == "v1":
            snap = build_snapshot_v1(mesh, i)
        elif kind == "v2":
            snap = build_snapshot_v2(mesh, i, perm, rho0_cell)
        else:
            raise ConfigError(f"unknown snapshot kind '{kind}'")
        L = n_basis[i]
        spec = solve_local_spectral(
            mesh, i, snap, perm, rho0_cell, kt, extra_density_mass, n_eig=L + 2
        )
        psi = select_offline_basis(snap, spec, L)
        local_sets.append((i, psi))
        lambda_next[i] = spec.eigenvalues[min(L, spec.eigenvalues.size - 1)]
        all_eigs.append(spec.eigenvalues)

    if dirichlet_nodes is None:
        dirichlet_nodes = np.empty(0, dtype=int)
    projection = assemble_projection(mesh, pou, local_sets, dirichlet_nodes)
    return OfflineSpace(
        mesh=mesh,
        projection=projection,
        n_basis=list(n_basis),
        lambda_next=lambda_next,
        eigenvalues=all_eigs,
        kind=kind,
        t_basis=time.perf_counter() - t0,
    )

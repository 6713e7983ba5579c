"""Offline multiscale space.

Coarse hat partition of unity, the gradient-weighted mass coefficient, the
two snapshot space flavors (full local space / harmonic extensions of
boundary deltas), the local generalized spectral problem, and assembly of the
fine-by-coarse projection matrix whose columns are the multiscale basis
vectors: offline chi_i * psi_l and online, each kept as fine rows and values
on its patch and made into CSR by one builder (`_column_block`).

The space is a function of the local operators only: every cluster of equal
eigenvalues gets a canonical basis of its span, so a cut inside a cluster
selects the same modes whichever eigensolver or subset size computed them,
and one spectral solve per distinct patch serves every offline count of a
sweep (`build_offline_spaces`).  A patch whose local problem repeats an
earlier one exactly (`_patch_key`) takes the earlier patch's modes and
eigenvalues instead of being solved again.

The v1 subset solves of patches above _SPARSE_MIN_NODES nodes run on the
sparse operators: shift-invert Lanczos (`eigsh`) on one LU of A - sigma M,
checked by a Sylvester inertia count at a cut below the last computed
cluster (`_sparse_pairs`).  A patch that fails the check is solved densely,
and the fallback is logged at INFO.  Smaller patches, v2 (its projected
problem is dense) and the full spectrum use LAPACK's dense `eigh`.

A v2 snapshot space is built from one dense Cholesky factorization of the
SPD interior block A_ff (LAPACK potrf/potrs, `cho_factor`/`cho_solve`), in
place on Fortran-ordered copies of A_ff and -A_fb, and the factor is freed
before S is allocated; the previous patch's S is freed before the next is
built.  Its projected stiffness S^T A S is the Schur complement
A_bb + A_bf X, read off as the constrained rows of A S (`A[nodes] @ S`),
since the free rows vanish.  On the 24^3 r=8 mixed-bc field (seed 0) the
largest interior block has 4096 nodes (128 MiB dense) and the offline pass
peaks at about 260 MiB RSS, against 279-294 MiB with the sparse LU of the
block in nested dissection order; the same pass without freeing the
previous patch's S first peaked at 311-323 MiB.

The local pencil of a neighborhood, its stiffness A and spectral mass M, is
assembled on its box grid (`CoarseNeighborhood.box`) by the same cell-block
assembler as the global operators, so patches of one box shape share one
sparsity pattern.  An offline pass assembles the pencil once per distinct
patch (`_local_operators`) and passes it down: A to the v2 snapshot build,
and A and M to every spectral solve of the patch, growth re-solves included.

The distinct patches are solved as one work list, largest first, on every
CPU of the affinity mask (`workers.run`), to the same bits on any number.
What a patch's solve logs, such as a dense fallback, is emitted in job
order (largest patch first) on any number, and the pass raises the error
of the lowest failing neighborhood, as a pass in one process does.
"""

import functools
import hashlib
import logging
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import eigsh

from . import workers
from .errors import ConfigError, SingularMatrixError
from .fem import (
    _factor,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    cell_average,
)
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


def compute_kappa_tilde(mesh, perm, rho0_cell):
    """Cell-wise spectral mass coefficient:
    rho0 * kappa * sum_i |grad chi_i|^2."""
    return np.asarray(rho0_cell) * perm.values * PartitionOfUnity(mesh).grad_sq_sum()


@dataclass
class SnapshotSpace:
    # None means the identity (v1); for v2, the identity on the rows of
    # `nodes` and discrete-harmonic (A S = 0) on the others, which
    # solve_local_spectral's Schur complement relies on
    basis: np.ndarray | None
    dim: int
    nodes: np.ndarray  # local node of each snapshot coordinate


def _local_operators(nb, w_stiff, w_mass):
    """The pencil (A, M) of the local eigenproblem of a neighborhood, local
    numbering, from the cell weights of the whole fine grid: the stiffness
    weighted by w_stiff (rho0 * kappa) and the spectral mass by w_mass."""
    return (
        assemble_weighted_stiffness(nb.box, w_stiff[nb.cells]),
        assemble_weighted_mass(nb.box, w_mass[nb.cells]),
    )


def build_snapshot_v1(mesh, i):
    nb = mesh.neighborhoods[i]
    return SnapshotSpace(basis=None, dim=nb.n_local, nodes=np.arange(nb.n_local))


def build_snapshot_v2(mesh, i, A):
    """Harmonic extensions of the boundary delta traces: one column per
    constrained boundary node of the neighborhood, for its local stiffness A.

    The free rows X solve A_ff X = -A_fb on one dense Cholesky factorization
    of the interior block; a block that is not positive definite raises
    SingularMatrixError naming the neighborhood."""
    nb = mesh.neighborhoods[i]
    bnd = np.flatnonzero(nb.constrained_mask)
    if bnd.size == 0:
        raise ConfigError(
            f"neighborhood {i} has no constrained boundary nodes, so it has "
            f"no v2 snapshots (v2 needs at least 3 coarse cells per axis)"
        )
    free = np.flatnonzero(nb.free_mask)
    # dense Cholesky of the SPD interior block, factored and solved in place
    # on Fortran-ordered arrays, and the factor freed before S is allocated:
    # at 24^3 r=8 the largest block alone is 128 MiB
    try:
        factor = cho_factor(
            A[np.ix_(free, free)].toarray(order="F"),
            overwrite_a=True, check_finite=False,
        )
    except la.LinAlgError as exc:
        raise SingularMatrixError(
            f"interior block of neighborhood {i} is singular: {exc}"
        ) from exc
    X = cho_solve(
        factor, (-A[np.ix_(free, bnd)]).toarray(order="F"),
        overwrite_b=True, check_finite=False,
    )
    del factor
    S = np.zeros((nb.n_local, bnd.size))
    S[bnd, np.arange(bnd.size)] = 1.0
    S[free] = X
    return SnapshotSpace(basis=S, dim=bnd.size, nodes=bnd)


# Two computed eigenvalues are copies of one exactly degenerate eigenvalue
# when they differ by at most this fraction of the larger.  Symmetric patches
# give such clusters, whose computed gaps are rounding (below 1e-12 relative);
# the smallest real gaps measured on the 16^3 desk fields are 1.2e-5 (v1) and
# 2.9e-7 (v2).  The scale is the pair itself, never the subset size, so every
# solve of one patch finds the same clusters.
_CLUSTER_RTOL = 1e-9
# Probes that fix the basis of a cluster: monomials of total degree at most
# _PROBE_DEGREE in patch coordinates, then the unit vectors.  A probe whose
# projection onto the cluster, less its part along the vectors already
# chosen, is shorter than _PROBE_MIN times the probe adds no direction.
_PROBE_DEGREE = 3
_PROBE_MIN = 1e-6


# Pairs a build asks for beyond its largest count L: pair L + 1 feeds the
# error indicator, and the others show whether the cluster that holds pair L
# ends inside the subset.  The low modes of box patches come in clusters of
# up to 4 copies, so with 4 the 16^3 desk fields (seeds 0-2, L = 4 and 8)
# need no growth re-solve, against 28 at seed 0 with 2; a subset eigh costs
# its tridiagonal reduction, hardly the pair count.
_EXTRA_PAIRS = 4


# v1 patches with more nodes than this are solved by shift-invert Lanczos
# (`_sparse_pairs`), smaller ones by the dense subset eigh.  On the distinct
# patches of the 16^3 r=4 neumann-wells field, seed 0, at 12 pairs (2 vCPUs),
# sparse with the inertia count against dense: 27 of 729 nodes 1.29 s against
# 2.17 s, but 42 of 405 nodes 1.18 s against 1.01 s and 17 of 225 nodes
# 0.32 s against 0.15 s.
_SPARSE_MIN_NODES = 405
# The shift of the Lanczos solve, as a fraction of the median diagonal ratio
# diag(A) / diag(M): below the spectrum (A is positive semidefinite), so
# A - sigma M is positive definite, and close enough to its bottom that the
# lowest pairs converge first.
_SHIFT_FRACTION = -0.01


@dataclass
class SpectralDecomposition:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, in snapshot coordinates
    # leading pairs whose eigenvalue clusters were computed whole: a cut at
    # any L <= n_complete selects a span the local operators alone define
    n_complete: int
    # "dense" (eigh), "sparse" (shift-invert Lanczos, checked by the inertia
    # count) or "fallback" (eigh after a sparse solve that failed the check)
    solver: str = "dense"


def _cluster_starts(eigenvalues):
    """Start index of every cluster of copies of one eigenvalue in an
    ascending array, followed by its length."""
    lam = np.asarray(eigenvalues)
    scale = np.maximum(np.abs(lam[:-1]), np.abs(lam[1:]))
    split = np.flatnonzero(np.diff(lam) > _CLUSTER_RTOL * scale) + 1
    return np.concatenate(([0], split, [lam.size]))


def _probes(nb, snapshot):
    """Monomials of total degree <= _PROBE_DEGREE in the patch coordinates
    (scaled to [-1, 1] per axis) at the snapshot coordinates' nodes, as unit
    columns in a fixed order: degree ascending, then x before y before z."""
    box = nb.box
    x = [
        2.0 * c / n - 1.0
        for c, n in zip(box.node_ijk(snapshot.nodes), (box.nx, box.ny, box.nz))
    ]
    cols = [
        x[0] ** a * x[1] ** b * x[2] ** (d - a - b)
        for d in range(_PROBE_DEGREE + 1)
        for a in range(d, -1, -1)
        for b in range(d - a, -1, -1)
    ]
    P = np.column_stack(cols)
    return P / np.linalg.norm(P, axis=0)


def _canonical_cluster(i, V, P):
    """The M-orthonormal basis of span(V) that the probes P fix, given the
    M-orthonormal columns V of one eigenvalue cluster of neighborhood i.

    Each probe p is projected onto span(V), with coefficients (V^T V)^-1 V^T p
    in the basis V; the projections are M-orthonormalized in probe order,
    then the unit vectors follow, and a probe that adds less than _PROBE_MIN
    of its length is skipped.  V^T M V = I makes the M-inner product of
    coefficient vectors the Euclidean one, so M is not needed, and the result
    depends on span(V) only, not on which basis of it V is.

    Computed vectors that span fewer dimensions than they count, which an
    M that rounding leaves indefinite gives at extreme contrast, raise
    SingularMatrixError naming the neighborhood."""
    m = V.shape[1]
    pinv = np.linalg.pinv(V)
    C = np.hstack([pinv @ P, pinv])  # unit vector probes: columns of pinv
    Q = np.zeros((m, m))
    k = 0
    for j in range(C.shape[1]):
        c = C[:, j]
        for _ in range(2):  # orthogonalize twice for stability
            c = c - Q[:, :k] @ (Q[:, :k].T @ c)
        if np.linalg.norm(V @ c) < _PROBE_MIN:
            continue
        Q[:, k] = c / np.linalg.norm(c)
        k += 1
        if k == m:
            return V @ Q
    raise SingularMatrixError(
        f"local pencil of neighborhood {i} is too ill-conditioned: the "
        f"{m} computed eigenvectors of one eigenvalue cluster span a space "
        f"of dimension {k} (is the permeability contrast too extreme?)"
    )


def _signs(vecs, P):
    """+1 or -1 per column v of vecs: the sign of p^T v for the first probe p
    (column of P) with |p^T v| > _PROBE_MIN ||v||, else of the first
    component v_k with |v_k| > _PROBE_MIN ||v||.

    Rounding cannot flip it, unlike the sign of the largest component, on
    which mirror nodes of a symmetric patch tie: a probe either clearly
    passes the threshold or is zero but for rounding."""
    tol = _PROBE_MIN * np.linalg.norm(vecs, axis=0)
    C = np.vstack([P.T @ vecs, vecs])  # probes, then components
    first = np.argmax(np.abs(C) > tol, axis=0)
    return np.sign(C[first, np.arange(C.shape[1])])


def _dense_pairs(i, Ad, Md, n_eig):
    """The n_eig lowest pairs (all for None, or if n_eig >= the size) of the
    dense pencil (Ad, Md) by LAPACK's eigh, and n_complete."""
    n = Ad.shape[0]
    subset = None if n_eig is None or n_eig >= n else [0, n_eig - 1]
    try:
        vals, vecs = la.eigh(Ad, Md, subset_by_index=subset)
    except la.LinAlgError as exc:
        raise SingularMatrixError(
            f"spectral mass matrix of neighborhood {i} is numerically singular "
            f"(consider snapshot regularization): {exc}"
        ) from exc
    n_complete = vals.size if subset is None else int(_cluster_starts(vals)[-2])
    return vals, vecs, n_complete


def _count_below(A, M, cut):
    """The number of eigenvalues of the pencil (A, M), M positive definite,
    below cut: by Sylvester's law of inertia, the negative pivots of the
    symmetric factorization of A - cut M.  SuperLU with no column ordering
    and no row pivoting gives it as the signs of U's diagonal.  None if the
    factorization is singular or pivoted rows after all."""
    try:
        lu = spla.splu(
            sp.csc_matrix(A - cut * M), permc_spec="NATURAL",
            diag_pivot_thresh=0.0, options=dict(SymmetricMode=True),
        )
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, np.arange(A.shape[0])):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _sparse_pairs(box, A, M, n_eig):
    """The n_eig lowest pairs of the sparse pencil (A, M) on a box grid, and
    n_complete, by shift-invert Lanczos (ARPACK through `eigsh`) on one LU
    of A - sigma M in the grid's `dissection()` order, with the start
    vector fixed so the result is deterministic.

    Lanczos can miss copies of an eigenvalue cluster (it did, 3 of 4, with
    the operators in natural node order), so the result is checked: the
    number of eigenvalues below a cut midway between the last two computed
    clusters (`_count_below`) must equal n_complete, the number computed
    below it.  Returns (pairs, None), or (None, the reason) if the count
    disagrees or the solve fails; the caller then solves the patch densely."""
    order = box.dissection()
    A, M = A[order][:, order], M[order][:, order]
    n = A.shape[0]
    sigma = _SHIFT_FRACTION * float(np.median(A.diagonal() / M.diagonal()))
    try:
        lu = _factor(A - sigma * M)
        op = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        vals, vecs = eigsh(A, n_eig, M, sigma=sigma, OPinv=op, v0=np.ones(n))
    except (SingularMatrixError, spla.ArpackError) as exc:
        return None, f"shift-invert Lanczos failed ({exc})"
    del lu, op  # one factorization alive at a time
    idx = np.argsort(vals)
    vals, vecs = vals[idx], vecs[:, idx]
    n_complete = int(_cluster_starts(vals)[-2])
    if n_complete:
        cut = 0.5 * (vals[n_complete - 1] + vals[n_complete])
        count = _count_below(A, M, cut)
        if count != n_complete:
            return None, (
                f"shift-invert Lanczos found {n_complete} pairs below {cut:.6g}, "
                f"the inertia count "
                f"{'failed' if count is None else f'gives {count}'}"
            )
    out = np.empty_like(vecs)
    out[order] = vecs
    return (vals, out, n_complete), None


def solve_local_spectral(mesh, i, snapshot, A, M, n_eig=None):
    """The local pencil (A, M) of neighborhood i (`_local_operators`)
    projected to the snapshot space, A v = lambda M v; ascending eigenvalues,
    M-orthonormal vectors.

    n_eig=None computes the full spectrum; otherwise only the n_eig lowest
    eigenpairs (all of them if the snapshot space is smaller), and a cluster
    of equal eigenvalues that reaches the last computed pair may be cut
    short: `n_complete` counts the pairs before it.  Every other cluster gets
    a canonical basis of its span (`_canonical_cluster`), so the span of the
    first L vectors, L <= n_complete, depends on the local operators only,
    not on the eigensolver or on n_eig.  Signs follow `_signs`.

    A v1 subset solve of a patch with more than _SPARSE_MIN_NODES nodes runs
    on the sparse operators (`_sparse_pairs`), and densely (LAPACK's subset
    eigh), with the reason logged at INFO, if that fails its inertia check;
    every other solve is dense.
    """
    nb = mesh.neighborhoods[i]
    solver, pairs = "dense", None
    if (
        snapshot.basis is None and n_eig is not None
        and _SPARSE_MIN_NODES < nb.n_local and n_eig < nb.n_local
    ):
        pairs, reason = _sparse_pairs(nb.box, A, M, n_eig)
        solver = "fallback" if pairs is None else "sparse"
        if pairs is None:
            log.info("neighborhood %d: %s; solved densely", i, reason)
    if pairs is None:
        if snapshot.basis is None:
            Ad, Md = A.toarray(), M.toarray()
        else:
            # S^T A S is the Schur complement A_bb + A_bf X = (A S)[bnd],
            # because S is the identity on the constrained nodes and the
            # free rows of A S vanish (A_ff X = -A_fb)
            S = snapshot.basis
            Ad = A[snapshot.nodes] @ S
            Md = S.T @ (M @ S)
        pairs = _dense_pairs(i, Ad, Md, n_eig)
    vals, vecs, n_complete = pairs
    starts = _cluster_starts(vals)
    probes = _probes(nb, snapshot)
    for lo, hi in zip(starts[:-1], starts[1:]):
        if hi - lo > 1 and hi <= n_complete:
            vecs[:, lo:hi] = _canonical_cluster(i, vecs[:, lo:hi], probes)
    vecs *= _signs(vecs, probes)
    return SpectralDecomposition(
        eigenvalues=vals, eigenvectors=vecs, n_complete=n_complete,
        solver=solver,
    )


def select_offline_basis(snapshot, spectral, n_basis):
    """First n_basis eigenfunctions mapped back to local fine DOFs; n_basis
    may not cut a cluster that the solve did not compute whole."""
    if not 1 <= n_basis <= spectral.n_complete:
        raise ConfigError(
            f"offline basis count {n_basis} out of range "
            f"[1, {spectral.n_complete}]"
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
    combinations of them and matrix() leaves them out.  col_nb gives the
    neighborhood of every column of `offline`, dependent ones included, so
    it is indexed like `offline`, not like matrix().  Each online column is
    (neighborhood id, fine rows, values) on its patch, built by `_column_block`.
    """

    def __init__(self, offline, col_nb, independent=None):
        self.offline = offline.tocsr()
        self.col_nb = list(col_nb)  # neighborhood id per offline column
        self.online_cols = []  # list of (neighborhood id, rows, values)
        self._basis = (
            self.offline if independent is None else self.offline[:, independent]
        )
        basis_nb = np.asarray(self.col_nb, dtype=np.intp)
        self._basis_nb = basis_nb if independent is None else basis_nb[independent]

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
        rows, values) sorted by (nb, insertion order)."""
        n_fine = self.offline.shape[0]
        for i, rows, values in cols:
            if rows.size != values.size or np.any((rows < 0) | (rows >= n_fine)):
                raise ConfigError(
                    f"online column of neighborhood {i}: its rows and values "
                    f"differ in size, or a row lies off the fine grid"
                )
        self.online_cols = list(cols)

    def matrix(self):
        """The basis the coarse solves use: the independent offline columns,
        then the online columns."""
        if not self.online_cols:
            return self._basis
        online = _column_block(
            self.offline.shape[0], [(rows, x) for _, rows, x in self.online_cols]
        )
        return sp.hstack([self._basis, online]).tocsr()

    def factor_order(self, coarse):
        """The order in which a projected system on matrix()'s columns is
        factored (`fem._KeptLU`): the columns sorted, stably, by the place of
        their neighborhood's vertex in the coarse grid's `dissection()`, so
        the columns of one patch stay together and in their order."""
        rank = np.empty(coarse.n_vertices, dtype=np.intp)
        rank[coarse.dissection()] = np.arange(coarse.n_vertices)
        nb = np.concatenate([
            self._basis_nb,
            np.array([i for i, _, _ in self.online_cols], dtype=np.intp),
        ])
        return np.argsort(rank[nb], kind="stable")


@dataclass
class OfflineSpace:
    mesh: object
    projection: ProjectionMatrix
    lambda_next: np.ndarray  # lambda_{L_i+1} per neighborhood (error indicator)
    t_basis: float = 0.0


# A column chi_i * psi_l whose kept rows have less than this fraction of the
# norm of psi_l is rounding noise: a mode that vanishes on the hat's support
# outside the Dirichlet rows (symmetric modes on small patches).  Normalized,
# noise would look independent, so it is stored as the zero column it is.
_ZERO_COLUMN_RTOL = 1e-10


def _independent_columns(R):
    """Indices, ascending, of a numerically independent subset of R's
    columns: pivoted Cholesky (LAPACK dpstrf, default tolerance
    n * eps * max diagonal) of the Gram matrix of the unit-normalized columns.

    Normalizing first makes the test independent of the column scales, which
    span about six orders of magnitude on high-contrast fields."""
    G = (R.T @ R).toarray(order="F")
    d = np.diag(G).copy()
    s = np.zeros_like(d)
    s[d > 0] = d[d > 0] ** -0.5
    # scaled and factorized in place: at dim 1000 every copy of G is 8 MB,
    # and this step sets the peak memory of the offline build
    G *= s[:, None]
    G *= s[None, :]
    _, piv, rank, _ = lapack.dpstrf(G, overwrite_a=True)
    return np.sort(piv[:rank] - 1)


def _column_block(n_rows, columns):
    """CSR matrix of n_rows rows whose j-th column is the j-th (rows, values)
    pair of columns, exact zeros left out as `sp.csr_matrix(dense)` does."""
    data = np.concatenate([v for _, v in columns])
    indices = np.concatenate([r for r, _ in columns])
    indptr = np.cumsum([0] + [v.size for _, v in columns])
    block = sp.csc_matrix((data, indices, indptr), shape=(n_rows, len(columns)))
    block.eliminate_zeros()
    return block.tocsr()


def assemble_projection(mesh, psis, dirichlet_nodes):
    """Stack chi_i * psi_l columns into the sparse projection matrix, psis[i]
    the local modes of neighborhood i; rows at global Dirichlet nodes are
    zeroed.  Columns that are linearly dependent on the others (hats times
    modes can coincide on small patches, and Dirichlet rows remove more) stay
    counted in dim but are left out of matrix()."""
    pou = PartitionOfUnity(mesh)
    columns, col_nb = [], []
    for i, (nb, psi) in enumerate(zip(mesh.neighborhoods, psis)):
        chi = pou.chi_local(i)
        keep = (chi != 0.0) & ~np.isin(nb.nodes, dirichlet_nodes)
        rows = nb.nodes[keep]
        for l in range(psi.shape[1]):
            v = chi[keep] * psi[keep, l]
            if np.linalg.norm(v) <= _ZERO_COLUMN_RTOL * np.linalg.norm(psi[:, l]):
                v[:] = 0.0  # zero but for rounding: store the zero column
            columns.append((rows, v))
            col_nb.append(i)
    R = _column_block(mesh.fine.n_nodes, columns)
    keep = _independent_columns(R)
    if keep.size == R.shape[1]:
        return ProjectionMatrix(R, col_nb)
    log.info(
        "left %d of %d offline basis columns out of the coarse solves as "
        "linearly dependent", R.shape[1] - keep.size, R.shape[1],
    )
    return ProjectionMatrix(R, col_nb, independent=keep)


def _patch_key(nb, kind, w_stiff, w_mass):
    """sha256 digest of everything the snapshot build and the spectral solve
    of a neighborhood read, but the pair count, which is one per pass: its
    box (shape and cell edge), the stiffness and mass cell weights on its
    cells and, for v2, the constrained boundary nodes.  Patches with one key
    have one local problem, and its solve is deterministic, so the first
    patch's result serves them all, to the bit."""
    digest = hashlib.sha256(repr((kind, nb.box)).encode())
    digest.update(w_stiff[nb.cells].tobytes())
    digest.update(w_mass[nb.cells].tobytes())
    if kind == "v2":
        digest.update(nb.constrained_mask.tobytes())
    return digest.digest()


@dataclass
class _Solved:
    """One distinct patch's offline modes and eigenvalues, with what the
    pass record counts: its solvers (growth re-solves included) and
    seconds."""

    psi: np.ndarray
    eigenvalues: np.ndarray
    solvers: Counter
    t_snap: float
    t_eig: float


def _solve_patch(mesh, kind, w_stiff, w_mass, L, i):
    """The first L offline modes of neighborhood i: its pencil, snapshot
    space and spectral solve for L + _EXTRA_PAIRS pairs, asked again for
    twice as many while the cluster of equal eigenvalues that holds pair L
    is not computed whole.  The pencil, snapshot space and pairs are freed
    on return, before the next patch's are built."""
    n_eig = L + _EXTRA_PAIRS
    t1 = time.perf_counter()
    A, M = _local_operators(mesh.neighborhoods[i], w_stiff, w_mass)
    snap = build_snapshot_v1(mesh, i) if kind == "v1" else build_snapshot_v2(mesh, i, A)
    t2 = time.perf_counter()
    solvers = Counter()
    while True:
        spec = solve_local_spectral(mesh, i, snap, A, M, n_eig=n_eig)
        solvers[spec.solver] += 1
        if spec.n_complete >= L or n_eig >= snap.dim:
            break
        n_eig *= 2
    psi = select_offline_basis(snap, spec, L)
    return _Solved(psi, spec.eigenvalues, solvers, t2 - t1, time.perf_counter() - t2)


def build_offline_spaces(
    mesh,
    perm,
    fluid,
    p0,
    counts,
    kind="v1",
    dirichlet_nodes=None,
    extra_density_mass=False,
):
    """Offline spaces for several offline counts from one offline pass:
    partition of unity, the stiffness and spectral mass cell weights, then
    per neighborhood one local pencil, one snapshot space and one spectral
    solve for the largest count L, sliced for every count; one projection
    matrix per count.

    Each count is the number of offline modes of every neighborhood, an int
    >= 1.  Returns one OfflineSpace per count, in order, each with t_basis =
    the shared pass time plus its own projection assembly.  A solve asks for
    L + _EXTRA_PAIRS pairs and asks again for twice as many while the cluster
    of equal eigenvalues that holds pair L is not computed whole, so every
    space equals the one a single-count build gives, up to rounding.  A
    neighborhood with the `_patch_key` of an earlier one reuses its first L
    modes and its eigenvalues; only those two arrays are kept per key.  The
    distinct patches are solved on several processes (`workers.run`).
    """
    t0 = time.perf_counter()
    if kind not in ("v1", "v2"):
        raise ConfigError(f"unknown snapshot kind '{kind}'")
    if not counts:
        raise ConfigError("no offline basis count given")
    for n in counts:
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"offline basis count {n!r} is not an integer >= 1")
    L = max(counts)

    rho0_cell = density(cell_average(p0, mesh.fine.cell_nodes()), fluid)
    w_stiff = rho0_cell * perm.values
    w_mass = compute_kappa_tilde(mesh, perm, rho0_cell)
    if extra_density_mass:
        w_mass = w_mass * rho0_cell

    first = {}  # _patch_key -> the first neighborhood with it
    source = [  # per neighborhood, the one whose solve it takes
        first.setdefault(_patch_key(nb, kind, w_stiff, w_mass), i)
        for i, nb in enumerate(mesh.neighborhoods)
    ]
    solve = functools.partial(_solve_patch, mesh, kind, w_stiff, w_mass, L)
    jobs = sorted(
        ((i,) for i in first.values()),
        key=lambda job: -mesh.neighborhoods[job[0]].n_local,
    )
    results, n_proc = workers.run(solve, jobs)
    solved = {i: result for (i,), result in zip(jobs, results)}
    for i in sorted(solved):
        if isinstance(solved[i], Exception):
            raise solved[i]

    psis = [solved[k].psi for k in source]
    eigs = [solved[k].eigenvalues for k in source]
    starts = [_cluster_starts(lam) for lam in eigs]
    straddled = [
        sum(n < lam.size and n not in s for lam, s in zip(eigs, starts))
        for n in counts
    ]
    solvers = sum((s.solvers for s in solved.values()), Counter())
    t_pass = time.perf_counter() - t0
    log.debug(
        "offline %s pass over %d neighborhoods on %d processes in %.3f s, %d "
        "reused from an equal patch: local pencils and snapshot builds %.3f s, "
        "spectral solves %.3f s, summed over the processes (%d sparse, %d "
        "dense fallbacks); %d n_eig growth re-solves; neighborhoods with a "
        "cluster across the cut: %s",
        kind, mesh.n_neighborhoods, n_proc, t_pass,
        mesh.n_neighborhoods - len(solved),
        sum(s.t_snap for s in solved.values()),
        sum(s.t_eig for s in solved.values()),
        solvers["sparse"], solvers["fallback"],
        solvers.total() - len(solved),
        ", ".join(f"{k} at L={n}" for k, n in zip(straddled, counts)),
    )

    if dirichlet_nodes is None:
        dirichlet_nodes = np.empty(0, dtype=int)
    spaces = []
    for n in counts:
        t1 = time.perf_counter()
        projection = assemble_projection(
            mesh, [psi[:, :n] for psi in psis], dirichlet_nodes
        )
        spaces.append(OfflineSpace(
            mesh=mesh,
            projection=projection,
            lambda_next=np.array([lam[min(n, lam.size - 1)] for lam in eigs]),
            t_basis=t_pass + time.perf_counter() - t1,
        ))
    return spaces


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
    """Full offline stage for one offline count: `build_offline_spaces` with
    counts [n_basis], n_basis the number of offline modes of every
    neighborhood, an int >= 1."""
    return build_offline_spaces(
        mesh, perm, fluid, p0, [n_basis], kind=kind,
        dirichlet_nodes=dirichlet_nodes, extra_density_mass=extra_density_mass,
    )[0]

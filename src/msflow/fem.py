"""Fine-grid Q1 discretization.

Trilinear elements on cubic cells: exact element mass/stiffness matrices via
tensor products of the 1D linear-element matrices, cell-midpoint evaluation of
the density nonlinearity, backward-Euler Newton residual/Jacobian, a direct
sparse solver, and the damped-Newton time step shared by the fine and the
coarse solver: the fine solve is the case R = identity of the Galerkin-projected
step (see `_newton_step`).

Every Newton system is solved with the sparse LU kept for its basis
(`_KeptLU`): the first system is factored, every later one is solved by
iterative refinement on that LU (`_refine`, the loop `linear_solve` runs for
one step) to a residual of max(_REFINE_RTOL ||b||, _FORCING * tol * scale),
with tol * scale the absolute Newton tolerance of the time step, and a system
that _REFINE_MAXSTEPS steps do not solve, or whose residual stops falling
first, is factored, and its LU kept instead.  The fine Jacobian is factored
by SuperLU in the grid's nested dissection order (`FineGrid.dissection()`)
with no further column ordering, and a projected system in the order of its
columns' neighborhoods in the coarse vertex grid's (`CoarseGrid.dissection()`),
with SuperLU's diagonal pivot threshold at _COARSE_PIVOT.  The online local
systems (`linear_solve`) are banded: a patch's block in the box's natural
(lexicographic) node order has kl = ku <= 73 on a 16^3 r=4 mesh, and
LAPACK's banded LU factors it in that order (`_BandedLU`).  The v2 interior
blocks of the offline stage are not factored here but by a dense Cholesky
factorization (`offline.build_snapshot_v2`): at 16^3 r=4 they have 64-512
nodes and 61-386 right-hand sides, where SuperLU's triangular solves took
most of the snapshot time; at 24^3 r=8 the largest has 4096 nodes and is
128 MiB dense (the offline docstring gives the pass's peak memory).
A fine Newton system is the Jacobian operator `_Jacobian`: refinement
applies it cell by cell without assembling it, and the sparse Jacobian J
(`newton_jacobian`) is assembled only when it is factored, once per
`solve_fine` in a normal run.  Every coarse Newton iteration assembles J,
and a coarse system is its Galerkin projection R^T J R (`_Galerkin`),
which refinement applies as R^T (J (R x)) and which is formed only when it
is factored, once per basis in a normal run.  The residual, the Jacobian
and its operator read one per-cell state (`_cell_state`) of a checked p.

Every sparse operator (the Jacobian, the weighted global stiffness and mass,
and the local spectral operators of the offline stage) is assembled by
`assemble_cells`: per-cell 8x8 blocks are scattered into a CSR pattern that is
built once per (grid, Dirichlet node set) with the Dirichlet rows and columns
reduced to the diagonal.  The pattern is read off the grid's 27-point
stencil: a (node, stencil position) slot table numbers the CSR entries, and
cell entry (a, b) of cell c goes to the slot of node cn[c, a] at the
position of corner b seen from corner a (`_csr_pattern`).  No cell entry is
sorted, so the build's transient is a few n_nodes x 27 arrays.  The cached
scatter map stays int32, like scipy's CSR indices at these sizes, to keep
each cached pattern small.
"""

import functools
import logging
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    AssemblyError,
    ConfigError,
    NewtonConvergenceError,
    NumericRangeError,
    SingularMatrixError,
)
from .model import density

log = logging.getLogger(__name__)


@functools.lru_cache(maxsize=16)
def element_matrices(h):
    """Exact 8x8 stiffness and mass matrices of the unit-coefficient trilinear
    element on a cube of edge h; local node order x fastest (read-only)."""
    m1 = h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    k1 = 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
    Ke = (
        np.kron(m1, np.kron(m1, k1))
        + np.kron(m1, np.kron(k1, m1))
        + np.kron(k1, np.kron(m1, m1))
    )
    Me = np.kron(m1, np.kron(m1, m1))
    Ke.setflags(write=False)
    Me.setflags(write=False)
    return Ke, Me


# Stencil position k(b - a) of the entry (a, b) of a cell block: the offset
# from local corner a to local corner b (x fastest) as an index into the
# 27-point stencil listed by (dz, dy, dx), each in -1, 0, 1.
_CORNER = np.indices((2, 2, 2)).reshape(3, 8).T  # (z, y, x) of corner a
_CORNER_OFFSET = (_CORNER[None, :] - _CORNER[:, None] + 1) @ np.array([9, 3, 1])
_CENTRE = 13


@functools.lru_cache(maxsize=32)
def _csr_pattern(fine, dirichlet_key):
    """(indptr, indices, scatter, diag): the CSR structure of the Q1 operators
    on `fine` with the rows and columns of the Dirichlet nodes (int64 bytes)
    reduced to the diagonal, the CSR slot of each entry of the flattened
    (n_cells, 8, 8) cell blocks (slot nnz, dropped, for entries in a Dirichlet
    row or column) and the slots of the Dirichlet diagonal.

    The pattern comes from the grid, not from the cell entries: a node
    couples to the neighbours of its 27-point stencil that lie on the grid,
    listed by (dz, dy, dx), which is ascending column order; a Dirichlet row
    keeps its diagonal only, and no other row keeps a Dirichlet column.  A
    (node, stencil position) slot table numbers the kept entries row by row,
    so the cell entry (a, b) of cell c lands in slot[cn[c, a], k(b - a)]
    with k the fixed corner-offset table `_CORNER_OFFSET`; a position off the
    grid, in a Dirichlet row or in a Dirichlet column holds slot nnz.  The
    build keeps a few n_nodes x 27 arrays and sorts nothing (tracemalloc
    peak 2.1 MiB at 16^3, 15.4 MiB at 32^3).  The slots are int32, the width
    of scipy's CSR indices at these sizes: the scatter map is cached with
    the pattern, and an intp one would add 1 MiB per 16^3 pattern."""
    n = fine.n_nodes
    sx, sy, sz = fine.nx + 1, fine.ny + 1, fine.nz + 1
    dirichlet = np.frombuffer(dirichlet_key, dtype=np.int64)

    # valid[z, y, x, dz, dy, dx]: the neighbour at the offset lies on the grid
    valid = np.ones((sz, sy, sx, 3, 3, 3), dtype=bool)
    valid[0, :, :, 0] = valid[-1, :, :, 2] = False
    valid[:, 0, :, :, 0] = valid[:, -1, :, :, 2] = False
    valid[:, :, 0, :, :, 0] = valid[:, :, -1, :, :, 2] = False
    valid = valid.reshape(n, 27)
    offset = np.array([sx * sy, sx, 1]) @ (np.indices((3, 3, 3)).reshape(3, 27) - 1)
    cols = np.arange(n, dtype=np.int32)[:, None] + offset.astype(np.int32)
    if dirichlet.size:
        dmask = np.zeros(n, dtype=bool)
        dmask[dirichlet] = True
        # off-grid positions read a clipped node; they are invalid already
        valid &= ~(dmask[:, None] | dmask.take(cols, mode="clip"))
        valid[dirichlet, _CENTRE] = True

    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(valid.sum(axis=1), out=indptr[1:])
    nnz = int(indptr[-1])
    indices = cols[valid]
    del cols
    slot = np.full((n, 27), nnz, dtype=np.int32)
    slot[valid] = np.arange(nnz, dtype=np.int32)
    del valid
    diag = slot[dirichlet, _CENTRE]
    slot[dirichlet, _CENTRE] = nnz
    scatter = slot[fine.cell_nodes()[:, :, None], _CORNER_OFFSET].ravel()
    for a in (indptr, indices, scatter, diag):
        a.setflags(write=False)
    return indptr, indices, scatter, diag


def assemble_cells(fine, blocks, dirichlet_nodes=None):
    """Sum per-cell 8x8 blocks, shape (n_cells, 8, 8) in `cell_nodes()` order,
    into a CSR matrix on `fine`; the rows and columns of dirichlet_nodes are
    replaced by the identity."""
    d = np.asarray([] if dirichlet_nodes is None else dirichlet_nodes, dtype=np.int64)
    indptr, indices, scatter, diag = _csr_pattern(fine, d.tobytes())
    data = np.bincount(scatter, weights=blocks.ravel(), minlength=indices.size + 1)[:-1]
    data[diag] = 1.0
    # own index arrays, so that in-place operations on the result never reach
    # the shared pattern
    return sp.csr_matrix(
        (data, indices.copy(), indptr.copy()), shape=(fine.n_nodes, fine.n_nodes)
    )


def assemble_weighted_stiffness(fine, w_cell):
    """Global stiffness with a positive finite cell-wise weight (symmetric
    PSD; constants are in the kernel before any Dirichlet elimination)."""
    w_cell = np.asarray(w_cell, dtype=float)
    bad = ~np.isfinite(w_cell) | (w_cell <= 0)
    if np.any(bad):
        raise AssemblyError(
            f"non-positive or non-finite stiffness weight at cell {int(np.argmax(bad))}"
        )
    Ke, _ = element_matrices(fine.h)
    return assemble_cells(fine, w_cell[:, None, None] * Ke)


def assemble_weighted_mass(fine, w_cell):
    """Global consistent mass with a finite nonnegative cell-wise weight."""
    w_cell = np.asarray(w_cell, dtype=float)
    if not np.all(np.isfinite(w_cell) & (w_cell >= 0)) or not np.any(w_cell > 0):
        raise AssemblyError(
            "mass weight must be finite, nonnegative and not identically zero"
        )
    _, Me = element_matrices(fine.h)
    return assemble_cells(fine, w_cell[:, None, None] * Me)


def cell_average(p, cn):
    """Cell-wise average of a nodal field (the midpoint quadrature state) over
    the connectivity cn."""
    return np.asarray(p)[cn].mean(axis=1)


def _checked(name, p, fine):
    """p as a float array, with one entry per fine node or an AssemblyError."""
    p = np.asarray(p, dtype=float)
    if p.shape[0] != fine.n_nodes:
        raise AssemblyError(f"{name} length {p.shape[0]} != fine node count {fine.n_nodes}")
    return p


def _cell_state(p, fluid, perm, dt, fine):
    """The per-cell state that the residual and the Jacobian share: the cell
    density rho_c at the cell mean of the (checked) state p, the flux weight
    dt (kappa/mu) rho_c and Ke (p - cell mean) per cell, shape (n_cells, 8)."""
    p = _checked("p", p, fine)
    Ke, _ = element_matrices(fine.h)
    p_loc = p[fine.cell_nodes()]
    p_mean = p_loc.mean(axis=1)
    rho_c = density(p_mean, fluid)
    flux_w = dt * (perm.values / fluid.mu) * rho_c
    # Subtract the cell mean before applying Ke (constants are in its kernel):
    # analytically a no-op, numerically it keeps the large absolute pressure
    # level out of the flux roundoff.  Ke is symmetric, so the rows of
    # (p_loc - mean) Ke are the cells' Ke (p_loc - mean).
    return rho_c, flux_w, (p_loc - p_mean[:, None]) @ Ke


def newton_residual(p, p_prev, fluid, perm, dt, load, fine, boundary=None):
    """Backward-Euler Newton residual of the compressible-flow weak form.

    F_j = (phi rho(p), N_j) - (phi rho(p_prev), N_j)
          + dt ((kappa/mu) rho(p) grad p, grad N_j) - dt (q, N_j),
    with rho evaluated cell-wise at the nodal average.  Dirichlet rows are
    replaced by p_j - p_j^d.
    """
    rho_c, flux_w, kp = _cell_state(p, fluid, perm, dt, fine)
    cell_nodes = fine.cell_nodes()
    rho_prev = density(cell_average(_checked("p_prev", p_prev, fine), cell_nodes), fluid)
    acc_c = fluid.phi * (rho_c - rho_prev) * (fine.h**3 / 8.0)

    n = fine.n_nodes
    flat = cell_nodes.ravel()
    F = np.bincount(flat, weights=np.repeat(acc_c, 8), minlength=n)
    F += np.bincount(flat, weights=(flux_w[:, None] * kp).ravel(), minlength=n)
    F -= dt * load

    if boundary is not None and boundary.dirichlet_nodes.size:
        d = boundary.dirichlet_nodes
        F[d] = np.asarray(p, dtype=float)[d] - boundary.dirichlet_values
    return F


def newton_jacobian(p, fluid, perm, dt, fine, boundary=None):
    """Exact derivative of `newton_residual` with respect to the state.

    Dirichlet rows and columns are eliminated to the identity.
    """
    rho_c, flux_w, kp = _cell_state(p, fluid, perm, dt, fine)
    Ke, _ = element_matrices(fine.h)
    # flux, frozen density: dt (kappa/mu) rho_c Ke
    blocks = flux_w[:, None, None] * Ke[None, :, :]
    # accumulation: d/dp_i [phi rho_c vol8] = phi c rho_c vol8 / 8 for each i,
    # with vol8 = h^3 / 8
    blocks += (fluid.phi * fluid.c * rho_c * (fine.h**3 / 8.0) / 8.0)[:, None, None]
    # flux, density sensitivity: dt (kappa/mu) c rho_c (Ke p)_j / 8 for each i
    blocks += ((fluid.c / 8.0) * flux_w[:, None] * kp)[:, :, None]
    # free the per-cell temporaries before the assembly allocates: every
    # coarse Newton iteration gets here, and on the 16^3 run-v2-mixed
    # benchmark workload (2 vCPUs, 6 runs each) the peak RSS was 93.2-94.5
    # MiB (median 93.3) with the del and 93.9-95.9 (94.2) without; a cold
    # 16^3 fine reference, which assembles once, takes 7.0-7.5k minor page
    # faults either way
    del rho_c, flux_w, kp
    return assemble_cells(
        fine, blocks, None if boundary is None else boundary.dirichlet_nodes
    )


class _Jacobian:
    """The fine Jacobian `newton_jacobian(p, fluid, perm, dt, fine,
    boundary)` as an operator: `@` applies it without assembling it,
    `tocsc()` assembles it (only to be factored).

    The cell block of `newton_jacobian` is flux_w Ke plus two rank-one
    terms, the accumulation and the density sensitivity, each a column per
    cell times the row of ones; so the product gathers x per cell
    (`cell_nodes()`), takes flux_w (Ke x_c) plus that column times sum(x_c),
    and scatters the cell results with `np.bincount`.  Dirichlet rows and
    columns act as the identity: those entries of x are zeroed before the
    gather and copied into the result.  At 16^3 (2 vCPUs) a build and a
    product take about 0.3 ms each, where an assembly takes 1.8-3.3 ms and
    a product with the assembled J 0.06 ms."""

    def __init__(self, p, fluid, perm, dt, fine, boundary=None):
        self.args = (p, fluid, perm, dt, fine, boundary)
        rho_c, self.flux_w, kp = _cell_state(p, fluid, perm, dt, fine)
        # per cell: the rows of the two rank-one terms, times sum(x_c)
        self.rank_one = (fluid.c / 8.0) * self.flux_w[:, None] * kp
        self.rank_one += (fluid.phi * fluid.c * rho_c * (fine.h**3 / 8.0) / 8.0)[:, None]
        self.dirichlet = (
            np.empty(0, dtype=np.int64) if boundary is None else boundary.dirichlet_nodes
        )

    def __matmul__(self, x):
        fine = self.args[4]
        Ke, _ = element_matrices(fine.h)
        cell_nodes = fine.cell_nodes()
        free = x
        if self.dirichlet.size:
            free = x.copy()
            free[self.dirichlet] = 0.0
        x_c = free[cell_nodes]
        y_c = self.flux_w[:, None] * (x_c @ Ke)
        y_c += self.rank_one * x_c.sum(axis=1)[:, None]
        y = np.bincount(cell_nodes.ravel(), weights=y_c.ravel(), minlength=fine.n_nodes)
        y[self.dirichlet] = x[self.dirichlet]
        return y

    def tocsc(self):
        return newton_jacobian(*self.args).tocsc()


def _factor(A, diag_pivot_thresh=1.0):
    """Sparse LU of A (SuperLU) in the order A is given, with no column
    ordering: callers give the fine Jacobian or an offline operator on a box
    grid in the grid's `dissection()` order, and a projected system in its
    coarse grid's."""
    try:
        return spla.splu(
            sp.csc_matrix(A), permc_spec="NATURAL",
            diag_pivot_thresh=diag_pivot_thresh,
        )
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc


def _refine(lu, A, b, rtol, max_steps):
    """Iterative refinement on lu, the LU of A or of a nearby matrix:
    x = LU^-1 b, then x += LU^-1 (b - A x) until ||b - A x|| <= rtol ||b||,
    max_steps steps, or the first step that does not lower ||b - A x||
    (the residual has reached its rounding floor, or refinement diverges).
    Returns x, ||b - A x|| and the steps taken."""
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("sparse solve produced non-finite entries")
    nb = np.linalg.norm(b)
    res = b - A @ x
    nr = np.linalg.norm(res)
    steps = 0
    while nr > rtol * nb and steps < max_steps:
        x = x + lu.solve(res)
        res = b - A @ x
        last, nr = nr, np.linalg.norm(res)
        steps += 1
        if not nr < last:
            break
    return x, nr, steps


def _lu_solve(lu, A, b):
    """Solve A x = b with the LU of A, one step of iterative refinement if the
    residual exceeds 1e-10 * ||b||, and a residual-norm check.  Returns x and
    the refinement steps taken."""
    x, nr, steps = _refine(lu, A, b, 1e-10, 1)
    if not nr <= 1e-6 * np.linalg.norm(b):
        raise SingularMatrixError(
            f"linear solve residual {nr:.3e} exceeds 1e-6 * ||b|| "
            f"(near-singular matrix)"
        )
    return x, steps


@dataclass(eq=False, repr=False)
class _BandedLU:
    """LAPACK's banded LU with partial pivoting (`dgbtrf`) of a square
    sparse matrix in the order it is given, with kl subdiagonals and ku
    superdiagonals, as a solver of A x = b (`dgbtrs`)."""

    lu: np.ndarray
    piv: np.ndarray
    kl: int
    ku: int

    @classmethod
    def factor(cls, A):
        A = A.tocsr()
        n = A.shape[0]
        col = A.indices.astype(np.intp)
        off = np.repeat(np.arange(n), np.diff(A.indptr)) - col  # i - j
        kl, ku = int(off.max(initial=0)), int(-off.min(initial=0))
        # LAPACK's band storage, Fortran-ordered: A[i, j] in row
        # kl + ku + i - j of column j, the first kl rows left for the fill
        # of the row exchanges; bincount sums duplicate entries, as a sparse
        # matrix does
        ldab = 2 * kl + ku + 1
        ab = np.bincount(
            col * ldab + (kl + ku) + off, weights=A.data, minlength=ldab * n
        ).reshape(n, ldab).T
        lu, piv, info = lapack.dgbtrf(ab, kl, ku, overwrite_ab=True)
        if info > 0:
            raise SingularMatrixError(
                f"banded factorization failed: zero pivot in column {info - 1}"
            )
        return cls(lu, piv, kl, ku)

    def solve(self, b):
        return lapack.dgbtrs(self.lu, self.kl, self.ku, b, self.piv)[0]


def linear_solve(A, b):
    """Direct solve of the square sparse A with a residual-norm check, on
    LAPACK's banded LU (`_BandedLU`) in the order A is given: callers give
    the operator of a box in its natural (lexicographic) node order, whose
    band is narrow.  The band storage takes (2 kl + ku + 1) n 8 bytes, 0.9 MB
    for the 512-node online blocks of a 16^3 r=4 mesh (kl = ku = 73); the
    largest r=8 block, of 4335 nodes, takes about 32 MB."""
    return _lu_solve(_BandedLU.factor(A), A, np.asarray(b, dtype=float))[0]


# A Newton system is solved by iterative refinement on a kept LU to this
# relative residual, or to _FORCING times the absolute Newton tolerance of its
# time step if that is larger; one that has not converged after
# _REFINE_MAXSTEPS steps, or whose residual stops falling first, is solved by
# factoring its own matrix, whose LU is kept instead.
_REFINE_RTOL = 1e-12
_REFINE_MAXSTEPS = 20
# The inexact-Newton forcing term (Dembo, Eisenstat & Steihaug 1982): with d
# the computed update, F(p + d) = (F + J d) + O(|d|^2) and |F + J d| is the
# solve's residual, so a residual below 1 % of the Newton tolerance can move
# the stopping test only where the exact residual is within 1 % of it.  On the
# 16^3 references it halves the LU solves; 10 % moved e_l2 by 3.6e-8 relative.
_FORCING = 1e-2
# SuperLU's diagonal pivot threshold for a projected system in its coarse
# dissection order: a diagonal pivot is kept while it is at least this
# fraction of its column's largest entry.  On sweep-wells (seed 0, 2 vCPUs,
# dims 500/595/1000) it factors in 4.5/9.2/29.4 ms with fill 93k/174k/437k,
# against 18.0/31.6/131.8 ms and 109k/171k/483k on `MMD_ATA` with partial
# pivoting, residuals 3e-14 to 2e-13 (1e-9 with dependent online columns)
# either way.  0.1 was faster still at dim 1000 (20.5 ms, fill 329k), but on
# the near-singular systems of two online rounds it left the kept-LU and the
# refactored coarse states 2.0e-10 apart, against 8.3e-11 at 0.5 and 1.0.
_COARSE_PIVOT = 0.5


@dataclass(eq=False, repr=False)
class _ReorderedLU:
    """The LU of A[order][:, order] as a solver of A x = b."""

    lu: object
    order: np.ndarray

    def solve(self, b):
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x


class _KeptLU:
    """The sparse LU kept for the Newton systems of one basis: the fine
    Jacobians of a `solve_fine` call, factored in the node order `order` (the
    fine grid's `dissection()`), or the projected systems R^T J R of one
    coarse basis matrix R, factored in the column order `order`
    (`ProjectionMatrix.factor_order`).  With c small the Jacobian barely
    moves over a run, so a few refinement steps replace a factorization.
    counts, a Counter that the kept LUs of one run may share, gets the LU
    solves (refinement included) as "lu_solves" and the factorizations as
    "factorizations"."""

    def __init__(self, order, R=None):
        self.order = order
        self.R = R
        self.lu = None
        self.counts = Counter()

    def release(self):
        self.lu = None

    def solve(self, J, b, step=0, it=0, target=0.0):
        """Solve J x = b; refinement on the kept LU stops once
        ||b - J x|| <= max(_REFINE_RTOL ||b||, target).  J is a sparse
        matrix, a `_Jacobian` or a `_Galerkin`; refinement only applies it,
        and it is formed (`tocsc`) only to be factored.  step and it (time
        step, Newton iteration) name a refactored system in the log."""
        system = "fine Jacobian" if self.R is None else "projected Newton system"
        if self.lu is not None:
            nb = np.linalg.norm(b)
            rtol = max(_REFINE_RTOL, target / nb) if target else _REFINE_RTOL
            x, nr, steps = _refine(self.lu, J, b, rtol, _REFINE_MAXSTEPS)
            self.counts["lu_solves"] += 1 + steps
            if nr <= rtol * nb:
                return x
            log.debug(
                f"refactoring the {system} at time step %d, Newton iteration "
                "%d: refinement not converged after %d steps",
                step, it, steps,
            )
            self.lu = None  # never two factorizations alive at once
        try:
            A, o = J.tocsc(), self.order
            pivot = 1.0 if self.R is None else _COARSE_PIVOT
            self.lu = _ReorderedLU(_factor(A[:, o][o], pivot), o)
            self.counts["factorizations"] += 1
            x, steps = _lu_solve(self.lu, J, b)
            self.counts["lu_solves"] += 1 + steps
            return x
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"{system} of dimension {b.size} is singular: {exc}"
            ) from exc


@dataclass
class NewtonConfig:
    """Newton controls.

    Convergence per time step: ||F|| <= tol * max(1, ||F at the step's
    initial guess||).  When a damped step can no longer reduce the residual
    (floating-point floor of the assembly/solve at these magnitudes) the
    iterate is accepted provided the residual has already dropped below
    stall_ratio times the same scale; otherwise Newton fails.
    """

    tol: float = 1e-6
    max_iter: int = 25
    damping: float = 1.0
    stall_ratio: float = 1e-3

    def __post_init__(self):
        # tol >= 1 accepts every initial guess, so no Newton step would run
        if not 0 < self.tol < 1:
            raise ConfigError(f"newton.tol must be in (0, 1), got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"newton.max_iter must be >= 1, got {self.max_iter}")
        if not 0 < self.damping <= 1:
            raise ConfigError(f"newton.damping must be in (0, 1], got {self.damping}")


@dataclass
class FineSolution:
    states: list
    newton_iters: list = field(default_factory=list)
    t_ass: float = 0.0
    t_solve: float = 0.0

    @property
    def final(self):
        return self.states[-1]


def _initial_state(problem):
    """The initial state with the Dirichlet values imposed."""
    p = problem.p0.copy()
    if problem.boundary.dirichlet_nodes.size:
        p[problem.boundary.dirichlet_nodes] = problem.boundary.dirichlet_values
    return p


@dataclass(eq=False, repr=False)
class _Galerkin:
    """R^T J R, the Galerkin projection of the Jacobian J on the columns of
    R: `@` applies it without forming it, `tocsc()` forms it (only to be
    factored)."""

    R: object
    J: object

    def __matmul__(self, x):
        return self.R.T @ (self.J @ (self.R @ x))

    def tocsc(self):
        return (self.R.T @ (self.J @ self.R)).tocsc()


def _newton_step(p_prev, problem, config, sol, step, kept):
    """One backward-Euler step by damped Newton; returns the accepted state.

    Each Newton system is solved with the `_KeptLU` kept, to _FORCING times
    the absolute tolerance config.tol * scale; without a basis matrix it is
    the fine system, the Jacobian operator `_Jacobian`, which is assembled
    only when the kept LU factors it.  Given the basis matrix R of the kept
    LU, the residual and the Jacobian are still assembled on the fine grid,
    each Newton system is Galerkin-projected (`_Galerkin`: R^T J R, and
    R^T F) and the update is prolonged with R; convergence, damping and the
    stall guard then act on ||R^T F||.  The residual at the accepted
    line-search point is the next iteration's.  A residual whose norm is
    not finite raises NumericRangeError.  Appends the iteration count to
    sol.newton_iters and the assembly (every residual, line-search trials
    included, every fine Jacobian operator and every coarse iteration's
    Jacobian) and solve (assembly for a factorization, projection and
    refinement included) wall time to sol.t_ass/sol.t_solve.

    The coarse systems keep the assembled J on purpose.  With R^T (J (R x))
    on the operator as well (a prototype, 16^3 benchmark, 2 vCPUs), each
    coarse run's t_ass fell by 0.05-0.08 s and its t_solve rose by
    0.04-0.10 s, and the benchmark wall time did not move over 10 pairs;
    and on the near-singular systems of two online rounds with dependent
    online columns the kept-LU and the refactored coarse states were
    1.1e-10 apart, against 8.3e-11 (`tests/test_properties.py` bounds the
    gap at 1e-10).
    """
    fine = problem.fine
    R = kept.R

    def residual(p):
        """Fine residual at p, its projection and the projection's norm."""
        t0 = time.perf_counter()
        F = newton_residual(
            p, p_prev, problem.fluid, problem.perm, problem.time.dt,
            problem.load, fine, problem.boundary,
        )
        sol.t_ass += time.perf_counter() - t0
        Fc = F if R is None else R.T @ F
        with np.errstate(over="ignore"):
            nF = np.linalg.norm(Fc)
        if not np.isfinite(nF):
            raise NumericRangeError(
                f"Newton residual norm at time step {step} is not finite "
                f"({nF}): the problem's values are out of floating-point range"
            )
        return F, Fc, nF

    p = p_prev.copy()
    F, Fc, nF = residual(p)
    scale = max(1.0, nF)
    iters = 0
    for _ in range(config.max_iter):
        if nF <= config.tol * scale:
            break
        t0 = time.perf_counter()
        args = (p, problem.fluid, problem.perm, problem.time.dt, fine, problem.boundary)
        A = _Jacobian(*args) if R is None else _Galerkin(R, newton_jacobian(*args))
        sol.t_ass += time.perf_counter() - t0
        t0 = time.perf_counter()
        delta = kept.solve(A, -Fc, step, iters + 1, _FORCING * config.tol * scale)
        sol.t_solve += time.perf_counter() - t0
        if R is not None:
            delta = R @ delta  # prolong the coarse update

        alpha = config.damping
        reduced = False
        for _ in range(5):
            trial = p + alpha * delta
            F_trial, Fc_trial, n_trial = residual(trial)
            if n_trial < nF:
                reduced = True
                break
            alpha *= 0.5
        if not reduced:
            # numerical floor: no step direction reduces the residual
            if nF <= config.stall_ratio * scale:
                log.warning(
                    "Newton stalled at time step %d: accepted residual norm "
                    "%.3e (scale %.3e) after %d iterations",
                    step, nF, scale, iters,
                )
                break
            raise NewtonConvergenceError(step, iters, float(nF))
        p, F, Fc, nF = trial, F_trial, Fc_trial, n_trial
        iters += 1
    else:
        raise NewtonConvergenceError(step, config.max_iter, float(nF))
    sol.newton_iters.append(iters)
    return p


def _log_solves(run, sol, counts):
    """The DEBUG record of a returning fine or coarse run: its Newton
    systems and the LU solves and factorizations of its kept LUs."""
    log.debug(
        "%s: %d Newton systems, %d LU solves, %d factorizations",
        run, sum(sol.newton_iters), counts["lu_solves"], counts["factorizations"],
    )


def solve_fine(problem, config=None):
    """Backward-Euler time loop on the fine grid with plain (damped) Newton;
    all its Newton systems share one `_KeptLU`, freed on return."""
    config = config or NewtonConfig()
    p = _initial_state(problem)
    sol = FineSolution(states=[p])
    kept = _KeptLU(order=problem.fine.dissection())
    try:
        for step in range(1, problem.time.n_steps + 1):
            p = _newton_step(p, problem, config, sol, step, kept)
            sol.states.append(p)
    finally:
        kept.release()
    _log_solves("fine solve", sol, kept.counts)
    return sol

"""Fine-grid Q1 discretization.

Trilinear elements on cubic cells: exact element mass/stiffness matrices via
tensor products of the 1D linear-element matrices, cell-midpoint evaluation of
the density nonlinearity, backward-Euler Newton residual/Jacobian, a direct
sparse solver, and the damped-Newton time step shared by the fine and the
coarse solver: the fine solve is the case R = identity of the Galerkin-projected
step (see `_newton_step`).
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, NewtonConvergenceError, SingularMatrixError
from .model import density

log = logging.getLogger(__name__)


def element_matrices(h):
    """Exact 8x8 stiffness and mass matrices of the unit-coefficient trilinear
    element on a cube of edge h; local node order x fastest."""
    m1 = h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    k1 = 1.0 / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
    Ke = (
        np.kron(m1, np.kron(m1, k1))
        + np.kron(m1, np.kron(k1, m1))
        + np.kron(k1, np.kron(m1, m1))
    )
    Me = np.kron(m1, np.kron(m1, m1))
    return Ke, Me


def assemble_from_cells(cell_nodes, n_dof, w, elem):
    """Assemble sum_cells w_c * elem over the given connectivity into CSR."""
    w = np.asarray(w, dtype=float)
    data = w[:, None, None] * elem[None, :, :]
    rows = np.repeat(cell_nodes, 8, axis=1).ravel()
    cols = np.tile(cell_nodes, (1, 8)).ravel()
    A = sp.coo_matrix((data.ravel(), (rows, cols)), shape=(n_dof, n_dof))
    return A.tocsr()


def assemble_weighted_stiffness(fine, w_cell, cell_nodes=None, n_dof=None):
    """Global stiffness with a positive cell-wise weight (symmetric PSD;
    constants are in the kernel before any Dirichlet elimination)."""
    w_cell = np.asarray(w_cell, dtype=float)
    if np.any(w_cell <= 0):
        bad = int(np.argmax(w_cell <= 0))
        raise AssemblyError(f"non-positive stiffness weight at cell {bad}")
    Ke, _ = element_matrices(fine.h)
    if cell_nodes is None:
        cell_nodes = fine.cell_nodes()
        n_dof = fine.n_nodes
    return assemble_from_cells(cell_nodes, n_dof, w_cell, Ke)


def assemble_weighted_mass(fine, w_cell, cell_nodes=None, n_dof=None):
    """Global consistent mass with a nonnegative cell-wise weight."""
    w_cell = np.asarray(w_cell, dtype=float)
    if np.any(w_cell < 0) or not np.any(w_cell > 0):
        raise AssemblyError("mass weight must be nonnegative and not identically zero")
    _, Me = element_matrices(fine.h)
    if cell_nodes is None:
        cell_nodes = fine.cell_nodes()
        n_dof = fine.n_nodes
    return assemble_from_cells(cell_nodes, n_dof, w_cell, Me)


def cell_average(p, cell_nodes):
    """Cell-wise average of a nodal field (the midpoint quadrature state)."""
    return np.asarray(p)[cell_nodes].mean(axis=1)


def newton_residual(p, p_prev, fluid, perm, dt, load, fine, boundary=None, cell_nodes=None):
    """Backward-Euler Newton residual of the compressible-flow weak form.

    F_j = (phi rho(p), N_j) - (phi rho(p_prev), N_j)
          + dt ((kappa/mu) rho(p) grad p, grad N_j) - dt (q, N_j),
    with rho evaluated cell-wise at the nodal average.  Dirichlet rows are
    replaced by p_j - p_j^d.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[0] != fine.n_nodes:
        raise AssemblyError(
            f"state length {p.shape[0]} != fine node count {fine.n_nodes}"
        )
    if cell_nodes is None:
        cell_nodes = fine.cell_nodes()
    Ke, _ = element_matrices(fine.h)

    p_loc = p[cell_nodes]
    p_mean = p_loc.mean(axis=1)
    rho_c = density(p_mean, fluid)
    rho_prev = density(cell_average(p_prev, cell_nodes), fluid)

    vol8 = fine.h**3 / 8.0
    acc_c = fluid.phi * (rho_c - rho_prev) * vol8

    # Subtract the cell mean before applying Ke (constants are in its kernel):
    # analytically a no-op, numerically it keeps the large absolute pressure
    # level out of the flux roundoff.
    flux_w = dt * (perm.values / fluid.mu) * rho_c
    e_flux = flux_w[:, None] * np.einsum(
        "ab,cb->ca", Ke, p_loc - p_mean[:, None]
    )

    n = fine.n_nodes
    flat = cell_nodes.ravel()
    F = np.bincount(flat, weights=np.repeat(acc_c, 8), minlength=n)
    F += np.bincount(flat, weights=e_flux.ravel(), minlength=n)
    F -= dt * load

    if boundary is not None and boundary.dirichlet_nodes.size:
        F[boundary.dirichlet_nodes] = (
            p[boundary.dirichlet_nodes] - boundary.dirichlet_values
        )
    return F


def newton_jacobian(p, fluid, perm, dt, fine, boundary=None, cell_nodes=None):
    """Exact derivative of `newton_residual` with respect to the state.

    Dirichlet rows and columns are eliminated to the identity.
    """
    p = np.asarray(p, dtype=float)
    if cell_nodes is None:
        cell_nodes = fine.cell_nodes()
    Ke, _ = element_matrices(fine.h)
    n = fine.n_nodes

    p_loc = p[cell_nodes]
    p_mean = p_loc.mean(axis=1)
    rho_c = density(p_mean, fluid)

    vol8 = fine.h**3 / 8.0
    # accumulation: d/dp_i [phi rho_c vol8] = phi c rho_c vol8 / 8 for each i
    acc = (fluid.phi * fluid.c * rho_c * vol8 / 8.0)[:, None, None] * np.ones((1, 8, 8))
    # flux, frozen density: dt (kappa/mu) rho_c Ke
    flux_w = dt * (perm.values / fluid.mu) * rho_c
    stiff = flux_w[:, None, None] * Ke[None, :, :]
    # flux, density sensitivity: dt (kappa/mu) c rho_c (Ke p)_j / 8 for each i
    kp = np.einsum("ab,cb->ca", Ke, p_loc - p_mean[:, None])
    dens = (fluid.c / 8.0) * flux_w[:, None, None] * kp[:, :, None] * np.ones((1, 1, 8))

    data = (acc + stiff + dens).ravel()
    rows = np.repeat(cell_nodes, 8, axis=1).ravel()
    cols = np.tile(cell_nodes, (1, 8)).ravel()

    if boundary is not None and boundary.dirichlet_nodes.size:
        dmask = np.zeros(n, dtype=bool)
        dmask[boundary.dirichlet_nodes] = True
        keep = ~(dmask[rows] | dmask[cols])
        rows = np.concatenate([rows[keep], boundary.dirichlet_nodes])
        cols = np.concatenate([cols[keep], boundary.dirichlet_nodes])
        data = np.concatenate([data[keep], np.ones(boundary.dirichlet_nodes.size)])

    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def linear_solve(A, b, rtol=1e-10):
    """Direct sparse solve with a residual-norm check."""
    b = np.asarray(b, dtype=float)
    try:
        lu = spla.splu(sp.csc_matrix(A))
        x = lu.solve(b)
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse factorization failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError("sparse solve produced non-finite entries")
    nb = np.linalg.norm(b)
    if nb > 0:
        res = b - A @ x
        # one step of iterative refinement if the factorization left a
        # larger-than-requested residual
        if np.linalg.norm(res) > rtol * nb:
            x = x + lu.solve(res)
            res = b - A @ x
        if np.linalg.norm(res) > 1e-6 * nb:
            raise SingularMatrixError(
                f"linear solve residual {np.linalg.norm(res):.3e} "
                f"exceeds 1e-6 * ||b|| (near-singular matrix)"
            )
    return x


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
        if self.tol <= 0 or self.max_iter < 1 or not 0 < self.damping <= 1:
            raise AssemblyError("invalid Newton configuration")


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


def _solve_projected(R, J, rhs):
    """Solve the Galerkin-projected system (R^T J R) x = rhs: dense up to 4000
    unknowns, sparse LU above."""
    Jc = R.T @ (J @ R)
    if sp.issparse(Jc) and Jc.shape[0] <= 4000:
        try:
            return np.linalg.solve(Jc.toarray(), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(
                f"projected Newton system of dimension {Jc.shape[0]} is "
                f"singular: {exc}"
            ) from exc
    return linear_solve(Jc, rhs)


def _newton_step(p_prev, problem, config, cell_nodes, sol, step, R=None):
    """One backward-Euler step by damped Newton; returns the accepted state.

    R=None solves the fine system.  Given a basis matrix R, the residual and
    Jacobian are still assembled on the fine grid, each Newton system is
    Galerkin-projected (R^T J R, R^T F) and the update is prolonged with R;
    convergence, damping and the stall guard then act on ||R^T F||.  The
    residual at the accepted line-search point is the next iteration's.
    Appends the iteration count to sol.newton_iters and the assembly (every
    residual, line-search trials included, and every Jacobian) and solve wall
    time to sol.t_ass/sol.t_solve.
    """
    fine = problem.fine

    def residual(p):
        """Fine residual at p, its projection and the projection's norm."""
        t0 = time.perf_counter()
        F = newton_residual(
            p, p_prev, problem.fluid, problem.perm, problem.time.dt,
            problem.load, fine, problem.boundary, cell_nodes,
        )
        sol.t_ass += time.perf_counter() - t0
        Fc = F if R is None else R.T @ F
        return F, Fc, np.linalg.norm(Fc)

    p = p_prev.copy()
    F, Fc, nF = residual(p)
    scale = max(1.0, nF)
    iters = 0
    for _ in range(config.max_iter):
        if nF <= config.tol * scale:
            break
        t0 = time.perf_counter()
        J = newton_jacobian(
            p, problem.fluid, problem.perm, problem.time.dt, fine,
            problem.boundary, cell_nodes,
        )
        sol.t_ass += time.perf_counter() - t0
        t0 = time.perf_counter()
        delta = linear_solve(J, -F) if R is None else _solve_projected(R, J, -Fc)
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


def solve_fine(problem, config=None):
    """Backward-Euler time loop on the fine grid with plain (damped) Newton."""
    config = config or NewtonConfig()
    cell_nodes = problem.fine.cell_nodes()
    p = _initial_state(problem)
    sol = FineSolution(states=[p])
    for step in range(1, problem.time.n_steps + 1):
        p = _newton_step(p, problem, config, cell_nodes, sol, step)
        sol.states.append(p)
    return sol

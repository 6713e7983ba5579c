"""Residual-driven online basis enrichment.

At scheduled time steps the coarse solution's localized residual is used as
the load of a zero-Dirichlet local solve with the current Jacobian; the
resulting vectors replace the previous online block of the projection matrix,
each stored on its patch only, as (patch, free rows, values).
A per-neighborhood error indicator (dual-norm of the residual scaled by the
first discarded eigenvalue) supports selective enrichment.

`enrich_projection` finds every patch's free global rows once per call
(`_free_rows`), and in each round takes each patch's load -F[rows] and
Jacobian block J[rows, rows] once, and passes them down to the error
indicator and the local solve alike.  The rows are in the patch box's
natural (lexicographic) node order, so each block is banded, and
`fem.linear_solve` factors it with LAPACK's banded LU in that order.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SingularMatrixError
from .fem import (
    _Galerkin,
    _KeptLU,
    linear_solve,
    newton_jacobian,
    newton_residual,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class UpdateSchedule:
    """Online enrichment plan: vectors per neighborhood and the 1-based time
    steps at which the online block is recomputed (replace semantics)."""

    n_online: int
    update_steps: tuple

    def __post_init__(self):
        if self.n_online < 0:
            raise ConfigError("online basis count must be >= 0")
        if self.n_online > 0 and not self.update_steps:
            raise ConfigError("online basis requested but no update steps given")
        if len(set(self.update_steps)) < len(self.update_steps):
            raise ConfigError(
                f"online.updates repeats a step: {list(self.update_steps)}"
            )

    def validate(self, n_steps):
        for s in self.update_steps:
            if not 1 <= s <= n_steps:
                raise ConfigError(
                    f"online update step {s} outside time grid [1, {n_steps}]"
                )

    @staticmethod
    def none():
        return UpdateSchedule(n_online=0, update_steps=())

    @staticmethod
    def evenly_spaced(n_online, n_updates, n_steps):
        """Updates at step 1 plus (n_updates - 1) evenly spaced later steps,
        the last at step max(n_updates, n_steps (n_updates - 1) // n_updates):
        n_updates distinct steps, inside the time grid if n_updates <= n_steps."""
        if n_updates <= 1:
            return UpdateSchedule(n_online=n_online, update_steps=(1,))
        last = max(n_updates, n_steps * (n_updates - 1) // n_updates)
        steps = np.unique(np.round(np.linspace(1, last, n_updates)).astype(int))
        return UpdateSchedule(n_online=n_online, update_steps=tuple(int(s) for s in steps))


def _free_rows(mesh, dirichlet_nodes):
    """Global rows of each patch's zero-Dirichlet online solve: patch nodes
    off the constrained patch boundary and off the global Dirichlet set, in
    the patch box's natural (lexicographic) node order, the order their
    banded local systems are factored in."""
    dmask = np.zeros(mesh.fine.n_nodes, dtype=bool)
    dmask[dirichlet_nodes] = True
    return [nb.nodes[nb.free_mask & ~dmask[nb.nodes]] for nb in mesh.neighborhoods]


def _local_solve(what, i, r, A):
    """x with A x = r, the local system of patch i, or None when the load r
    vanishes; a singular A raises a SingularMatrixError that says the
    `what` failed on neighborhood i."""
    if np.linalg.norm(r) == 0.0:
        return None
    try:
        return linear_solve(A, r)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"{what} failed on neighborhood {i}: {exc}") from exc


def solve_online_vector(i, r, J_loc):
    """Solve the Jacobian block J_loc of patch i with its localized residual
    r as load, and normalize the solution in the local energy norm.

    r is the negated global Newton residual on the patch's free rows: for
    test functions supported in the patch interior, exactly the localized
    weak residual dt*(q, v) - (phi*drho, v) - dt*(flux, grad v).

    Returns the local vector, or None when the load vanishes (nothing to
    enrich) or the solution has no positive energy (dropped, with a WARNING).
    """
    x = _local_solve("online solve", i, r, J_loc)
    if x is None:
        return None
    energy = float(x @ (J_loc @ x))  # x . J_sym x without forming J_sym
    if energy <= 0:
        log.warning("neighborhood %d: online vector dropped, its local energy "
                    "%.6g is not positive", i, energy)
        return None
    return x / np.sqrt(energy)


def error_indicator(i, r, J_loc, lambda_next):
    """eta_i = ||r||^2 in the inverse norm of the symmetric part of J_loc,
    the Jacobian block of patch i, scaled by 1/lambda_{L_i+1}."""
    x = _local_solve("error indicator solve", i, r, 0.5 * (J_loc + J_loc.T))
    return 0.0 if x is None else float(r @ x) / float(lambda_next)


def enrich_projection(
    projection, mesh, problem, p_state, n_online, top_k=None, lambda_next=None
):
    """Compute the online block at the current state and install it in place
    of any previous online columns.

    The residual is the coming time step's at its initial guess: p_state is
    both the previous state and the trial state.

    For n_online >= 2 the construction is iterative: after each round the
    trial state is corrected by one projected Newton step in the temporarily
    enriched space and the residual is recomputed.

    Returns the number of vectors added.
    """
    if n_online < 0:
        raise ConfigError(f"online vector count {n_online} below 0")
    if top_k is not None and top_k < 1:
        raise ConfigError(f"top-k enrichment of {top_k} neighborhoods, below 1")
    if n_online == 0:
        return 0
    top = top_k is not None and top_k < mesh.n_neighborhoods
    if top and lambda_next is None:
        raise ConfigError("top-k enrichment needs the offline eigenvalues")
    rows = _free_rows(mesh, problem.boundary.dirichlet_nodes)

    new_cols = []
    p = p_state.copy()
    for round_ in range(n_online):
        F = newton_residual(
            p, p_state, problem.fluid, problem.perm, problem.time.dt,
            problem.load, problem.fine, problem.boundary,
        )
        J = newton_jacobian(
            p, problem.fluid, problem.perm, problem.time.dt, problem.fine,
            problem.boundary,
        )
        # each patch's load and Jacobian block, taken once per round; a
        # uniform round takes them one patch at a time, not all held at once
        local = ((i, -F[ri], J[np.ix_(ri, ri)]) for i, ri in enumerate(rows))
        if top:
            local = list(local)
            etas = [
                error_indicator(i, r, J_loc, lambda_next[i])
                for i, r, J_loc in local
            ]
            local = [local[j] for j in sorted(np.argsort(etas)[::-1][:top_k])]
        round_cols = []
        for i, r, J_loc in local:
            x = solve_online_vector(i, r, J_loc)
            if x is not None:
                round_cols.append((i, rows[i], x))
        new_cols.extend(round_cols)
        if round_ + 1 < n_online and round_cols:
            # correct the trial state in the temporarily enriched space, on
            # the round's Jacobian (assembled at p)
            projection.set_online(new_cols)
            R = projection.matrix()
            p = p + R @ _KeptLU(projection.factor_order(mesh.coarse), R).solve(
                _Galerkin(R, J), -(R.T @ F)
            )

    # stable column order: neighborhood ascending, round order preserved
    new_cols.sort(key=lambda t: t[0])
    projection.set_online(new_cols)
    return len(new_cols)

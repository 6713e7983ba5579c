"""Residual-driven online basis enrichment.

At scheduled time steps the coarse solution's localized residual is used as
the load of a zero-Dirichlet local solve with the current Jacobian; the
resulting vectors replace the previous online block of the projection matrix.
A per-neighborhood error indicator (dual-norm of the residual scaled by the
first discarded eigenvalue) supports selective enrichment.
"""

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

    def validate(self, n_steps):
        for s in self.update_steps:
            if not 1 <= s <= max(1, n_steps):
                raise ConfigError(
                    f"online update step {s} outside time grid [1, {n_steps}]"
                )

    @staticmethod
    def none():
        return UpdateSchedule(n_online=0, update_steps=())

    @staticmethod
    def evenly_spaced(n_online, n_updates, n_steps):
        """Updates at step 1 plus (n_updates - 1) evenly spaced later steps."""
        if n_updates <= 1:
            return UpdateSchedule(n_online=n_online, update_steps=(1,))
        steps = np.unique(
            np.round(np.linspace(1, max(1, n_steps * (n_updates - 1) // n_updates),
                                 n_updates)).astype(int)
        )
        return UpdateSchedule(n_online=n_online, update_steps=tuple(int(s) for s in steps))


@dataclass
class LocalResidual:
    values: np.ndarray  # over all local DOFs of the patch
    free_local: np.ndarray  # local indices taking part in the solve


def _free_local_dofs(mesh, i, dirichlet_nodes):
    """Local DOFs for the zero-Dirichlet online solve: patch nodes off the
    constrained patch boundary and off the global Dirichlet set, in the
    patch box's `dissection()` order, the order their local systems are
    factored in."""
    nb = mesh.neighborhoods[i]
    mask = nb.free_mask.copy()
    if dirichlet_nodes is not None and len(dirichlet_nodes):
        dmask = np.zeros(mesh.fine.n_nodes, dtype=bool)
        dmask[dirichlet_nodes] = True
        mask &= ~dmask[nb.nodes]
    order = nb.box.dissection()
    return order[mask[order]]


def compute_local_residual(mesh, i, F_global, dirichlet_nodes=None):
    """Restriction of the (negated) global Newton residual to patch i.

    For test functions supported in the patch interior this is exactly the
    localized weak residual dt*(q, v) - (phi*drho, v) - dt*(flux, grad v).
    """
    nb = mesh.neighborhoods[i]
    if F_global.shape[0] != mesh.fine.n_nodes:
        raise ConfigError("global residual has wrong length")
    return LocalResidual(
        values=-F_global[nb.nodes],
        free_local=_free_local_dofs(mesh, i, dirichlet_nodes),
    )


def solve_online_vector(mesh, i, local_residual, J_global):
    """Solve the Jacobian-restricted local problem with the localized residual
    as load; extend by zero and normalize in the local energy norm.

    Returns the fine vector, or None when the local residual vanishes
    (nothing to enrich).
    """
    nb = mesh.neighborhoods[i]
    free = local_residual.free_local
    r = local_residual.values[free]
    if free.size == 0 or np.linalg.norm(r) == 0.0:
        return None
    rows = nb.nodes[free]
    J_loc = J_global[np.ix_(rows, rows)]
    try:
        x = linear_solve(J_loc, r)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"online solve failed on neighborhood {i}: {exc}"
        ) from exc
    energy = float(x @ (J_loc @ x))  # x . J_sym x without forming J_sym
    if energy <= 0:
        return None
    v = np.zeros(mesh.fine.n_nodes)
    v[rows] = x / np.sqrt(energy)
    return v


def error_indicator(mesh, i, local_residual, J_global, lambda_next):
    """eta_i = ||r||^2 in the inverse symmetric-Jacobian norm, scaled by
    1/lambda_{L_i+1}."""
    nb = mesh.neighborhoods[i]
    free = local_residual.free_local
    r = local_residual.values[free]
    if free.size == 0 or np.linalg.norm(r) == 0.0:
        return 0.0
    rows = nb.nodes[free]
    J_loc = J_global[np.ix_(rows, rows)]
    J_sym = 0.5 * (J_loc + J_loc.T)
    try:
        x = linear_solve(J_sym, r)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"error indicator solve failed on neighborhood {i}: {exc}"
        ) from exc
    return float(r @ x) / float(lambda_next)


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
    if n_online == 0:
        return 0
    fine = problem.fine
    dirichlet = problem.boundary.dirichlet_nodes
    ids = list(range(mesh.n_neighborhoods))

    new_cols = []
    p = p_state.copy()
    for round_ in range(n_online):
        F = newton_residual(
            p, p_state, problem.fluid, problem.perm, problem.time.dt,
            problem.load, fine, problem.boundary,
        )
        J = newton_jacobian(
            p, problem.fluid, problem.perm, problem.time.dt, fine,
            problem.boundary,
        )
        chosen = ids
        if top_k is not None and top_k < len(ids):
            if lambda_next is None:
                raise ConfigError("top-k enrichment needs the offline eigenvalues")
            etas = [
                error_indicator(
                    mesh, i,
                    compute_local_residual(mesh, i, F, dirichlet),
                    J, lambda_next[i],
                )
                for i in ids
            ]
            order = np.argsort(etas)[::-1]
            chosen = sorted(int(ids[j]) for j in order[:top_k])
        round_cols = []
        for i in chosen:
            lr = compute_local_residual(mesh, i, F, dirichlet)
            v = solve_online_vector(mesh, i, lr, J)
            if v is not None:
                round_cols.append((i, v))
        new_cols.extend(round_cols)
        if round_ + 1 < n_online and round_cols:
            # correct the trial state in the temporarily enriched space, on
            # the round's Jacobian (assembled at p)
            projection.set_online(new_cols)
            R = projection.matrix()
            p = p + R @ _KeptLU(R).solve(_Galerkin(R, J), -(R.T @ F))

    # stable column order: neighborhood ascending, round order preserved
    new_cols.sort(key=lambda t: t[0])
    projection.set_online(new_cols)
    return len(new_cols)

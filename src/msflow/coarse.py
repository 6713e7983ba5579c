"""Coarse-grid time loop on the Galerkin-projected system.

The coarse state is kept as its fine-grid prolongation (the density
nonlinearity is evaluated on fine cells).  Each time step runs the fine
solver's damped-Newton driver (`fem._newton_step`) with the current basis
matrix R: the fine residual and Jacobian are projected to (R^T J R, R^T F),
the small system is solved and the update prolonged.  Scheduled online
enrichment replaces the online columns of R between steps.
"""

import time
from dataclasses import dataclass, field

from .fem import FineSolution, NewtonConfig, _initial_state, _newton_step
from .online import UpdateSchedule, enrich_projection


@dataclass
class CoarseResult(FineSolution):
    dim_history: list = field(default_factory=list)
    t_basis_online: float = 0.0


def gmsfem_step(p_prev, projection, problem, config, result, step):
    """One backward-Euler step solved by Newton in the span of the basis
    columns; returns the accepted fine-grid prolonged state."""
    return _newton_step(
        p_prev, problem, config, result, step, R=projection.matrix()
    )


def solve_gmsfem(problem, offline_space, schedule=None, config=None):
    """Full coarse time loop with scheduled online enrichment.

    At each scheduled step the online block is recomputed (before the first
    Newton iteration) from the residual at the previous accepted state and
    replaces the previous online columns.
    """
    schedule = schedule or UpdateSchedule.none()
    config = config or NewtonConfig()
    schedule.validate(problem.time.n_steps)
    mesh = offline_space.mesh
    projection = offline_space.projection

    p = _initial_state(problem)
    result = CoarseResult(states=[p])
    for step in range(1, problem.time.n_steps + 1):
        if schedule.n_online > 0 and step in schedule.update_steps:
            t0 = time.perf_counter()
            enrich_projection(
                projection, mesh, problem,
                p_state=p, p_prev=p, n_online=schedule.n_online,
            )
            result.t_basis_online += time.perf_counter() - t0
        p = gmsfem_step(p, projection, problem, config, result, step)
        result.states.append(p)
        result.dim_history.append(projection.dim)
    return result

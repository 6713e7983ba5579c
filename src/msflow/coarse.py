"""Coarse-grid time loop on the Galerkin-projected system.

The coarse state is kept as its fine-grid prolongation (the density
nonlinearity is evaluated on fine cells).  Each time step runs the fine
solver's damped-Newton driver (`fem._newton_step`) with the current basis
matrix R: the fine residual is projected to R^T F, R^T J R is assembled
from the Jacobian's cell blocks coarse cell by coarse cell (the basis's
gather, `fem._cell_gather`), the small dense system is solved and the
update prolonged.  Scheduled online enrichment replaces the online columns of
R between steps.
"""

import time
from dataclasses import dataclass, field

from .fem import (
    FineSolution,
    NewtonConfig,
    _cell_gather,
    _initial_state,
    _newton_step,
)
from .online import UpdateSchedule, enrich_projection


@dataclass
class CoarseResult(FineSolution):
    dim_history: list = field(default_factory=list)
    t_basis_online: float = 0.0


def gmsfem_step(p_prev, gather, problem, config, result, step):
    """One backward-Euler step solved by Newton in the span of the basis
    columns, given as their coarse-cell gather; returns the accepted
    fine-grid prolonged state."""
    return _newton_step(p_prev, problem, config, result, step, gather=gather)


def solve_gmsfem(problem, offline_space, schedule=None, config=None):
    """Full coarse time loop with scheduled online enrichment.

    Every run starts from the offline space: any online block a previous run
    left on it is dropped on entry.  At each scheduled step the online block
    is recomputed (before the first Newton iteration) from the residual at
    the previous accepted state and replaces the previous online columns.
    The run builds the gather of its basis when the basis changes and frees
    it on return, so a space kept for later runs holds no solver buffers.
    """
    schedule = schedule or UpdateSchedule.none()
    config = config or NewtonConfig()
    schedule.validate(problem.time.n_steps)
    mesh = offline_space.mesh
    projection = offline_space.projection
    projection.set_online([])
    dirichlet = problem.boundary.dirichlet_nodes

    p = _initial_state(problem)
    result = CoarseResult(states=[p])
    gather = None
    for step in range(1, problem.time.n_steps + 1):
        if schedule.n_online > 0 and step in schedule.update_steps:
            gather = None  # frees the old basis's dense R^T J R buffer
            t0 = time.perf_counter()
            enrich_projection(projection, mesh, problem, p, schedule.n_online)
            result.t_basis_online += time.perf_counter() - t0
        if gather is None:
            gather = _cell_gather(mesh, projection.matrix(), dirichlet)
        p = gmsfem_step(p, gather, problem, config, result, step)
        result.states.append(p)
        result.dim_history.append(projection.dim)
    return result

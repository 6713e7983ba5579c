"""Coarse-grid time loop on the Galerkin-projected system.

The coarse state is kept as its fine-grid prolongation (the density
nonlinearity is evaluated on fine cells).  Each time step runs the fine
solver's damped-Newton driver (`fem._newton_step`) with the current basis
matrix R: the fine residual and the sparse fine Jacobian are projected to
R^T F and R^T J R, which is solved with the sparse LU kept for the basis
(`fem._KeptLU`, R^T J R formed only to be factored, in the coarse grid's
nested dissection order of the columns' neighborhoods), and the update is
prolonged.  Newton starts from the extrapolation of the states solved in the
current basis when that is closer (`fem._extrapolate`).
Scheduled online enrichment replaces the online columns of R between steps,
and the extrapolation starts anew with the new basis.
"""

import time
from collections import Counter
from dataclasses import dataclass, field

from .fem import (
    FineSolution,
    NewtonConfig,
    _extrapolate,
    _initial_state,
    _KeptLU,
    _log_solves,
    _newton_step,
)
from .online import UpdateSchedule, enrich_projection


@dataclass
class CoarseResult(FineSolution):
    dim_history: list = field(default_factory=list)
    t_basis_online: float = 0.0


def gmsfem_step(p_prev, kept, problem, config, result, step, guess=None):
    """One backward-Euler step solved by Newton in the span of the basis
    columns, given as the `_KeptLU` of their matrix, from the start guess
    `guess` if it is given and closer than p_prev; returns the accepted
    fine-grid prolonged state."""
    return _newton_step(p_prev, problem, config, result, step, kept, guess)


def solve_gmsfem(problem, offline_space, schedule=None, config=None):
    """Full coarse time loop with scheduled online enrichment.

    Every run starts from the offline space: any online block a previous run
    left on it is dropped on entry.  At each scheduled step the online block
    is recomputed (before the first Newton iteration) from the residual at
    the previous accepted state and replaces the previous online columns.
    The run builds the kept LU of its basis when the basis changes and frees
    it on return, so a kept space holds no solver state; the kept LUs of the
    run share one count of LU solves and factorizations.  Each step after a
    basis's first starts Newton from the extrapolation of the states solved
    in that basis (`fem._extrapolate`) when its projected residual is
    smaller than the previous state's; a step at an online update starts
    from the previous state, since the old basis's increments lie outside
    the new span.
    """
    schedule = schedule or UpdateSchedule.none()
    config = config or NewtonConfig()
    schedule.validate(problem.time.n_steps)
    mesh = offline_space.mesh
    projection = offline_space.projection
    projection.set_online([])

    p = _initial_state(problem)
    result = CoarseResult(states=[p])
    kept, counts = None, Counter()
    for step in range(1, problem.time.n_steps + 1):
        if schedule.n_online > 0 and step in schedule.update_steps:
            kept = None  # frees the old basis's LU
            t0 = time.perf_counter()
            enrich_projection(projection, mesh, problem, p, schedule.n_online)
            result.t_basis_online += time.perf_counter() - t0
        if kept is None:
            kept = _KeptLU(
                projection.factor_order(mesh.coarse), projection.matrix()
            )
            kept.counts = counts
            first = step - 1  # the state this basis starts from
        guess = _extrapolate(result.states[max(first, step - 3):])
        p = gmsfem_step(p, kept, problem, config, result, step, guess)
        result.states.append(p)
        result.dim_history.append(projection.dim)
    _log_solves("coarse solve", result, counts)
    return result

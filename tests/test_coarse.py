import logging

import numpy as np
import pytest
import scipy.sparse as sp

from msflow.coarse import solve_gmsfem
from msflow.errors import NewtonConvergenceError, SingularMatrixError
from msflow.fem import NewtonConfig, solve_fine
from msflow.model import TimeGrid, make_problem
from msflow.offline import OfflineSpace, ProjectionMatrix, build_offline_space
from msflow.online import UpdateSchedule, enrich_projection


def _identity_space(mesh, dirichlet_nodes):
    n = mesh.fine.n_nodes
    pm = ProjectionMatrix(
        n, sp.identity(n, format="csr"), [0] * n, dirichlet_nodes
    )
    return OfflineSpace(
        mesh=mesh, projection=pm, n_basis=[],
        lambda_next=np.ones(mesh.n_neighborhoods),
    )


def test_identity_projection_matches_fine(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "mixed-bc",
    )
    ref = solve_fine(prob)
    res = solve_gmsfem(
        prob, _identity_space(mesh4, prob.boundary.dirichlet_nodes)
    )
    dev = np.abs(np.asarray(res.states) - np.asarray(ref.states)).max()
    assert dev <= 1e-10 * np.abs(np.asarray(ref.states)).max()


def test_constant_steady_state_zero_iterations(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=3),
        "neumann-wells", well_rate=0.0,
    )
    space = build_offline_space(mesh4, uniform_perm4, fluid, prob.p0, 2)
    res = solve_gmsfem(prob, space)
    assert sum(res.newton_iters) == 0
    for s in res.states:
        assert np.allclose(s, prob.p0, rtol=1e-12)


def test_zero_steps_returns_initial_only(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=0),
        "mixed-bc",
    )
    space = build_offline_space(
        mesh4, uniform_perm4, fluid, prob.p0, 2,
        dirichlet_nodes=prob.boundary.dirichlet_nodes,
    )
    res = solve_gmsfem(prob, space)
    assert len(res.states) == 1
    # the initial coarse state carries the Dirichlet lift
    d = prob.boundary.dirichlet_nodes
    assert np.array_equal(res.states[0][d], prob.boundary.dirichlet_values)


def test_empty_schedule_equals_offline_only(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "mixed-bc",
    )
    space = build_offline_space(
        mesh4, uniform_perm4, fluid, prob.p0, 2,
        dirichlet_nodes=prob.boundary.dirichlet_nodes,
    )
    a = solve_gmsfem(prob, space, schedule=None)
    b = solve_gmsfem(prob, space, schedule=UpdateSchedule.none())
    assert np.array_equal(np.asarray(a.states), np.asarray(b.states))
    assert a.dim_history == b.dim_history


def test_online_schedule_changes_dim_history(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "neumann-wells", well_rate=1e8,
    )
    space = build_offline_space(mesh4, uniform_perm4, fluid, prob.p0, 2)
    res = solve_gmsfem(prob, space, UpdateSchedule(1, (1,)))
    assert res.t_basis_online > 0.0
    n_off = 2 * mesh4.n_neighborhoods
    assert all(d > n_off for d in res.dim_history)
    # constant dimension after the single update (replace semantics)
    assert len(set(res.dim_history)) == 1


def test_projected_residual_below_tolerance(mesh4, fluid, uniform_perm4):
    from msflow.fem import newton_residual
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "mixed-bc",
    )
    space = build_offline_space(
        mesh4, uniform_perm4, fluid, prob.p0, 3,
        dirichlet_nodes=prob.boundary.dirichlet_nodes,
    )
    cfg = NewtonConfig()
    res = solve_gmsfem(prob, space, config=cfg)
    R = space.projection.matrix()
    for n in (1, 2):
        F0 = newton_residual(
            res.states[n - 1], res.states[n - 1], fluid, uniform_perm4,
            prob.time.dt, prob.load, mesh4.fine, prob.boundary,
        )
        F = newton_residual(
            res.states[n], res.states[n - 1], fluid, uniform_perm4,
            prob.time.dt, prob.load, mesh4.fine, prob.boundary,
        )
        # accepted steps satisfy the projected-residual criterion
        # (tol relative to the step's initial residual, stall floor 1e-3)
        scale = max(1.0, np.linalg.norm(R.T @ F0))
        assert np.linalg.norm(R.T @ F) <= cfg.stall_ratio * scale


def test_nonconvergence_carries_step(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "mixed-bc",
    )
    space = build_offline_space(
        mesh4, uniform_perm4, fluid, prob.p0, 2,
        dirichlet_nodes=prob.boundary.dirichlet_nodes,
    )
    cfg = NewtonConfig(tol=1e-300, max_iter=2, stall_ratio=1e-300)
    with pytest.raises(NewtonConvergenceError) as exc:
        solve_gmsfem(prob, space, config=cfg)
    assert exc.value.step == 1


def test_stall_acceptance_logs_warning(mesh4, fluid, uniform_perm4, caplog):
    """An unreachable tolerance ends both solvers on the stall guard (fine
    iterations [5, 6], coarse [7, 5] here), which must not pass silently."""
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "neumann-wells", well_rate=1e8,
    )
    space = build_offline_space(mesh4, uniform_perm4, fluid, prob.p0, 2)
    with caplog.at_level(logging.WARNING, logger="msflow"):
        solve_fine(prob)
        solve_gmsfem(prob, space)
    assert not caplog.records

    cfg = NewtonConfig(tol=1e-300)
    for solve in (lambda: solve_fine(prob, cfg),
                  lambda: solve_gmsfem(prob, space, config=cfg)):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="msflow"):
            res = solve()
        stalls = [r for r in caplog.records if "stalled" in r.getMessage()]
        assert [r.levelno for r in stalls] == [logging.WARNING] * 2
        assert [int(r.args[0]) for r in stalls] == [1, 2]
        assert all(0 < it < cfg.max_iter for it in res.newton_iters)


def _space_with_zero_column(mesh, space):
    """The offline space plus one all-zero basis column, which makes every
    projected Jacobian exactly singular."""
    pm = space.projection
    offline = sp.hstack([pm.offline, sp.csr_matrix((pm.n_fine, 1))])
    bad = ProjectionMatrix(
        pm.n_fine, offline, pm.col_nb + [0], pm.dirichlet_nodes
    )
    return OfflineSpace(
        mesh=mesh, projection=bad, n_basis=space.n_basis,
        lambda_next=space.lambda_next,
    )


def test_singular_projected_system_raises(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "neumann-wells", well_rate=1e8,
    )
    space = _space_with_zero_column(
        mesh4, build_offline_space(mesh4, uniform_perm4, fluid, prob.p0, 2)
    )
    with pytest.raises(SingularMatrixError, match="projected Newton system"):
        solve_gmsfem(prob, space)


def test_singular_online_corrector_raises(mesh4, fluid, uniform_perm4):
    """With two online rounds the trial state is corrected by a projected
    Newton step in between; a singular projected system must stay typed."""
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "neumann-wells", well_rate=1e8,
    )
    space = _space_with_zero_column(
        mesh4, build_offline_space(mesh4, uniform_perm4, fluid, prob.p0, 2)
    )
    with pytest.raises(SingularMatrixError, match="projected Newton system"):
        enrich_projection(
            space.projection, mesh4, prob, p_state=prob.p0, p_prev=prob.p0,
            n_online=2,
        )


def test_subspace_monotonicity(mesh8, fluid):
    """Adding basis columns must not noticeably worsen the final error."""
    from msflow.fem import assemble_weighted_mass
    from msflow.harness import relative_l2_error
    from msflow.model import generate_channel_field
    perm = generate_channel_field(mesh8.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=4, n_inclusions=4)
    prob = make_problem(
        mesh8.fine, fluid, perm, TimeGrid(dt=2.5e-5, n_steps=5), "mixed-bc"
    )
    ref = solve_fine(prob)
    M = assemble_weighted_mass(mesh8.fine, np.ones(mesh8.fine.n_cells))
    errs = []
    for L in (2, 4):
        space = build_offline_space(
            mesh8, perm, fluid, prob.p0, L,
            dirichlet_nodes=prob.boundary.dirichlet_nodes,
        )
        res = solve_gmsfem(prob, space)
        errs.append(relative_l2_error(res.final, ref.final, M))
    assert errs[1] <= 1.05 * errs[0]

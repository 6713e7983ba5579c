import gc
import logging
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from msflow import coarse, fem, online
from msflow.coarse import solve_gmsfem
from msflow.errors import NewtonConvergenceError, SingularMatrixError
from msflow.fem import NewtonConfig, solve_fine
from msflow.model import TimeGrid, generate_channel_field, make_problem
from msflow.offline import OfflineSpace, ProjectionMatrix, build_offline_space
from msflow.online import UpdateSchedule, enrich_projection


def _identity_space(mesh):
    n = mesh.fine.n_nodes
    pm = ProjectionMatrix(sp.identity(n, format="csr"), [0] * n)
    return OfflineSpace(
        mesh=mesh, projection=pm, lambda_next=np.ones(mesh.n_neighborhoods)
    )


def test_identity_projection_matches_fine(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "mixed-bc",
    )
    ref = solve_fine(prob)
    res = solve_gmsfem(prob, _identity_space(mesh4))
    dev = np.abs(np.asarray(res.states) - np.asarray(ref.states)).max()
    assert dev <= 1e-10 * np.abs(np.asarray(ref.states)).max()


def test_coarse_solve_frees_its_kept_lu(mesh4, fluid, uniform_perm4, monkeypatch):
    """A coarse solve builds the kept LU of its basis once per basis and
    frees it, so a space kept for later runs holds no solver state."""
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "neumann-wells", well_rate=1e8,
    )
    space = build_offline_space(mesh4, uniform_perm4, fluid, prob.p0, 2)
    built = []  # (weak reference, dimension) per kept LU
    kept_lu = coarse._KeptLU

    def recording_kept_lu(R):
        kept = kept_lu(R)
        built.append((weakref.ref(kept), R.shape[1]))
        return kept

    monkeypatch.setattr(coarse, "_KeptLU", recording_kept_lu)
    solve_gmsfem(prob, space, UpdateSchedule(1, (2,)))
    assert len(built) == 2 and built[0][1] < built[1][1]  # offline, enriched
    gc.collect()
    assert all(ref() is None for ref, _ in built)


def test_coarse_newton_uses_the_one_sparse_jacobian(mesh8, fluid, uniform_perm8,
                                                   monkeypatch):
    """Every coarse Newton iteration and every online round assembles the
    sparse fine Jacobian (`fem.newton_jacobian`) once: the projected systems
    and the online corrector have no assembly path of their own."""
    prob = make_problem(
        mesh8.fine, fluid, uniform_perm8, TimeGrid(dt=2.5e-5, n_steps=3),
        "neumann-wells", well_rate=1e8,
    )
    space = build_offline_space(mesh8, uniform_perm8, fluid, prob.p0, 2)
    calls = []
    jacobian = fem.newton_jacobian

    def counting_jacobian(*args, **kwargs):
        calls.append(None)
        return jacobian(*args, **kwargs)

    monkeypatch.setattr(fem, "newton_jacobian", counting_jacobian)
    monkeypatch.setattr(online, "newton_jacobian", counting_jacobian)
    schedule = UpdateSchedule(2, (1, 3))
    res = solve_gmsfem(prob, space, schedule)
    rounds = schedule.n_online * len(schedule.update_steps)
    assert sum(res.newton_iters) > 0
    assert len(calls) == sum(res.newton_iters) + rounds


def test_coarse_refactorization_logged_at_debug(mesh8, fluid, uniform_perm8,
                                               caplog, monkeypatch):
    """A normal coarse solve logs nothing at DEBUG but its closing record of
    counts.  With the refinement cap at 0 every projected system after its
    basis's first refactors, and each refactorization is one DEBUG record on
    msflow.fem naming the time step and the Newton iteration."""
    prob = make_problem(
        mesh8.fine, fluid, uniform_perm8, TimeGrid(dt=2.5e-5, n_steps=3),
        "neumann-wells", well_rate=1e8,
    )
    space = build_offline_space(mesh8, uniform_perm8, fluid, prob.p0, 2)
    schedule = UpdateSchedule(1, (2,))
    with caplog.at_level(logging.DEBUG, logger="msflow.fem"):
        ref = solve_gmsfem(prob, space, schedule)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["coarse solve"]

    caplog.clear()
    monkeypatch.setattr(fem, "_REFINE_MAXSTEPS", 0)
    with caplog.at_level(logging.DEBUG, logger="msflow.fem"):
        res = solve_gmsfem(prob, space, schedule)
    assert res.newton_iters == ref.newton_iters
    *refactorings, closing = caplog.records
    assert closing.getMessage().startswith("coarse solve:")
    systems = [
        [(step, it, 0) for it in range(1, res.newton_iters[step - 1] + 1)]
        for step in range(1, 4)
    ]
    # step 1 is the offline basis, steps 2-3 the enriched one
    later = systems[0][1:] + (systems[1] + systems[2])[1:]
    assert len(later) >= 3
    assert [r.args for r in refactorings] == later
    for r in refactorings:
        assert r.levelno == logging.DEBUG
        assert "refactoring the projected Newton system" in r.getMessage()


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


def test_every_run_starts_from_the_offline_space(mesh8, fluid):
    """An offline-only run on a space that an enriched run used first keeps
    none of its online columns: it equals the same run on a fresh space."""
    from msflow.model import generate_channel_field
    perm = generate_channel_field(mesh8.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=4, n_inclusions=4)
    prob = make_problem(
        mesh8.fine, fluid, perm, TimeGrid(dt=2.5e-5, n_steps=3),
        "neumann-wells", well_rate=1e8,
    )

    def offline_space():
        return build_offline_space(mesh8, perm, fluid, prob.p0, 2)

    shared = offline_space()
    enriched = solve_gmsfem(prob, shared, UpdateSchedule(1, (1,)))
    assert enriched.dim_history == [81, 81, 81]
    again = solve_gmsfem(prob, shared)
    fresh = solve_gmsfem(prob, offline_space())
    assert again.dim_history == fresh.dim_history == [54, 54, 54]
    assert np.array_equal(np.asarray(again.states), np.asarray(fresh.states))


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
    offline = sp.hstack([pm.offline, sp.csr_matrix((pm.offline.shape[0], 1))])
    bad = ProjectionMatrix(offline, pm.col_nb + [0])
    return OfflineSpace(mesh=mesh, projection=bad, lambda_next=space.lambda_next)


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
            space.projection, mesh4, prob, p_state=prob.p0, n_online=2
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


def _channel_wells(mesh8, fluid):
    """A wells problem on a channel field and its offline space (L=3)."""
    perm = generate_channel_field(mesh8.fine, seed=1, background=1.0,
                                  channel=1e4, n_channels=4, n_inclusions=4)
    prob = make_problem(mesh8.fine, fluid, perm, TimeGrid(dt=2.5e-5, n_steps=4),
                        "neumann-wells", well_rate=1e8)
    return prob, build_offline_space(mesh8, perm, fluid, prob.p0, 3)


def test_kept_lu_solves_to_the_forcing_target(mesh8, fluid, monkeypatch):
    """Every Newton system of a fine reference and of a coarse run with an
    online update, solved on its kept LU, ends with ||b - A x|| <=
    max(1e-12 ||b||, 0.01 tol scale), scale = max(1, ||b|| of the step's
    first system): the x it returns is that of its last refinement
    (`_refine`), and some systems stop on the forcing target, above
    1e-12 ||b||."""
    prob, space = _channel_wells(mesh8, fluid)
    tol = NewtonConfig().tol
    refined, solved = [], []  # x of each _refine; (step, it, A, b, x) per system
    refine, solve = fem._refine, fem._KeptLU.solve

    def spy_refine(lu, A, b, rtol, max_steps):
        out = refine(lu, A, b, rtol, max_steps)
        refined.append(out[0])
        return out

    def spy_solve(kept, J, b, step=0, it=0, target=0.0):
        x = solve(kept, J, b, step, it, target)
        assert x is refined[-1]
        solved.append((step, it, J, b, x))
        return x

    monkeypatch.setattr(fem, "_refine", spy_refine)
    monkeypatch.setattr(fem._KeptLU, "solve", spy_solve)
    runs = []
    for run in (lambda: solve_fine(prob),
                lambda: solve_gmsfem(prob, space, UpdateSchedule(1, (3,)))):
        solved.clear()
        sol = run()
        assert len(solved) == sum(sol.newton_iters) > 0
        runs.append(list(solved))
    forced = 0
    for systems in runs:
        for step, it, A, b, x in systems:
            if it == 1:
                scale = max(1.0, np.linalg.norm(b))
            nb, nr = np.linalg.norm(b), np.linalg.norm(b - A @ x)
            assert nr <= max(1e-12 * nb, 0.01 * tol * scale)
            forced += nr > 1e-12 * nb
    assert forced > 0


def test_forcing_term_cuts_the_logged_lu_solves(mesh8, fluid, caplog, monkeypatch):
    """solve_fine and solve_gmsfem each log one DEBUG record on msflow.fem
    as they return: Newton systems, LU solves and factorizations.  The
    forcing term takes the same Newton iterations with fewer LU solves than
    refining every system to 1e-12 (_FORCING = 0), and as many
    factorizations: one per basis."""
    prob, space = _channel_wells(mesh8, fluid)
    schedule = UpdateSchedule(1, (3,))

    def logged():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="msflow.fem"):
            sols = solve_fine(prob), solve_gmsfem(prob, space, schedule)
        records = [r for r in caplog.records if r.msg.startswith("%s: ")]
        assert [r.name for r in records] == ["msflow.fem"] * 2
        assert [r.args[0] for r in records] == ["fine solve", "coarse solve"]
        for sol, r in zip(sols, records):
            assert r.args[1] == sum(sol.newton_iters)
        return [r.args[1:] for r in records]

    forced = logged()
    monkeypatch.setattr(fem, "_FORCING", 0.0)
    exact = logged()
    assert [f[2] for f in forced] == [e[2] for e in exact] == [1, 2]
    for (systems, solves, _), (systems0, solves0, _) in zip(forced, exact):
        assert systems == systems0 and solves < solves0

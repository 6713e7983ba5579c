import logging
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from msflow import fem
from msflow.errors import (
    AssemblyError,
    ConfigError,
    NewtonConvergenceError,
    SingularMatrixError,
)
from msflow.fem import (
    NewtonConfig,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    cell_average,
    element_matrices,
    linear_solve,
    newton_jacobian,
    newton_residual,
    solve_fine,
)
from msflow.grid import FineGrid
from msflow.model import (
    FluidProps,
    PermeabilityField,
    TimeGrid,
    density,
    make_problem,
)


def test_element_matrices_basic():
    Ke, Me = element_matrices(1.0)
    # constants in the stiffness kernel
    assert np.allclose(Ke @ np.ones(8), 0.0, atol=1e-14)
    # diagonal of the trilinear stiffness on the unit cube
    assert Ke[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert np.allclose(Ke, Ke.T)
    # mass total = cell volume, row sum = volume/8
    assert Me.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(Me.sum(axis=1), 1.0 / 8.0)


def test_element_matrices_scaling():
    Ke1, Me1 = element_matrices(1.0)
    Ke2, Me2 = element_matrices(2.0)
    # stiffness scales like h, mass like h^3
    assert np.allclose(Ke2, 2.0 * Ke1)
    assert np.allclose(Me2, 8.0 * Me1)


def test_stiffness_constant_kernel(mesh4):
    A = assemble_weighted_stiffness(mesh4.fine, np.full(mesh4.fine.n_cells, 3.0))
    v = np.ones(mesh4.fine.n_nodes)
    assert np.abs(A @ v).max() <= 1e-12 * np.abs(A.data).max()


def test_stiffness_matches_hand_assembly(mesh4):
    w = np.arange(1.0, mesh4.fine.n_cells + 1.0)
    A = assemble_weighted_stiffness(mesh4.fine, w).toarray()
    Ke, _ = element_matrices(mesh4.fine.h)
    oracle = np.zeros((mesh4.fine.n_nodes, mesh4.fine.n_nodes))
    cn = mesh4.fine.cell_nodes()
    for c in range(mesh4.fine.n_cells):
        for a in range(8):
            for b in range(8):
                oracle[cn[c, a], cn[c, b]] += w[c] * Ke[a, b]
    assert np.allclose(A, oracle, rtol=1e-13, atol=1e-13)


def test_stiffness_rejects_nonpositive_weight(mesh4):
    """A negative, NaN or infinite weight is named by its cell."""
    for bad in (-1.0, np.nan, np.inf):
        w = np.ones(mesh4.fine.n_cells)
        w[5] = bad
        with pytest.raises(AssemblyError, match="cell 5"):
            assemble_weighted_stiffness(mesh4.fine, w)
    with pytest.raises(AssemblyError, match="cell 0"):
        assemble_weighted_stiffness(mesh4.fine, np.full(mesh4.fine.n_cells, np.nan))


def test_mass_linearity_and_spd(mesh4):
    M1 = assemble_weighted_mass(mesh4.fine, np.ones(mesh4.fine.n_cells))
    M2 = assemble_weighted_mass(mesh4.fine, np.full(mesh4.fine.n_cells, 2.0))
    assert np.allclose(M2.toarray(), 2.0 * M1.toarray())
    ev = np.linalg.eigvalsh(M1.toarray())
    assert ev.min() > 0


def test_mass_rejects_bad_weight(mesh4):
    """An all-zero weight, and one with a negative, NaN or infinite cell."""
    with pytest.raises(AssemblyError):
        assemble_weighted_mass(mesh4.fine, np.zeros(mesh4.fine.n_cells))
    for bad in (-1.0, np.nan, np.inf):
        w = np.ones(mesh4.fine.n_cells)
        w[5] = bad
        with pytest.raises(AssemblyError):
            assemble_weighted_mass(mesh4.fine, w)


@pytest.mark.parametrize("face", [False, True])
def test_pattern_build_memory_is_stencil_sized(face):
    """One uncached 16^3 pattern build peaks below 6 MiB under tracemalloc,
    with or without an x=0 Dirichlet face (a sort of all n_cells * 64 int64
    cell-entry keys peaked at 14.8-15.4 MiB)."""
    fine = FineGrid(16, 16, 16, 1.0)
    fine.cell_nodes()  # the shared connectivity is not part of the build
    i, _, _ = fine.node_ijk(np.arange(fine.n_nodes))
    dirichlet = np.flatnonzero(i == 0) if face else np.array([], dtype=np.int64)
    tracemalloc.start()
    try:
        fem._csr_pattern.__wrapped__(fine, dirichlet.astype(np.int64).tobytes())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_cell_average(mesh4):
    p = np.arange(mesh4.fine.n_nodes, dtype=float)
    cn = mesh4.fine.cell_nodes()
    assert np.allclose(cell_average(p, cn), p[cn].mean(axis=1))


def test_residual_zero_at_constant_steady_state(mesh4, fluid, uniform_perm4):
    p = np.full(mesh4.fine.n_nodes, fluid.p_ref)
    F = newton_residual(
        p, p, fluid, uniform_perm4, 1.0, np.zeros(mesh4.fine.n_nodes), mesh4.fine
    )
    assert np.abs(F).max() <= 1e-10


def test_residual_matches_per_term_oracle(mesh4, fluid):
    """Term-by-term quadrature oracle: explicit loops over cells."""
    fine = mesh4.fine
    rng = np.random.default_rng(7)
    perm = PermeabilityField(rng.uniform(1.0, 2.0, fine.n_cells))
    p = fluid.p_ref * (1.0 + 1e-3 * rng.standard_normal(fine.n_nodes))
    p_prev = fluid.p_ref * (1.0 + 1e-3 * rng.standard_normal(fine.n_nodes))
    load = rng.standard_normal(fine.n_nodes)
    dt = 2.5e-5

    F = newton_residual(p, p_prev, fluid, perm, dt, load, fine)

    Ke, _ = element_matrices(fine.h)
    cn = fine.cell_nodes()
    oracle = -dt * load.copy()
    for c in range(fine.n_cells):
        nodes = cn[c]
        rho = density(p[nodes].mean(), fluid)
        rho_prev = density(p_prev[nodes].mean(), fluid)
        oracle[nodes] += fluid.phi * (rho - rho_prev) * fine.h**3 / 8.0
        oracle[nodes] += dt * perm.values[c] / fluid.mu * rho * (Ke @ p[nodes])
    assert np.allclose(F, oracle, rtol=1e-9, atol=1e-9 * np.abs(oracle).max())


def test_residual_dirichlet_rows(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=1.0, n_steps=1), "mixed-bc"
    )
    p = prob.p0 + 10.0
    F = newton_residual(
        p, prob.p0, fluid, uniform_perm4, prob.time.dt, prob.load,
        mesh4.fine, prob.boundary,
    )
    d = prob.boundary.dirichlet_nodes
    assert np.allclose(F[d], p[d] - prob.boundary.dirichlet_values)


def test_residual_dimension_mismatch(mesh4, fluid, uniform_perm4):
    with pytest.raises(AssemblyError):
        newton_residual(
            np.ones(5), np.ones(5), fluid, uniform_perm4, 1.0,
            np.zeros(mesh4.fine.n_nodes), mesh4.fine,
        )


@pytest.mark.parametrize("delta", [-5, 5])
@pytest.mark.parametrize("arg", ["residual p", "residual p_prev", "jacobian p"])
def test_wrong_length_state_raises(mesh4, fluid, uniform_perm4, arg, delta):
    """A state shorter or longer than the node count is refused by name, in
    the residual and the Jacobian alike (the Jacobian once took a long state
    silently and raised a bare IndexError for a short one)."""
    n = mesh4.fine.n_nodes
    p = np.full(n, fluid.p_ref)
    bad = np.full(n + delta, fluid.p_ref)
    name = arg.split()[1]
    with pytest.raises(AssemblyError, match=f"^{name} length {n + delta} != .* {n}$"):
        if arg == "jacobian p":
            newton_jacobian(bad, fluid, uniform_perm4, 1.0, mesh4.fine)
        else:
            states = (bad, p) if name == "p" else (p, bad)
            newton_residual(*states, fluid, uniform_perm4, 1.0, np.zeros(n), mesh4.fine)


def test_jacobian_finite_differences(mesh4, fluid):
    rng = np.random.default_rng(11)
    perm = PermeabilityField(rng.uniform(1.0, 3.0, mesh4.fine.n_cells))
    n = mesh4.fine.n_nodes
    p = fluid.p_ref * (1.0 + 0.01 * rng.standard_normal(n))
    p_prev = np.full(n, fluid.p_ref)
    load = np.zeros(n)
    dt = 2.5e-5
    J = newton_jacobian(p, fluid, perm, dt, mesh4.fine).toarray()
    delta = 1e-6 * np.abs(p).max()
    for i in rng.choice(n, 8, replace=False):
        e = np.zeros(n)
        e[i] = delta
        fd = (
            newton_residual(p + e, p_prev, fluid, perm, dt, load, mesh4.fine)
            - newton_residual(p - e, p_prev, fluid, perm, dt, load, mesh4.fine)
        ) / (2 * delta)
        denom = max(1.0, np.abs(J[:, i]).max())
        assert np.abs(fd - J[:, i]).max() / denom <= 1e-6


def test_jacobian_symmetric_at_flat_state(mesh4, fluid, uniform_perm4):
    # at grad p = 0 the non-symmetric density-sensitivity term vanishes
    p = np.full(mesh4.fine.n_nodes, fluid.p_ref)
    J = newton_jacobian(p, fluid, uniform_perm4, 1.0, mesh4.fine)
    D = (J - J.T).tocoo()
    asym = np.abs(D.data).max() if D.nnz else 0.0
    assert asym <= 1e-12 * np.abs(J.data).max()


def test_jacobian_incompressible_limit(mesh4, uniform_perm4):
    # c -> 0: accumulation and density-sensitivity terms vanish; J reduces to
    # dt * stiffness weighted by kappa rho_ref / mu
    props = FluidProps(mu=5.0, phi=500.0, c=1e-30, rho_ref=850.0, p_ref=2e7)
    rng = np.random.default_rng(2)
    p = props.p_ref * (1.0 + 1e-3 * rng.standard_normal(mesh4.fine.n_nodes))
    dt = 2.5e-5
    J = newton_jacobian(p, props, uniform_perm4, dt, mesh4.fine).toarray()
    K = assemble_weighted_stiffness(
        mesh4.fine, np.full(mesh4.fine.n_cells, props.rho_ref / props.mu)
    ).toarray()
    assert np.allclose(J, dt * K, rtol=1e-10, atol=1e-10 * np.abs(K).max() * dt)


def test_jacobian_dirichlet_identity(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=1.0, n_steps=1), "mixed-bc"
    )
    J = newton_jacobian(
        prob.p0, fluid, uniform_perm4, prob.time.dt, mesh4.fine, prob.boundary
    ).toarray()
    d = prob.boundary.dirichlet_nodes
    free = np.setdiff1d(np.arange(mesh4.fine.n_nodes), d)
    assert np.allclose(J[np.ix_(d, d)], np.eye(d.size))
    assert np.all(J[np.ix_(d, free)] == 0.0)
    assert np.all(J[np.ix_(free, d)] == 0.0)


def test_linear_solve_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(linear_solve(sp.identity(3, format="csr"), b), b)


def test_linear_solve_hand_case():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = linear_solve(A, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0], rtol=1e-13)


def test_linear_solve_residual_bound():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((50, 50))
    A = sp.csr_matrix(B @ B.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x = linear_solve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_linear_solve_singular():
    A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError, match="zero pivot in column 1"):
        linear_solve(A, np.array([1.0, 2.0]))


@pytest.mark.parametrize("kind", ["diagonal", "lower", "upper", "1x1"])
def test_linear_solve_banded_hand_cases(kind):
    """The banded LU at its band's edges: no band (kl = ku = 0), one
    triangle only (kl = 0 or ku = 0) and a single entry."""
    rng = np.random.default_rng(7)
    n = 1 if kind == "1x1" else 9
    D = np.diag(rng.uniform(1.0, 2.0, n))
    T = np.tril(rng.uniform(-1.0, 1.0, (n, n)), -1)
    dense = {"diagonal": D, "lower": D + T, "upper": D + T.T, "1x1": D}[kind]
    b = rng.standard_normal(n)
    x = linear_solve(sp.csr_matrix(dense), b)
    assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-13, atol=0.0)


def test_linear_solve_nan_entry_raises_without_warning():
    """A NaN entry gives a non-finite solve, which is a SingularMatrixError,
    and no RuntimeWarning on the way."""
    A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [1.0, np.nan, 1.0], [0.0, 1.0, 2.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError, match="non-finite"):
            linear_solve(A, np.ones(3))


def test_newton_config_validation():
    """An invalid Newton control is a configuration error naming its key."""
    with pytest.raises(ConfigError, match="newton.tol"):
        NewtonConfig(tol=-1.0)
    with pytest.raises(ConfigError, match="newton.tol"):
        NewtonConfig(tol=float("nan"))
    with pytest.raises(ConfigError, match="newton.tol"):
        NewtonConfig(tol=1.0)  # accepts every initial guess: no Newton step
    with pytest.raises(ConfigError, match="newton.damping"):
        NewtonConfig(damping=1.5)
    with pytest.raises(ConfigError, match="newton.damping"):
        NewtonConfig(damping=0.0)
    with pytest.raises(ConfigError, match="newton.max_iter"):
        NewtonConfig(max_iter=0)


def test_solve_fine_constant_steady_state(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=3),
        "neumann-wells", well_rate=0.0,
    )
    sol = solve_fine(prob)
    for s in sol.states:
        assert np.allclose(s, prob.p0, rtol=1e-12)
    assert sum(sol.newton_iters) == 0


def test_solve_fine_linear_limit_one_iteration(mesh4, uniform_perm4):
    # nearly incompressible fluid: the problem is linear, one Newton step per dt
    props = FluidProps(mu=5.0, phi=500.0, c=1e-30, rho_ref=850.0, p_ref=2e7)
    prob = make_problem(
        mesh4.fine, props, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=3),
        "mixed-bc",
    )
    sol = solve_fine(prob)
    assert max(sol.newton_iters) <= 1


def test_solve_fine_mixed_bc_monotone_in_x(mesh8, fluid, uniform_perm8):
    prob = make_problem(
        mesh8.fine, fluid, uniform_perm8, TimeGrid(dt=2.5e-5, n_steps=5),
        "mixed-bc",
    )
    sol = solve_fine(prob)
    p = sol.final.reshape(mesh8.fine.nz + 1, mesh8.fine.ny + 1, mesh8.fine.nx + 1)
    assert np.all(np.diff(p, axis=2) <= 1e-9 * fluid.p_ref)
    # Dirichlet data held exactly
    d = prob.boundary.dirichlet_nodes
    assert np.array_equal(sol.final[d], prob.boundary.dirichlet_values)


def test_solve_fine_nonconvergence_reports_step(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "mixed-bc",
    )
    cfg = NewtonConfig(tol=1e-300, max_iter=2, stall_ratio=1e-300)
    with pytest.raises(NewtonConvergenceError) as exc:
        solve_fine(prob, cfg)
    assert exc.value.step == 1
    assert exc.value.residual_norm > 0


def test_failed_line_search_above_the_stall_ratio_fails_newton(
    mesh4, fluid, uniform_perm4, caplog
):
    """A damped step that no longer reduces the residual while the residual
    is still above stall_ratio times its scale fails Newton at once, before
    max_iter: the error names the step and the iterations made, and no
    stall is accepted."""
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=2),
        "neumann-wells", well_rate=1e8,
    )
    cfg = NewtonConfig(tol=1e-300, max_iter=25, stall_ratio=1e-300)
    with caplog.at_level(logging.WARNING, logger="msflow"):
        with pytest.raises(NewtonConvergenceError) as exc:
            solve_fine(prob, cfg)
    assert exc.value.step == 1
    assert 0 < exc.value.iterations < cfg.max_iter
    assert exc.value.residual_norm > 0
    assert not caplog.records


@pytest.mark.parametrize("cap", [0, 1])
def test_fine_refactorization_logged_at_debug(mesh4, fluid, uniform_perm4, caplog,
                                              monkeypatch, cap):
    """A normal fine solve logs nothing but its closing record of counts.
    With the refinement cap lowered, each refactorization is one DEBUG
    record on msflow.fem naming the time step, the Newton iteration and the
    refinement steps spent (the cap); with cap 0 every system after the
    first refactors."""
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=3),
        "neumann-wells", well_rate=1e8,
    )
    with caplog.at_level(logging.DEBUG, logger="msflow"):
        ref = solve_fine(prob)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["fine solve"]

    caplog.clear()
    monkeypatch.setattr(fem, "_REFINE_MAXSTEPS", cap)
    with caplog.at_level(logging.DEBUG, logger="msflow"):
        sol = solve_fine(prob)
    assert sol.newton_iters == ref.newton_iters
    later = [
        (step, it, cap)
        for step, n in enumerate(sol.newton_iters, 1) for it in range(1, n + 1)
    ][1:]
    assert all(r.name == "msflow.fem" and r.levelno == logging.DEBUG for r in caplog.records)
    assert caplog.records[-1].getMessage().startswith("fine solve:")
    refactorings = caplog.records[:-1]
    logged = [r.args for r in refactorings]
    assert "refactoring" in refactorings[0].getMessage()
    assert len(later) >= 3
    if cap == 0:
        assert logged == later
    else:
        assert logged and set(logged) <= set(later)

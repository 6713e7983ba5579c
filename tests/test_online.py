import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from msflow import fem, online
from msflow.errors import ConfigError, SingularMatrixError
from msflow.fem import newton_jacobian, newton_residual
from msflow.model import BoundarySpec, ProblemSpec, TimeGrid, make_problem
from msflow.offline import build_offline_space
from msflow.online import (
    UpdateSchedule,
    compute_local_residual,
    enrich_projection,
    error_indicator,
    solve_online_vector,
)


def test_update_schedule_validation():
    with pytest.raises(ConfigError):
        UpdateSchedule(n_online=-1, update_steps=())
    with pytest.raises(ConfigError):
        UpdateSchedule(n_online=1, update_steps=())
    with pytest.raises(ConfigError):
        UpdateSchedule(n_online=1, update_steps=(25,)).validate(20)
    UpdateSchedule(n_online=1, update_steps=(1, 20)).validate(20)
    assert UpdateSchedule.none().n_online == 0


def test_update_schedule_evenly_spaced():
    assert UpdateSchedule.evenly_spaced(1, 1, 20).update_steps == (1,)
    assert UpdateSchedule.evenly_spaced(1, 3, 20).update_steps == (1, 7, 13)
    sched = UpdateSchedule.evenly_spaced(2, 4, 20)
    assert sched.update_steps[0] == 1
    assert all(1 <= s <= 20 for s in sched.update_steps)


@pytest.fixture(scope="module")
def wells8(mesh8, fluid):
    from msflow.model import generate_channel_field
    perm = generate_channel_field(mesh8.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=4, n_inclusions=4)
    prob = make_problem(
        mesh8.fine, fluid, perm, TimeGrid(dt=2.5e-5, n_steps=5),
        "neumann-wells", well_rate=1e8,
    )
    F = newton_residual(
        prob.p0, prob.p0, fluid, perm, prob.time.dt, prob.load,
        mesh8.fine, prob.boundary,
    )
    J = newton_jacobian(
        prob.p0, fluid, perm, prob.time.dt, mesh8.fine, prob.boundary
    )
    return prob, F, J


def test_local_residual_restricts_global(mesh8, wells8):
    prob, F, J = wells8
    for i in (0, 13, 26):
        nb = mesh8.neighborhoods[i]
        lr = compute_local_residual(mesh8, i, F, prob.boundary.dirichlet_nodes)
        assert np.array_equal(lr.values, -F[nb.nodes])
        assert np.all(nb.free_mask[lr.free_local])


def test_local_residual_dimension_check(mesh8):
    with pytest.raises(ConfigError):
        compute_local_residual(mesh8, 0, np.zeros(3))


def test_online_vector_zero_residual_skips(mesh8, wells8):
    prob, F, J = wells8
    lr = compute_local_residual(mesh8, 0, np.zeros(mesh8.fine.n_nodes))
    assert solve_online_vector(mesh8, 0, lr, J) is None


def test_online_vector_solves_local_system(mesh8, wells8):
    prob, F, J = wells8
    i = 13
    nb = mesh8.neighborhoods[i]
    lr = compute_local_residual(mesh8, i, F, prob.boundary.dirichlet_nodes)
    v = solve_online_vector(mesh8, i, lr, J)
    rows = nb.nodes[lr.free_local]
    J_loc = J[np.ix_(rows, rows)]
    r = lr.values[lr.free_local]
    xs = v[rows]
    # the local solution up to a positive scale
    y = J_loc @ xs
    scale = float(y @ r) / float(r @ r)
    assert scale > 0
    assert np.linalg.norm(y - scale * r) <= 1e-10 * np.linalg.norm(y)
    # energy normalization against the symmetric part
    J_sym = 0.5 * (J_loc + J_loc.T)
    assert float(xs @ (J_sym @ xs)) == pytest.approx(1.0, rel=1e-10)


def test_free_local_dofs_in_box_dissection_order(mesh8, wells8):
    """The free DOFs of every patch, with and without the mixed-bc Dirichlet
    planes, are the nodes of the free mask in the patch box's dissection
    order.  The online vectors solved in that order match the lexicographic
    system solved with SuperLU's COLAMD ordering to 1e-12."""
    prob, F, J = wells8
    planes = BoundarySpec.dirichlet_x_planes(mesh8.fine, ProblemSpec.P_HIGH,
                                             ProblemSpec.P_LOW).dirichlet_nodes
    for dirichlet in (prob.boundary.dirichlet_nodes, planes):
        for i, nb in enumerate(mesh8.neighborhoods):
            mask = nb.free_mask & ~np.isin(nb.nodes, dirichlet)
            free = online._free_local_dofs(mesh8, i, dirichlet)
            order = nb.box.dissection()
            assert np.array_equal(free, order[np.isin(order, np.flatnonzero(mask))])
    for i, nb in enumerate(mesh8.neighborhoods):
        lr = compute_local_residual(mesh8, i, F, prob.boundary.dirichlet_nodes)
        v = solve_online_vector(mesh8, i, lr, J)
        free = np.flatnonzero(nb.free_mask)
        rows = nb.nodes[free]
        J_loc = J[np.ix_(rows, rows)]
        x = spla.splu(J_loc.tocsc(), permc_spec="COLAMD").solve(lr.values[free])
        ref = np.zeros(mesh8.fine.n_nodes)
        ref[rows] = x / np.sqrt(x @ (J_loc @ x))
        assert np.linalg.norm(v - ref) <= 1e-12 * np.linalg.norm(ref)


def test_online_vector_conforming_support(mesh8, wells8):
    prob, F, J = wells8
    i = 13
    nb = mesh8.neighborhoods[i]
    lr = compute_local_residual(mesh8, i, F, prob.boundary.dirichlet_nodes)
    v = solve_online_vector(mesh8, i, lr, J)
    member = np.zeros(mesh8.fine.n_nodes, dtype=bool)
    member[nb.nodes] = True
    assert np.all(v[~member] == 0.0)
    assert np.all(v[nb.nodes[nb.constrained_mask]] == 0.0)


def test_error_indicator_zero_and_scaling(mesh8, wells8):
    prob, F, J = wells8
    i = 13
    zero = compute_local_residual(mesh8, i, np.zeros(mesh8.fine.n_nodes))
    assert error_indicator(mesh8, i, zero, J, 1.0) == 0.0
    lr1 = compute_local_residual(mesh8, i, F)
    lr3 = compute_local_residual(mesh8, i, 3.0 * F)
    e1 = error_indicator(mesh8, i, lr1, J, 2.0)
    e3 = error_indicator(mesh8, i, lr3, J, 2.0)
    assert e3 == pytest.approx(9.0 * e1, rel=1e-10)
    # indicator scales inversely with the discarded eigenvalue
    assert error_indicator(mesh8, i, lr1, J, 4.0) == pytest.approx(
        e1 / 2.0, rel=1e-12
    )


def test_sink_neighborhood_has_largest_indicator(mesh8, wells8):
    prob, F, J = wells8
    fine = mesh8.fine
    sink_cells = set(
        fine.cell_index(fine.nx // 2, fine.ny // 2, np.arange(fine.nz)).tolist()
    )
    etas = []
    for i in range(mesh8.n_neighborhoods):
        lr = compute_local_residual(mesh8, i, F, prob.boundary.dirichlet_nodes)
        etas.append(error_indicator(mesh8, i, lr, J, 1.0))
    best = int(np.argmax(etas))
    assert sink_cells & set(mesh8.neighborhoods[best].cells.tolist())


@pytest.fixture(scope="module")
def space8(mesh8, fluid, wells8):
    prob, _, _ = wells8
    return build_offline_space(
        mesh8, prob.perm, fluid, prob.p0, 2,
        dirichlet_nodes=prob.boundary.dirichlet_nodes,
    )


def test_enrich_zero_count_noop(mesh8, wells8, space8):
    prob, _, _ = wells8
    added = enrich_projection(
        space8.projection, mesh8, prob, p_state=prob.p0, n_online=0
    )
    assert added == 0
    assert space8.projection.n_online == 0


def test_enrich_counts_and_replace_semantics(mesh8, wells8, space8):
    prob, _, _ = wells8
    proj = space8.projection
    offline_before = proj.offline.copy()
    added = enrich_projection(
        proj, mesh8, prob, p_state=prob.p0, n_online=1
    )
    assert added == mesh8.n_neighborhoods
    assert proj.dim == proj.n_offline + mesh8.n_neighborhoods
    first_block = [v.copy() for _, v in proj.online_cols]

    # second enrichment replaces, never appends
    enrich_projection(
        proj, mesh8, prob, p_state=prob.p0, n_online=1
    )
    assert proj.dim == proj.n_offline + mesh8.n_neighborhoods
    # offline block untouched bit-for-bit
    assert (proj.offline != offline_before).nnz == 0
    # same state: recomputed block identical
    for a, (_, b) in zip(first_block, proj.online_cols):
        assert np.array_equal(a, b)
    # online columns ordered by neighborhood
    nbs = [i for i, _ in proj.online_cols]
    assert nbs == sorted(nbs)


def test_enrich_multi_vector_rounds(mesh8, wells8, space8, monkeypatch):
    """Two rounds: between them the trial state is corrected by one projected
    Newton step, which matches the sparse triple-product oracle
    (R^T J R) x = -R^T F in the space enriched by the first round."""
    prob, F, J = wells8
    proj = space8.projection
    proj.set_online([])
    corrections = []

    class RecordingLU(fem._KeptLU):
        def solve(self, J, b, *args):
            x = super().solve(J, b, *args)
            corrections.append((self.R.copy(), x))
            return x

    monkeypatch.setattr(online, "_KeptLU", RecordingLU)
    added = enrich_projection(
        proj, mesh8, prob, p_state=prob.p0, n_online=2
    )
    assert added == 2 * mesh8.n_neighborhoods
    assert proj.dim == proj.n_offline + 2 * mesh8.n_neighborhoods
    (R, x), = corrections
    assert R.shape[1] == proj.n_offline + mesh8.n_neighborhoods
    delta = R @ x
    oracle = R @ np.linalg.solve((R.T @ (J @ R)).toarray(), -(R.T @ F))
    assert np.abs(delta - oracle).max() <= 1e-10 * np.abs(oracle).max()
    proj.set_online([])


def test_enrich_top_k_selection(mesh8, wells8, space8):
    prob, _, _ = wells8
    proj = space8.projection
    added = enrich_projection(
        proj, mesh8, prob, p_state=prob.p0, n_online=1,
        top_k=5, lambda_next=space8.lambda_next,
    )
    assert added == 5
    proj.set_online([])
    with pytest.raises(ConfigError):
        enrich_projection(
            proj, mesh8, prob, p_state=prob.p0, n_online=1, top_k=5
        )
    proj.set_online([])


def test_enrichment_improves_single_newton_step(mesh8, fluid, wells8, space8):
    """One projected Newton step in the enriched space reduces the residual by
    a strictly larger factor than in the offline-only space."""
    prob, F, J = wells8
    proj = space8.projection
    proj.set_online([])

    def after_one_step():
        R = proj.matrix()
        Fc = R.T @ F
        Jc = (R.T @ (J @ R)).toarray()
        delta = R @ np.linalg.solve(Jc, -Fc)
        p1 = prob.p0 + delta
        F1 = newton_residual(
            p1, prob.p0, fluid, prob.perm, prob.time.dt, prob.load,
            mesh8.fine, prob.boundary,
        )
        return np.linalg.norm(F1)

    plain = after_one_step()
    enrich_projection(
        proj, mesh8, prob, p_state=prob.p0, n_online=1
    )
    enriched = after_one_step()
    proj.set_online([])
    assert enriched < plain


def test_error_indicator_singular_block_raises(mesh8, wells8):
    """A singular local Jacobian block surfaces as SingularMatrixError, not as
    SuperLU's RuntimeError."""
    prob, F, _ = wells8
    n = mesh8.fine.n_nodes
    lr = compute_local_residual(mesh8, 13, F, prob.boundary.dirichlet_nodes)
    with pytest.raises(SingularMatrixError, match="neighborhood 13"):
        error_indicator(mesh8, 13, lr, sp.csr_matrix((n, n)), 1.0)

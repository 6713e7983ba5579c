import logging

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
    with pytest.raises(ConfigError, match="online.updates"):
        UpdateSchedule(n_online=1, update_steps=(1, 7, 1))
    UpdateSchedule(n_online=1, update_steps=(1, 20)).validate(20)
    assert UpdateSchedule.none().n_online == 0


def test_update_schedule_evenly_spaced():
    assert UpdateSchedule.evenly_spaced(1, 1, 20).update_steps == (1,)
    assert UpdateSchedule.evenly_spaced(1, 3, 20).update_steps == (1, 7, 13)
    sched = UpdateSchedule.evenly_spaced(2, 4, 20)
    assert sched.update_steps[0] == 1
    assert all(1 <= s <= 20 for s in sched.update_steps)


@pytest.mark.parametrize("k, n_steps, steps", [
    (2, 2, (1, 2)),
    (2, 3, (1, 2)),
    (3, 3, (1, 2, 3)),
    (2, 20, (1, 10)),
    (3, 6, (1, 2, 4)),
])
def test_evenly_spaced_runs_every_update(k, n_steps, steps):
    """u<k> gives k distinct steps whenever k <= time.steps (at 2 or 3 steps
    u2 once gave one update); a schedule that already had k steps keeps
    them."""
    schedule = UpdateSchedule.evenly_spaced(1, k, n_steps)
    assert schedule.update_steps == steps
    schedule.validate(n_steps)


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


def local_problem(F, J, rows):
    """A patch's online load and Jacobian block, as enrich_projection takes
    them from its free rows."""
    return -F[rows], J[np.ix_(rows, rows)]


def test_local_residual_restricts_global(mesh8, wells8):
    """The rows of each patch's online solve are global nodes of the patch
    off its constrained boundary, each once."""
    prob, F, J = wells8
    rows = online._free_rows(mesh8, prob.boundary.dirichlet_nodes)
    assert len(rows) == mesh8.n_neighborhoods
    for nb, ri in zip(mesh8.neighborhoods, rows):
        assert np.array_equal(np.sort(ri), nb.nodes[nb.free_mask])


def test_online_vector_zero_residual_skips(mesh8, wells8):
    prob, F, J = wells8
    rows = online._free_rows(mesh8, prob.boundary.dirichlet_nodes)[0]
    r, J_loc = local_problem(np.zeros(mesh8.fine.n_nodes), J, rows)
    assert solve_online_vector(0, r, J_loc) is None


def test_online_vector_without_positive_energy_is_dropped_with_a_warning(caplog):
    """A negative-definite block gives x . J x < 0: the vector is dropped,
    and a WARNING names the neighborhood and the energy."""
    J_loc = -sp.diags([2.0, 3.0, 4.0]).tocsr()
    r = np.array([1.0, 1.0, 1.0])
    caplog.set_level(logging.WARNING, logger="msflow.online")
    assert solve_online_vector(7, r, J_loc) is None
    (record,) = caplog.records
    assert record.levelno == logging.WARNING
    energy = -(1 / 2 + 1 / 3 + 1 / 4)
    assert record.getMessage() == (
        f"neighborhood 7: online vector dropped, its local energy {energy:.6g} "
        f"is not positive"
    )


def test_online_vector_solves_local_system(mesh8, wells8):
    prob, F, J = wells8
    i = 13
    rows = online._free_rows(mesh8, prob.boundary.dirichlet_nodes)[i]
    r, J_loc = local_problem(F, J, rows)
    xs = solve_online_vector(i, r, J_loc)
    # the local solution up to a positive scale
    y = J_loc @ xs
    scale = float(y @ r) / float(r @ r)
    assert scale > 0
    assert np.linalg.norm(y - scale * r) <= 1e-10 * np.linalg.norm(y)
    # energy normalization against the symmetric part
    J_sym = 0.5 * (J_loc + J_loc.T)
    assert float(xs @ (J_sym @ xs)) == pytest.approx(1.0, rel=1e-10)


def test_free_local_dofs_in_natural_order(mesh8, wells8):
    """The free DOFs of every patch, with and without the mixed-bc Dirichlet
    planes, are the nodes of the free mask in the patch box's natural
    (lexicographic) order, so ascending global rows.  The online vectors
    solved in that order on the banded LU match the lexicographic system
    solved with SuperLU's COLAMD ordering to 1e-12."""
    prob, F, J = wells8
    planes = BoundarySpec.dirichlet_x_planes(mesh8.fine, ProblemSpec.P_HIGH,
                                             ProblemSpec.P_LOW).dirichlet_nodes
    for dirichlet in (prob.boundary.dirichlet_nodes, planes):
        rows = online._free_rows(mesh8, dirichlet)
        for nb, ri in zip(mesh8.neighborhoods, rows):
            local = np.flatnonzero(nb.free_mask & ~np.isin(nb.nodes, dirichlet))
            assert np.array_equal(ri, nb.nodes[local])
            assert np.all(np.diff(ri) > 0)
    rows = online._free_rows(mesh8, prob.boundary.dirichlet_nodes)
    for i, (nb, ri) in enumerate(zip(mesh8.neighborhoods, rows)):
        v = solve_online_vector(i, *local_problem(F, J, ri))
        lex = nb.nodes[nb.free_mask]
        J_loc = J[np.ix_(lex, lex)]
        x = spla.splu(J_loc.tocsc(), permc_spec="COLAMD").solve(-F[lex])
        ref = np.zeros(mesh8.fine.n_nodes)
        ref[lex] = x / np.sqrt(x @ (J_loc @ x))
        got = np.zeros(mesh8.fine.n_nodes)
        got[ri] = v
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_online_vector_conforming_support(mesh8, wells8, space8):
    """Each online column of an enrichment lies on its patch's free nodes off
    the Dirichlet set, so it is zero off its patch and on the patch's
    constrained boundary."""
    prob, F, J = wells8
    proj = space8.projection
    enrich_projection(proj, mesh8, prob, p_state=prob.p0, n_online=1)
    dirichlet = prob.boundary.dirichlet_nodes
    for i, rows, x in proj.online_cols:
        nb = mesh8.neighborhoods[i]
        assert rows.size == x.size
        assert np.all(np.isin(rows, np.setdiff1d(nb.nodes[nb.free_mask], dirichlet)))
        v = np.zeros(mesh8.fine.n_nodes)
        v[rows] = x
        member = np.zeros(mesh8.fine.n_nodes, dtype=bool)
        member[nb.nodes] = True
        assert np.all(v[~member] == 0.0)
        assert np.all(v[nb.nodes[nb.constrained_mask]] == 0.0)
    proj.set_online([])


def test_error_indicator_zero_and_scaling(mesh8, wells8):
    prob, F, J = wells8
    i = 13
    rows = online._free_rows(mesh8, np.empty(0, dtype=int))[i]
    r, J_loc = local_problem(F, J, rows)
    assert error_indicator(i, 0.0 * r, J_loc, 1.0) == 0.0
    e1 = error_indicator(i, r, J_loc, 2.0)
    e3 = error_indicator(i, 3.0 * r, J_loc, 2.0)
    assert e3 == pytest.approx(9.0 * e1, rel=1e-10)
    # indicator scales inversely with the discarded eigenvalue
    assert error_indicator(i, r, J_loc, 4.0) == pytest.approx(e1 / 2.0, rel=1e-12)


def test_sink_neighborhood_has_largest_indicator(mesh8, wells8):
    prob, F, J = wells8
    fine = mesh8.fine
    sink_cells = set(
        fine.cell_index(fine.nx // 2, fine.ny // 2, np.arange(fine.nz)).tolist()
    )
    rows = online._free_rows(mesh8, prob.boundary.dirichlet_nodes)
    etas = [
        error_indicator(i, *local_problem(F, J, ri), 1.0)
        for i, ri in enumerate(rows)
    ]
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
    first_block = [(rows.copy(), x.copy()) for _, rows, x in proj.online_cols]

    # second enrichment replaces, never appends
    enrich_projection(
        proj, mesh8, prob, p_state=prob.p0, n_online=1
    )
    assert proj.dim == proj.n_offline + mesh8.n_neighborhoods
    # offline block untouched bit-for-bit
    assert (proj.offline != offline_before).nnz == 0
    # same state: recomputed block identical
    for (rows_a, a), (_, rows_b, b) in zip(first_block, proj.online_cols):
        assert np.array_equal(rows_a, rows_b) and np.array_equal(a, b)
    # online columns ordered by neighborhood
    nbs = [i for i, _, _ in proj.online_cols]
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


@pytest.mark.parametrize(
    "n_online, top_k, message",
    [(1, -1, "top-k"), (1, 0, "top-k"), (-2, None, "online vector count")],
)
def test_enrich_rejects_negative_counts(
    n_online, top_k, message, mesh8, wells8, space8
):
    """top_k < 1 and n_online < 0 are ConfigErrors, not a silent choice of
    patches (top_k=-1 would take all but the lowest indicator) or none."""
    prob, _, _ = wells8
    proj = space8.projection
    with pytest.raises(ConfigError, match=message):
        enrich_projection(
            proj, mesh8, prob, p_state=prob.p0, n_online=n_online,
            top_k=top_k, lambda_next=space8.lambda_next,
        )
    assert proj.n_online == 0


def test_top_k_vectors_equal_the_uniform_ones(mesh8, wells8, space8):
    """A top-k round solves the same local problems as a uniform round: its
    vectors equal, to the bit, the uniform round's on the chosen patches."""
    prob, _, _ = wells8
    proj = space8.projection
    enrich_projection(proj, mesh8, prob, p_state=prob.p0, n_online=1)
    uniform = {i: (rows, x) for i, rows, x in proj.online_cols}
    enrich_projection(
        proj, mesh8, prob, p_state=prob.p0, n_online=1,
        top_k=5, lambda_next=space8.lambda_next,
    )
    chosen = proj.online_cols
    proj.set_online([])
    assert len(chosen) == 5
    for i, rows, x in chosen:
        assert np.array_equal(rows, uniform[i][0])
        assert np.array_equal(x, uniform[i][1])


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
    LAPACK's info code."""
    prob, F, _ = wells8
    rows = online._free_rows(mesh8, prob.boundary.dirichlet_nodes)[13]
    r = -F[rows]
    with pytest.raises(
        SingularMatrixError, match="^error indicator solve failed on neighborhood 13: "
    ):
        error_indicator(13, r, sp.csr_matrix((r.size, r.size)), 1.0)


def test_online_vector_singular_block_raises(mesh8, wells8):
    """A singular local Jacobian block fails the online solve with an error
    that names the neighborhood."""
    prob, F, _ = wells8
    rows = online._free_rows(mesh8, prob.boundary.dirichlet_nodes)[13]
    r = -F[rows]
    with pytest.raises(SingularMatrixError, match="^online solve failed on neighborhood 13: "):
        solve_online_vector(13, r, sp.csr_matrix((r.size, r.size)))


def test_online_vector_exactly_singular_band_raises(mesh8, wells8):
    """A patch's Jacobian block with one row zeroed is exactly singular: the
    banded LU meets a zero pivot, and the online solve names the
    neighborhood."""
    prob, F, J = wells8
    rows = online._free_rows(mesh8, prob.boundary.dirichlet_nodes)[13]
    r, J_loc = local_problem(F, J, rows)
    keep = np.ones(rows.size)
    keep[rows.size // 2] = 0.0
    with pytest.raises(
        SingularMatrixError,
        match="^online solve failed on neighborhood 13: banded factorization "
              "failed: zero pivot",
    ):
        solve_online_vector(13, r, sp.diags(keep) @ J_loc)

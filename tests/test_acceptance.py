"""End-to-end verification suite on the standard desk-scale problems.

Covers the headline guarantees: exact Jacobian, fine/coarse equivalence for a
full projection basis, discrete mass conservation, partition-of-unity and
basis conformity, the local spectral construction, error decay with basis
count, the benefit of residual-driven online enrichment and of repeated
updates, Newton robustness, coarse-space DOF reduction, and bit-deterministic
outputs.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import msflow
from msflow.coarse import solve_gmsfem
from msflow.fem import (
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    cell_average,
    newton_jacobian,
    newton_residual,
    solve_fine,
)
from msflow.grid import build_two_scale_mesh
from msflow.harness import (
    CSV_HEADER,
    ExperimentConfig,
    fine_reference,
    relative_h1_error,
    relative_l2_error,
    run_experiment,
    sweep,
)
from msflow.model import (
    FluidProps,
    PermeabilityField,
    TimeGrid,
    density,
    generate_channel_field,
    make_problem,
)
from msflow.offline import (
    OfflineSpace,
    PartitionOfUnity,
    ProjectionMatrix,
    _local_operators,
    build_offline_spaces,
    build_snapshot_v1,
    build_snapshot_v2,
    compute_kappa_tilde,
    solve_local_spectral,
)
from msflow.online import UpdateSchedule

DT = 2.5e-5
N_STEPS = 20


@pytest.fixture(scope="module")
def desk():
    """Shared desk-scale setup: 16^3 fine grid, r=4, channelized contrast-1e4
    field, both boundary/source regimes, and their fine references."""
    mesh = build_two_scale_mesh(16, 16, 16, r=4)
    fluid = FluidProps()
    perm = generate_channel_field(mesh.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=6, n_inclusions=8)
    time = TimeGrid(dt=DT, n_steps=N_STEPS)
    mixed = make_problem(mesh.fine, fluid, perm, time, "mixed-bc")
    wells = make_problem(mesh.fine, fluid, perm, time, "neumann-wells",
                         well_rate=1e8)
    mass = assemble_weighted_mass(mesh.fine, np.ones(mesh.fine.n_cells))
    stiff = assemble_weighted_stiffness(mesh.fine, perm.values / fluid.mu)
    return {
        "mesh": mesh, "fluid": fluid, "perm": perm,
        "mixed": mixed, "wells": wells, "mass": mass, "stiff": stiff,
        "mixed_ref": solve_fine(mixed), "wells_ref": solve_fine(wells),
    }


def _offline_spaces(desk, problem, counts):
    """One offline pass for problem, one space per offline count."""
    return build_offline_spaces(
        desk["mesh"], desk["perm"], desk["fluid"], problem.p0, counts,
        dirichlet_nodes=problem.boundary.dirichlet_nodes,
    )


@pytest.fixture(scope="module")
def mixed_runs(desk):
    """Coarse runs on the mixed-boundary regime keyed by basis layout."""
    mixed = desk["mixed"]
    space2, space4, space8 = _offline_spaces(desk, mixed, [2, 4, 8])
    # the offline block is immutable; online runs replace the online block at
    # their first scheduled step, so the space can be reused across layouts
    return {
        "2+0": (space2, solve_gmsfem(mixed, space2)),
        "8+0": (space8, solve_gmsfem(mixed, space8)),
        "4+0": (space4, solve_gmsfem(mixed, space4)),
        "4+1u1": (space4, solve_gmsfem(mixed, space4, UpdateSchedule(1, (1,)))),
        "4+1u3": (
            space4, solve_gmsfem(mixed, space4, UpdateSchedule(1, (1, 7, 14)))
        ),
    }


@pytest.fixture(scope="module")
def wells_runs(desk):
    wells = desk["wells"]
    space4, space3 = _offline_spaces(desk, wells, [4, 3])
    return {
        "4+0": (space4, solve_gmsfem(wells, space4)),
        "3+1": (space3, solve_gmsfem(wells, space3, UpdateSchedule(1, (1,)))),
    }


def _e_l2(desk, result, ref):
    return relative_l2_error(result.final, ref.final, desk["mass"])


def _e_h1(desk, result, ref):
    return relative_h1_error(result.final, ref.final, desk["stiff"])


def test_jacobian_matches_finite_differences():
    """Central differences of the residual reproduce every sampled Jacobian
    column to 1e-6 relative on a 4^3 grid."""
    mesh = build_two_scale_mesh(4, 4, 4, r=2)
    fluid = FluidProps()
    rng = np.random.default_rng(0)
    perm = PermeabilityField(rng.uniform(1.0, 1e3, mesh.fine.n_cells))
    n = mesh.fine.n_nodes
    p = fluid.p_ref * (1.0 + 0.02 * rng.standard_normal(n))
    p_prev = np.full(n, fluid.p_ref)
    load = np.zeros(n)
    J = newton_jacobian(p, fluid, perm, DT, mesh.fine).toarray()
    delta = 1e-6 * np.abs(p).max()
    worst = 0.0
    for i in rng.choice(n, 20, replace=False):
        e = np.zeros(n)
        e[i] = delta
        fd = (
            newton_residual(p + e, p_prev, fluid, perm, DT, load, mesh.fine)
            - newton_residual(p - e, p_prev, fluid, perm, DT, load, mesh.fine)
        ) / (2 * delta)
        denom = max(1.0, np.abs(J[:, i]).max())
        worst = max(worst, float(np.abs(fd - J[:, i]).max() / denom))
    assert worst <= 1e-6


def test_identity_projection_equivalence():
    """With the identity as basis matrix the coarse loop reproduces the fine
    trajectory to 1e-10 relative over 5 steps on an 8^3 grid."""
    mesh = build_two_scale_mesh(8, 8, 8, r=4)
    fluid = FluidProps()
    perm = generate_channel_field(mesh.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=4, n_inclusions=4)
    prob = make_problem(mesh.fine, fluid, perm, TimeGrid(dt=DT, n_steps=5),
                        "mixed-bc")
    ref = solve_fine(prob)
    n = mesh.fine.n_nodes
    pm = ProjectionMatrix(sp.identity(n, format="csr"), [0] * n)
    space = OfflineSpace(mesh=mesh, projection=pm,
                         lambda_next=np.ones(mesh.n_neighborhoods))
    res = solve_gmsfem(prob, space)
    dev = np.abs(np.asarray(res.states) - np.asarray(ref.states)).max()
    assert dev <= 1e-10 * np.abs(np.asarray(ref.states)).max()


def test_discrete_mass_balance(desk):
    """Balanced wells with zero-Neumann boundaries conserve total fluid mass
    to 1e-8 relative over the whole run."""
    fine = desk["mesh"].fine
    fluid = desk["fluid"]
    cn = fine.cell_nodes()

    def total_mass(p):
        return float(
            (fluid.phi * density(cell_average(p, cn), fluid) * fine.h**3).sum()
        )

    m0 = total_mass(desk["wells_ref"].states[0])
    for state in desk["wells_ref"].states[1:]:
        assert abs(total_mass(state) - m0) / m0 <= 1e-8


def test_partition_of_unity_and_conformity(desk, mixed_runs):
    """Hats sum to one at machine precision; every basis column vanishes
    exactly on its patch's constrained boundary and at Dirichlet nodes."""
    mesh = desk["mesh"]
    pou = PartitionOfUnity(mesh)
    total = np.zeros(mesh.fine.n_nodes)
    for i in range(mesh.n_neighborhoods):
        total += pou.chi_global(i)
    assert np.abs(total - 1.0).max() <= 1e-14

    space, _ = mixed_runs["4+1u1"]
    pm = space.projection
    # col_nb indexes the offline columns, dependent ones included
    offline = pm.offline.toarray()
    columns = list(zip(pm.col_nb, offline.T))
    for i, rows, x in pm.online_cols:
        v = np.zeros(mesh.fine.n_nodes)
        v[rows] = x
        columns.append((i, v))
    dirichlet = desk["mixed"].boundary.dirichlet_nodes
    for i, vals in columns:
        nb = mesh.neighborhoods[i]
        assert np.all(vals[nb.nodes[nb.constrained_mask]] == 0.0)
        assert np.all(vals[dirichlet] == 0.0)
        member = np.zeros(mesh.fine.n_nodes, dtype=bool)
        member[nb.nodes] = True
        assert np.all(vals[~member] == 0.0)


def test_local_spectral_suite(desk):
    """Spectral construction on a high-contrast interior patch: zero mode with
    constant eigenvector, ascending eigenvalues, mass-orthonormality,
    coefficient-scaling invariance, and discrete-harmonic snapshots."""
    mesh, perm, fluid = desk["mesh"], desk["perm"], desk["fluid"]
    rho0 = np.ones(mesh.fine.n_cells)
    pou = PartitionOfUnity(mesh)
    kt = compute_kappa_tilde(mesh, perm, rho0, pou)
    i = next(
        j for j, nb in enumerate(mesh.neighborhoods) if nb.n_coarse_cells == 8
    )
    nb = mesh.neighborhoods[i]

    snap = build_snapshot_v1(mesh, i)
    A, M = _local_operators(nb, perm, rho0, kt)
    spec = solve_local_spectral(mesh, i, snap, A, M)
    lam = spec.eigenvalues
    assert abs(lam[0]) <= 1e-10 * lam[-1]
    v0 = spec.eigenvectors[:, 0]
    assert np.abs(v0 - v0.mean()).max() <= 1e-8 * np.abs(v0).max()
    assert np.all(np.diff(lam) >= -1e-10 * lam[-1])

    V = spec.eigenvectors[:, :12]
    assert np.abs(V.T @ (M @ V) - np.eye(12)).max() <= 1e-8

    scaled = PermeabilityField(137.0 * perm.values)
    kt_s = compute_kappa_tilde(mesh, scaled, rho0, pou)
    spec_s = solve_local_spectral(
        mesh, i, snap, *_local_operators(nb, scaled, rho0, kt_s)
    )
    assert np.abs(spec_s.eigenvalues[:30] - lam[:30]).max() <= 1e-10 * np.abs(
        lam[:30]
    ).max()

    S = build_snapshot_v2(mesh, i, A).basis
    assert np.abs(S.sum(axis=1) - 1.0).max() <= 1e-12
    res = A @ S
    free = np.flatnonzero(nb.free_mask)
    assert np.abs(res[free]).max() <= 1e-10 * np.abs(A.data).max()


def test_offline_error_decay(desk, mixed_runs):
    """Final-time L2 error falls strictly with the offline basis count, and
    doubling the count from 4 to 8 gains at least a 0.8 factor."""
    ref = desk["mixed_ref"]
    errs = {
        label: _e_l2(desk, mixed_runs[label][1], ref)
        for label in ("2+0", "4+0", "8+0")
    }
    assert errs["2+0"] > errs["4+0"] > errs["8+0"]
    assert errs["8+0"] <= 0.8 * errs["4+0"]


def test_online_beats_offline_under_wells(desk, wells_runs):
    """With a singular source, trading one offline mode for one online vector
    wins in both error norms at equal-or-smaller coarse dimension."""
    ref = desk["wells_ref"]
    space40, res40 = wells_runs["4+0"]
    space31, res31 = wells_runs["3+1"]
    assert res31.dim_history[-1] <= space40.projection.dim
    assert _e_l2(desk, res31, ref) < _e_l2(desk, res40, ref)
    assert _e_h1(desk, res31, ref) < _e_h1(desk, res40, ref)


def test_update_schedule_benefit(desk, mixed_runs):
    """Recomputing the online block at steps {1,7,14} beats a single update
    at step 1."""
    ref = desk["mixed_ref"]
    e_many = _e_l2(desk, mixed_runs["4+1u3"][1], ref)
    e_one = _e_l2(desk, mixed_runs["4+1u1"][1], ref)
    assert e_many < e_one


def test_newton_iteration_counts(desk, mixed_runs, wells_runs):
    """Every accepted run above converges in at most 8 Newton iterations per
    time step at the default tolerance."""
    for sol in (desk["mixed_ref"], desk["wells_ref"]):
        assert max(sol.newton_iters) <= 8
    for _, result in list(mixed_runs.values()) + list(wells_runs.values()):
        assert max(result.newton_iters) <= 8


def test_dof_reduction_sweep(tmp_path):
    """A 16^3 sweep with 4 offline bases per vertex keeps the coarse dimension
    at no more than 1/20 of the fine DOF count, and the sweep CSV carries both
    solve times for the speed comparison."""
    cfg = ExperimentConfig.default()
    cfg.values.update({
        "mesh.ratio": 8,
        "output.dir": str(tmp_path / "out"),
    })
    reports = sweep(cfg, ["4+0"])
    fine_row, coarse_row = reports
    assert fine_row.nb_label == "fine"
    assert coarse_row.dim <= fine_row.dim / 20
    assert fine_row.t_solve > 0.0 and coarse_row.t_solve >= 0.0
    csv = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == 3


def _strip_timing(csv_text):
    out = []
    for line in csv_text.splitlines():
        f = line.split(",")
        out.append(",".join(f[:2] + f[5:]))  # drop t_basis, t_ass, t_solve
    return "\n".join(out)


def test_deterministic_outputs(tmp_path):
    """Two runs of the same sweep produce identical CSVs (timing columns
    aside) and byte-identical VTK exports."""
    def one(tag):
        cfg = ExperimentConfig.default()
        cfg.values.update({
            "mesh.nx": 8, "mesh.ny": 8, "mesh.nz": 8, "mesh.ratio": 4,
            "time.steps": 3, "basis.offline": 2,
            "field.n_channels": 4, "field.n_inclusions": 4,
            "output.dir": str(tmp_path / tag),
        })
        sweep(cfg, ["2+0", "2+1"])
        run_experiment(cfg, vtk_steps=(0, 3))
        out = tmp_path / tag
        return (
            _strip_timing((out / "sweep.csv").read_text()),
            (out / "coarse_step003.vtk").read_bytes(),
            (out / "fine_step003.vtk").read_bytes(),
        )

    a = one("a")
    b = one("b")
    assert a == b


def test_sweep_bits_do_not_depend_on_the_process(tmp_path):
    """A `msflow sweep` in a fresh process and the same sweep in this process,
    after a forced fine reference of another field, write identical CSV rows
    (timing columns aside) on the 8^3 wells problem."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n"
        "time.steps = 3\nbasis.offline = 2\nproblem.preset = neumann-wells\n"
        f"output.dir = {tmp_path / 'cli'}\n"
    )
    src = str(Path(msflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    subprocess.run(
        [sys.executable, "-m", "msflow.cli", "sweep", "--config", str(cfgfile),
         "--nb", "2+0,2+1u2"],
        env=env, check=True, capture_output=True,
    )
    other = ExperimentConfig.from_file(cfgfile)
    other.set("seed", 1)
    other.set("output.dir", str(tmp_path / "other"))
    fine_reference(other, force=True)
    cfg = ExperimentConfig.from_file(cfgfile)
    cfg.set("output.dir", str(tmp_path / "api"))
    sweep(cfg, ["2+0", "2+1u2"])
    cli = _strip_timing((tmp_path / "cli" / "sweep.csv").read_text())
    assert cli.count("\n") == 3
    assert cli == _strip_timing((tmp_path / "api" / "sweep.csv").read_text())

"""The offline pass on several processes (`offline._solve_patches`): the same
bits for any process count, the serial pass's errors and log records, and no
process left behind on any path."""

import logging
import multiprocessing
import os
import re

import numpy as np
import pytest

from msflow import harness, offline
from msflow.cli import main
from msflow.errors import (
    ConfigError,
    MsflowError,
    NewtonConvergenceError,
    SingularMatrixError,
)
from msflow.grid import build_two_scale_mesh
from msflow.harness import ExperimentConfig
from msflow.model import generate_channel_field

pytestmark = pytest.mark.skipif(
    offline._parallel_pass() is None,
    reason="no OpenBLAS thread pin or no fork: the pass runs in one process",
)


def no_child_processes():
    """Every child of this process has been joined and reaped."""
    if multiprocessing.active_children():
        return False
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def processes(monkeypatch, n):
    monkeypatch.setattr(offline, "_pass_processes", lambda: n)


def recorded_pass(monkeypatch):
    """Record the {neighborhood: _Solved} of every pass."""
    passes = []
    solve_patches = offline._solve_patches

    def recording(*args):
        solved, n_proc = solve_patches(*args)
        passes.append(solved)
        return solved, n_proc

    monkeypatch.setattr(offline, "_solve_patches", recording)
    return passes


@pytest.fixture(scope="module")
def channel8(mesh8, fluid):
    """Channel field on the 8^3 r=4 mesh: equal patches that reuse a solve,
    the 729-node interior patch solved sparse."""
    perm = generate_channel_field(mesh8.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=2, n_inclusions=2)
    return perm, np.full(mesh8.fine.n_nodes, fluid.p_ref)


@pytest.fixture(scope="module")
def channel6(mesh6, fluid):
    perm = generate_channel_field(mesh6.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=2, n_inclusions=2)
    return perm, np.full(mesh6.fine.n_nodes, fluid.p_ref)


@pytest.mark.parametrize("kind", ["v1", "v2"])
def test_spaces_are_the_same_bits_on_any_process_count(
    kind, mesh6, mesh8, fluid, channel6, channel8, caplog, monkeypatch
):
    """psi, the eigenvalues, lambda_next and the projection matrices of a
    pass are bit-identical on 1, 2 and 3 processes.  v1 on 8^3 r=4 with
    one extra pair per request, so clusters grow past it (growth
    re-solves), equal patches reuse a solve, and one patch is solved
    sparse; v2 on 6^3 r=2."""
    mesh, (perm, p0) = (mesh8, channel8) if kind == "v1" else (mesh6, channel6)
    monkeypatch.setattr(offline, "_EXTRA_PAIRS", 1)
    passes = recorded_pass(monkeypatch)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    runs = []
    for n in (1, 2, 3):
        processes(monkeypatch, n)
        runs.append(offline.build_offline_spaces(mesh, perm, fluid, p0, [2, 4], kind=kind))
        assert no_child_processes()
    records = [r.getMessage() for r in caplog.records if r.name == "msflow.offline"]
    assert [re.search(r"on (\d) processes", m).group(1) for m in records] == ["1", "2", "3"]
    if kind == "v1":
        m = re.search(r"(\d+) reused .*\((\d+) sparse, .* (\d+) n_eig growth", records[0])
        assert int(m.group(1)) > 0 and int(m.group(2)) == 1 and int(m.group(3)) > 0
    ref = passes[0]
    for solved in passes[1:]:
        assert solved.keys() == ref.keys()
        for i, s in solved.items():
            assert np.array_equal(s.psi, ref[i].psi)
            assert np.array_equal(s.eigenvalues, ref[i].eigenvalues)
    for spaces in runs[1:]:
        for a, b in zip(runs[0], spaces):
            assert np.array_equal(a.lambda_next, b.lambda_next)
            assert (a.projection.offline != b.projection.offline).nnz == 0
            assert (a.projection.matrix() != b.projection.matrix()).nnz == 0


def test_sweep_rows_are_the_same_on_one_and_two_processes(tmp_path, monkeypatch):
    """A sweep writes the same CSV rows, timing columns aside, whether its
    offline pass runs on one process or two."""
    rows = []
    for n in (1, 2):
        processes(monkeypatch, n)
        cfg = ExperimentConfig.default()
        cfg.values.update({
            "mesh.nx": 8, "mesh.ny": 8, "mesh.nz": 8, "mesh.ratio": 4,
            "time.steps": 3, "problem.preset": "neumann-wells",
            "output.dir": str(tmp_path / f"out{n}"),
        })
        csv = tmp_path / f"rows{n}.csv"
        harness.sweep(cfg, ["2+0", "4+0", "2+1u2"], csv_path=csv)
        rows.append([
            [c for k, c in enumerate(line.split(",")) if k not in (2, 3, 4)]
            for line in csv.read_text().splitlines()
        ])
        assert no_child_processes()
    assert len(rows[0]) == 5 and rows[0] == rows[1]


def failing_at(neighborhoods, exc):
    """A `_solve_patch` that raises exc on the given neighborhoods, in
    whichever process solves them."""
    solve = offline._solve_patch

    def failing(mesh, kind, perm, rho0, kt, extra, i, L):
        if i in neighborhoods:
            raise exc(f"patch failure at neighborhood {i}")
        return solve(mesh, kind, perm, rho0, kt, extra, i, L)

    return failing


@pytest.mark.parametrize("n", [1, 2, 3])
def test_failure_names_the_lowest_failing_neighborhood(
    n, mesh8, fluid, channel8, monkeypatch
):
    """Patches failing on several processes raise the error of the lowest
    failing neighborhood, with its type, as a pass on one process does, and
    no helper is left running."""
    perm, p0 = channel8
    processes(monkeypatch, n)
    # the 729-node patch 13 is dealt first, to this process; on 2 processes
    # 21 is a helper's, and on 3 so is 3, the lowest
    monkeypatch.setattr(offline, "_solve_patch",
                        failing_at({3, 13, 21}, SingularMatrixError))
    with pytest.raises(SingularMatrixError, match="neighborhood 3$"):
        offline.build_offline_space(mesh8, perm, fluid, p0, 2)
    assert no_child_processes()


def test_helper_error_that_cannot_cross_the_pipe(mesh8, fluid, channel8, monkeypatch):
    """An error whose type cannot be rebuilt from its pickle reaches the
    caller as an MsflowError with the type and message."""
    perm, p0 = channel8
    processes(monkeypatch, 2)
    solve = offline._solve_patch
    parent = os.getpid()

    def failing(*args):
        if os.getpid() != parent:
            raise NewtonConvergenceError(1, 2, 3.0)
        return solve(*args)

    monkeypatch.setattr(offline, "_solve_patch", failing)
    with pytest.raises(MsflowError, match="NewtonConvergenceError: Newton did not"):
        offline.build_offline_space(mesh8, perm, fluid, p0, 2)
    assert no_child_processes()


@pytest.mark.parametrize(
    "exc, code", [(SingularMatrixError, 1), (ConfigError, 2)]
)
def test_helper_failure_exit_code(exc, code, tmp_path, capsys, monkeypatch):
    """`msflow run` exits with the code of the error a helper raised, and
    names the lowest failing neighborhood: 4, dealt to the helper after the
    interior patch 13, not 22, which this process solves."""
    processes(monkeypatch, 2)
    monkeypatch.setattr(offline, "_solve_patch", failing_at({4, 22}, exc))
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n"
        "time.steps = 1\nbasis.offline = 2\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfgfile)]) == code
    assert "patch failure at neighborhood 4\n" in capsys.readouterr().err
    assert no_child_processes()


def test_dead_helper_share_is_solved_here(mesh8, fluid, channel8, caplog, monkeypatch):
    """A helper that dies without a result has its share solved by this
    process, with a WARNING, and the spaces are the same bits."""
    perm, p0 = channel8
    processes(monkeypatch, 1)
    ref = offline.build_offline_spaces(mesh8, perm, fluid, p0, [2, 4])
    solve = offline._solve_patch
    parent = os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os._exit(9)
        return solve(*args)

    monkeypatch.setattr(offline, "_solve_patch", dying)
    processes(monkeypatch, 3)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    spaces = offline.build_offline_spaces(mesh8, perm, fluid, p0, [2, 4])
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 2
    assert all("exited with code 9" in r.getMessage() for r in warnings)
    for a, b in zip(ref, spaces):
        assert np.array_equal(a.lambda_next, b.lambda_next)
        assert (a.projection.matrix() != b.projection.matrix()).nnz == 0
    assert no_child_processes()


class Interrupted(BaseException):
    """Stands in for KeyboardInterrupt, which pytest would act on."""


def test_interrupted_pass_leaves_no_helper(mesh8, fluid, channel8, monkeypatch):
    """An interruption of this process's share, while helpers solve theirs
    or wait to send them, ends and reaps every helper before it is
    re-raised."""
    perm, p0 = channel8
    processes(monkeypatch, 3)
    solve = offline._solve_patch
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise Interrupted
        return solve(*args)

    monkeypatch.setattr(offline, "_solve_patch", interrupted)
    with pytest.raises(Interrupted):
        offline.build_offline_space(mesh8, perm, fluid, p0, 2)
    assert no_child_processes()


def test_helper_records_are_emitted_in_patch_order(fluid, caplog, monkeypatch):
    """The INFO records of dense fallbacks, solved on three processes, are
    emitted by this process in patch order, as a pass on one process emits
    them, before the pass record."""
    mesh = build_two_scale_mesh(8, 8, 8, r=2)
    perm = generate_channel_field(mesh.fine, seed=0, background=1.0,
                                  channel=1e4, n_channels=2, n_inclusions=2)
    p0 = np.full(mesh.fine.n_nodes, fluid.p_ref)
    monkeypatch.setattr(offline, "_SPARSE_MIN_NODES", 50)

    def failing_eigsh(*args, **kwargs):
        raise offline.spla.ArpackError(-9999)

    monkeypatch.setattr(offline, "eigsh", failing_eigsh)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    logged = []
    for n in (1, 3):
        processes(monkeypatch, n)
        caplog.clear()
        offline.build_offline_space(mesh, perm, fluid, p0, 2)
        messages = [r.getMessage() for r in caplog.records if r.name == "msflow.offline"]
        passed = next(k for k, m in enumerate(messages) if "pass over" in m)
        assert f"on {n} processes" in messages[passed]
        logged.append(messages[:passed])
    fallbacks = [
        int(re.match(r"neighborhood (\d+): shift-invert Lanczos failed", m).group(1))
        for m in logged[1]
    ]
    assert len(fallbacks) > 10 and fallbacks == sorted(fallbacks)
    assert logged[0] == logged[1]

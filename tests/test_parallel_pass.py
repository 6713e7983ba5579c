"""The offline pass and a sweep's coarse runs on several processes
(`workers.run`): the same bits for any process count, one work list that
keeps every process busy, the serial errors, rows and log records, and no
process left behind on any path (the autouse `no_child_processes` fixture
checks that after every test)."""

import logging
import os
import re
import select
import time

import numpy as np
import pytest

from msflow import harness, offline, workers
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
    workers._parallel() is None,
    reason="no OpenBLAS thread pin or no fork: the pass runs in one process",
)


class TwoPartError(MsflowError):
    """An error whose pickle cannot rebuild it: its __init__ takes two
    arguments and passes one message up."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


class Signals:
    """A pipe from forked helpers to this process, which orders the two:
    a helper sends neighborhood numbers, this process waits for them."""

    def __init__(self):
        self.read_fd, self.write_fd = os.pipe()
        self.received = []

    def send(self, *neighborhoods):
        """In any process of the pass: one write, so the numbers arrive
        together."""
        os.write(self.write_fd, b"".join(i.to_bytes(2, "little") for i in neighborhoods))

    def _receive(self, data):
        self.received += [
            int.from_bytes(data[k:k + 2], "little") for k in range(0, len(data), 2)
        ]

    def wait(self, n):
        """Receive the next n numbers, waiting up to a minute for each."""
        data = b""
        while len(data) < 2 * n:
            ready, _, _ = select.select([self.read_fd], [], [], 60)
            assert ready, "no helper sent a neighborhood within 60 s"
            data += os.read(self.read_fd, 2 * n - len(data))
        self._receive(data)

    def all_sent(self):
        """Every number the helpers sent, once they have exited."""
        self.close()
        self._receive(b"".join(iter(lambda: os.read(self.read_fd, 4096), b"")))
        return self.received

    def close(self):
        """Close this process's write end: then a read ends once every
        helper has exited."""
        if self.write_fd is not None:
            os.close(self.write_fd)
            self.write_fd = None


def processes(monkeypatch, n):
    monkeypatch.setattr(workers, "cpu_count", lambda: n)


def recorded_pass(monkeypatch):
    """Record the {neighborhood: _Solved} of every pass."""
    passes = []
    run = workers.run

    def recording(solve, jobs):
        results, n_proc = run(solve, jobs)
        passes.append({i: result for (i,), result in zip(jobs, results)})
        return results, n_proc

    monkeypatch.setattr(workers, "run", recording)
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
    kind, mesh6, mesh8, fluid, channel6, channel8, caplog, monkeypatch,
    no_child_processes,
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


def test_sweep_rows_are_the_same_on_one_and_two_processes(
    tmp_path, monkeypatch, no_child_processes
):
    """A sweep writes the same CSV rows, timing columns aside, whether its
    offline pass and its coarse variants run on one process, two or
    three."""
    rows = []
    for n in (1, 2, 3):
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
    assert len(rows[0]) == 5 and rows[0] == rows[1] == rows[2]


def sweep_config(tmp_path):
    cfg = ExperimentConfig.default()
    cfg.values.update({
        "mesh.nx": 8, "mesh.ny": 8, "mesh.nz": 8, "mesh.ratio": 4,
        "time.steps": 2, "field.n_channels": 2, "field.n_inclusions": 2,
        "output.dir": str(tmp_path / "out"),
    })
    return cfg


@pytest.mark.parametrize("variants", [None, ["2+0", "2+1"]])
def test_coarse_runs_solve_at_one_blas_thread(variants, tmp_path, monkeypatch):
    """A lone run, and the coarse runs of a sweep on one process, solve at
    one BLAS thread, this process at two before and after included."""
    processes(monkeypatch, 1)
    pools, _ = workers._parallel()
    solve = harness.solve_gmsfem
    seen = []

    def recording(*args):
        seen.append([get() for get, _ in pools])
        return solve(*args)

    monkeypatch.setattr(harness, "solve_gmsfem", recording)
    cfg = sweep_config(tmp_path)
    with workers._blas_threads(pools, 2):
        if variants is None:
            harness.run_experiment(cfg)
        else:
            harness.sweep(cfg, variants)
        assert [get() for get, _ in pools] == [2] * len(pools)
    assert seen == [[1] * len(pools)] * len(variants or [None])


@pytest.mark.parametrize("n", [1, 2])
def test_failing_variant_keeps_the_rows_before_it(
    n, tmp_path, monkeypatch, no_child_processes
):
    """Variants failing in whichever processes run them raise the error of
    the first failing variant, with its type and fields, after the rows of
    the variants before it, as a sweep on one process does; no row of a
    later variant is written.  The second and fourth variants fail, and the
    fourth, which has more online rounds, runs first."""
    processes(monkeypatch, n)
    solve = harness.solve_gmsfem

    def failing(problem, space, schedule, newton):
        if schedule.n_online:
            raise NewtonConvergenceError(len(schedule.update_steps), 25, 1.0)
        return solve(problem, space, schedule, newton)

    monkeypatch.setattr(harness, "solve_gmsfem", failing)
    cfg = sweep_config(tmp_path)
    with pytest.raises(NewtonConvergenceError) as exc:
        harness.sweep(cfg, ["2+0", "2+1", "4+0", "2+1u2"])
    assert (exc.value.step, exc.value.iterations) == (1, 25)
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("fine,") and rows[2].startswith("2+0,54,")
    assert no_child_processes()


def test_sweep_exit_code_of_a_variant_failing_in_a_helper(
    tmp_path, capsys, monkeypatch, signals, no_child_processes
):
    """`msflow sweep` exits 3 when a coarse variant does not converge in a
    helper: the error reaches this process as a NewtonConvergenceError.
    This process waits for the helper's failure before its own run."""
    processes(monkeypatch, 2)
    solve = harness.solve_gmsfem
    parent = os.getpid()
    here = []

    def failing_in_helper(problem, space, schedule, newton):
        if os.getpid() != parent:
            signals.send(schedule.n_online)
            raise NewtonConvergenceError(2, 25, 1.0)
        if not here:
            signals.wait(1)
        here.append(schedule.n_online)
        return solve(problem, space, schedule, newton)

    monkeypatch.setattr(harness, "solve_gmsfem", failing_in_helper)
    cfg = sweep_config(tmp_path)
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in cfg.values.items()))
    assert main(["sweep", "--config", str(cfgfile), "--nb", "2+0,2+1"]) == 3
    assert "solver error: Newton did not converge at time step 2" in capsys.readouterr().err
    (failed,) = signals.all_sent()
    assert here == [1 - failed]
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2 + failed  # the 2+0 row only when 2+1 failed
    assert no_child_processes()


def failing_at(neighborhoods, exc):
    """A `_solve_patch` that raises exc on the given neighborhoods, in
    whichever process solves them."""
    solve = offline._solve_patch

    def failing(mesh, kind, w_stiff, w_mass, L, i):
        if i in neighborhoods:
            raise exc(f"patch failure at neighborhood {i}")
        return solve(mesh, kind, w_stiff, w_mass, L, i)

    return failing


def in_helpers(act, signals, wait=1):
    """A `_solve_patch` that calls act(i, solve) in a helper, and in this
    process solves, waiting first for `wait` neighborhoods from the helpers'
    signals so that they have claimed jobs before this process takes them
    all.  Returns it and the list of neighborhoods this process solved."""
    solve = offline._solve_patch
    parent = os.getpid()
    here = []

    def patched(mesh, kind, w_stiff, w_mass, L, i):
        args = (mesh, kind, w_stiff, w_mass, L, i)
        if os.getpid() != parent:
            return act(i, lambda: solve(*args))
        if not here and wait:
            signals.wait(wait)
        here.append(i)
        return solve(*args)

    return patched, here


@pytest.fixture
def signals():
    signals = Signals()
    yield signals
    signals.close()
    os.close(signals.read_fd)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_failure_names_the_lowest_failing_neighborhood(
    n, mesh8, fluid, channel8, monkeypatch, no_child_processes
):
    """Patches failing in whichever processes claim them raise the error of
    the lowest failing neighborhood, with its type, as a pass on one process
    does, and no helper is left running."""
    perm, p0 = channel8
    processes(monkeypatch, n)
    monkeypatch.setattr(offline, "_solve_patch",
                        failing_at({3, 13, 21}, SingularMatrixError))
    with pytest.raises(SingularMatrixError, match="neighborhood 3$"):
        offline.build_offline_space(mesh8, perm, fluid, p0, 2)
    assert no_child_processes()


def test_helper_error_that_cannot_cross_the_pipe(
    mesh8, fluid, channel8, monkeypatch, signals, no_child_processes
):
    """An error whose type cannot be rebuilt from its pickle reaches the
    caller as an MsflowError with the type and message."""
    perm, p0 = channel8
    processes(monkeypatch, 2)

    def failing(i, solve):
        signals.send(i)
        raise TwoPartError("patch failure", i)

    monkeypatch.setattr(offline, "_solve_patch", in_helpers(failing, signals)[0])
    with pytest.raises(MsflowError, match="TwoPartError: patch failure at"):
        offline.build_offline_space(mesh8, perm, fluid, p0, 2)
    assert no_child_processes()


@pytest.mark.parametrize(
    "exc, code", [(SingularMatrixError, 1), (ConfigError, 2)]
)
def test_helper_failure_exit_code(
    exc, code, tmp_path, capsys, monkeypatch, signals, no_child_processes
):
    """`msflow run` exits with the code of the error a helper raised, and
    names the lowest failing neighborhood: the helper fails on every job it
    claims, this process on none."""
    processes(monkeypatch, 2)

    def failing(i, solve):
        signals.send(i)
        raise exc(f"patch failure at neighborhood {i}")

    monkeypatch.setattr(offline, "_solve_patch", in_helpers(failing, signals)[0])
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n"
        "time.steps = 1\nbasis.offline = 2\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfgfile)]) == code
    lowest = min(signals.all_sent())
    assert f"patch failure at neighborhood {lowest}\n" in capsys.readouterr().err
    assert no_child_processes()


def test_dead_helper_jobs_are_solved_here(
    mesh8, fluid, channel8, caplog, monkeypatch, signals, no_child_processes
):
    """A helper that dies without a result has its jobs solved by this
    process, with a WARNING, and the spaces are the same bits."""
    perm, p0 = channel8
    processes(monkeypatch, 1)
    ref = offline.build_offline_spaces(mesh8, perm, fluid, p0, [2, 4])

    def dying(i, solve):
        signals.send(i)
        os._exit(9)

    monkeypatch.setattr(offline, "_solve_patch", in_helpers(dying, signals, 2)[0])
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


def test_jobs_a_dead_helper_claimed_are_solved_here(
    mesh8, fluid, channel8, caplog, monkeypatch, signals
):
    """A helper that dies on its third job has solved two and claimed three:
    this process solves those three, in their order, after every job it
    claimed itself, and psi and the eigenvalues are the same bits as on one
    process."""
    perm, p0 = channel8
    processes(monkeypatch, 1)
    passes = recorded_pass(monkeypatch)
    offline.build_offline_space(mesh8, perm, fluid, p0, 2)
    claimed = []

    def dying_third(i, solve):
        claimed.append(i)
        if len(claimed) == 3:
            signals.send(*claimed)
            os._exit(9)
        return solve()

    # this process waits for the helper's death before its first solve
    patched, here = in_helpers(dying_third, signals, 3)
    monkeypatch.setattr(offline, "_solve_patch", patched)
    processes(monkeypatch, 2)
    caplog.set_level(logging.WARNING, logger="msflow.offline")
    offline.build_offline_space(mesh8, perm, fluid, p0, 2)
    died = signals.all_sent()
    assert len(died) == 3 and here[-3:] == died
    assert len([r for r in caplog.records if "exited with code 9" in r.getMessage()]) == 1
    ref, solved = passes
    assert solved.keys() == ref.keys() and sorted(here) == sorted(solved)
    for i, s in solved.items():
        assert np.array_equal(s.psi, ref[i].psi)
        assert np.array_equal(s.eigenvalues, ref[i].eigenvalues)


def test_this_process_claims_while_a_helper_is_slow(
    mesh8, fluid, channel8, monkeypatch
):
    """On two processes, while every solve of the helper sleeps a second,
    this process solves all but a few jobs."""
    perm, p0 = channel8
    processes(monkeypatch, 2)
    passes = recorded_pass(monkeypatch)

    def slow(i, solve):
        time.sleep(1.0)
        return solve()

    patched, here = in_helpers(slow, None, 0)
    monkeypatch.setattr(offline, "_solve_patch", patched)
    offline.build_offline_space(mesh8, perm, fluid, p0, 2)
    (solved,) = passes
    assert len(solved) > 10
    assert len(here) >= len(solved) - 2


def test_every_job_is_claimed_once_by_more_processes_than_cpus(signals, monkeypatch):
    """Six processes claim 3000 trivial jobs from the shared counter: each
    job is solved exactly once, none twice (a lost update of the counter)
    and none never, and its result lands at its index."""
    jobs = [(i, 1) for i in range(3000)]

    def solve(i, L):
        signals.send(i)
        return i

    processes(monkeypatch, 6)
    start = time.perf_counter()
    solved, n_proc = workers.run(solve, jobs)
    assert n_proc == 6 and solved == list(range(3000))
    assert sorted(signals.all_sent()) == list(range(3000))
    assert time.perf_counter() - start < 60


def test_results_are_in_job_order_failures_included(monkeypatch, no_child_processes):
    """On three processes, results[k] is the value of jobs[k] or the
    exception its solve raised, with its type and fields; one whose type
    cannot be rebuilt from its pickle arrives as an MsflowError."""
    def solve(k):
        if k % 7 == 3:
            raise ConfigError(f"job {k}")
        if k % 7 == 5:
            raise TwoPartError("job", k)
        if k % 7 == 6:
            raise NewtonConvergenceError(k, 2, 3.0)
        return -k

    processes(monkeypatch, 3)
    results, n_proc = workers.run(solve, [(k,) for k in range(40)])
    assert n_proc == 3 and len(results) == 40
    for k, result in enumerate(results):
        if k % 7 == 3:
            assert type(result) is ConfigError and str(result) == f"job {k}"
        elif k % 7 == 5:
            assert type(result) in (TwoPartError, MsflowError)
            assert str(result).endswith(f"job at {k}")
        elif k % 7 == 6:
            assert type(result) is NewtonConvergenceError
            assert (result.step, result.iterations, result.residual_norm) == (k, 2, 3.0)
        else:
            assert result == -k
    assert no_child_processes()


def test_every_process_solves_at_one_blas_thread(
    mesh8, fluid, channel8, monkeypatch, signals
):
    """Every process of a two-process pass solves at one BLAS thread, this
    process at two threads before the pass included: the helper inherits
    the pin of the process that forks it.  This process waits for the
    helper's first solve, so the check runs in both."""
    perm, p0 = channel8
    processes(monkeypatch, 2)
    pools, _ = workers._parallel()
    solve = offline._solve_patch
    parent = os.getpid()
    here = []

    def pinned(*args):
        if os.getpid() != parent:
            signals.send(args[-1])
        else:
            if not here:
                signals.wait(1)
            here.append(args[-1])
        threads = [get() for get, _ in pools]
        if threads != [1] * len(pools):
            raise MsflowError(f"process {os.getpid()} solves at {threads} BLAS threads")
        return solve(*args)

    monkeypatch.setattr(offline, "_solve_patch", pinned)
    with workers._blas_threads(pools, 2):
        offline.build_offline_space(mesh8, perm, fluid, p0, 2)
        assert [get() for get, _ in pools] == [2] * len(pools)
    assert signals.all_sent() and here


class Interrupted(BaseException):
    """Stands in for KeyboardInterrupt, which pytest would act on."""


def test_interrupted_pass_leaves_no_helper(
    mesh8, fluid, channel8, monkeypatch, no_child_processes
):
    """An interruption of this process's jobs, while helpers solve theirs
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


def test_helper_records_are_emitted_in_job_order(fluid, caplog, monkeypatch):
    """The INFO records of dense fallbacks, solved on three processes, are
    emitted by this process in job order (largest patch first), as a pass
    on one process emits them, before the pass record."""
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
    job_order = sorted(fallbacks, key=lambda i: (-mesh.neighborhoods[i].n_local, i))
    assert len(fallbacks) > 10 and fallbacks == job_order != sorted(fallbacks)
    assert logged[0] == logged[1]


@pytest.mark.parametrize("n", [1, 3])
def test_job_records_are_emitted_in_job_order(n, caplog, monkeypatch):
    """Every record a job logs, in whichever process solves it, reaches this
    process's handlers once, in job order, before `run` returns: a failed
    job's records included."""
    log = logging.getLogger("msflow.online")

    def solve(k):
        log.warning("job %d", k)
        if k % 5 == 2:
            raise ConfigError(f"job {k}")
        return k

    processes(monkeypatch, n)
    results, n_proc = workers.run(solve, [(k,) for k in range(20)])
    assert n_proc == n
    assert [type(r) for r in results[2::5]] == [ConfigError] * 4
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("msflow.online", f"job {k}") for k in range(20)
    ]


class _ListHandler(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@pytest.mark.parametrize("n", [1, 2])
def test_child_logger_handler_gets_each_job_record_once(n, caplog, monkeypatch):
    """A handler on a child logger of `msflow` gets each record a job logs
    on that logger once, in job order, in whichever process the job runs:
    the child's handlers are held with `msflow`'s while a job runs, so a
    record reaches them only when `run` emits it, and propagates on once."""
    child = logging.getLogger("msflow.fem")
    handler = _ListHandler()

    def solve(k):
        child.warning("job %d", k)
        return k

    processes(monkeypatch, n)
    child.addHandler(handler)
    try:
        _, n_proc = workers.run(solve, [(k,) for k in range(6)])
    finally:
        child.removeHandler(handler)
    assert n_proc == n
    assert handler.messages == [f"job {k}" for k in range(6)]
    assert [r.getMessage() for r in caplog.records] == handler.messages


def test_sweep_records_are_the_same_on_any_process_count(tmp_path, caplog, monkeypatch):
    """Around a sweep whose variants each log a WARNING on `msflow.online`,
    this process's handler gets the same `msflow.fem` and `msflow.online`
    records (name, level and message), in the same order, on one process,
    two and three.  On more than one, this process waits for a helper to
    start a variant before it solves its own, so a helper logs one."""
    solve = harness.solve_gmsfem
    parent = os.getpid()
    online_log = logging.getLogger("msflow.online")
    caplog.set_level(logging.DEBUG, logger="msflow")
    records = []
    for n in (1, 2, 3):
        processes(monkeypatch, n)
        signals, here = Signals(), []

        def warning(problem, space, schedule, newton):
            variant = (space.projection.n_offline, schedule.n_online)
            if os.getpid() != parent:
                signals.send(*variant)
            else:
                if n > 1 and not here:
                    signals.wait(2)
                here.extend(variant)
            online_log.warning("variant of %d offline and %d online vectors", *variant)
            return solve(problem, space, schedule, newton)

        monkeypatch.setattr(harness, "solve_gmsfem", warning)
        cfg = ExperimentConfig.default()
        cfg.values.update({
            "mesh.nx": 8, "mesh.ny": 8, "mesh.nz": 8, "mesh.ratio": 4,
            "time.steps": 3, "problem.preset": "neumann-wells",
            "output.dir": str(tmp_path / f"out{n}"),
        })
        caplog.clear()
        harness.sweep(cfg, ["2+0", "4+0", "2+1u2"])
        in_helpers = signals.all_sent()
        os.close(signals.read_fd)
        assert sorted(here + in_helpers) == [0, 0, 1, 54, 54, 108]
        assert bool(in_helpers) == (n > 1)
        records.append([
            (r.name, r.levelno, r.getMessage()) for r in caplog.records
            if r.name in ("msflow.fem", "msflow.online")
        ])
    warnings = [m for _, level, m in records[0] if level == logging.WARNING]
    assert warnings == [  # job order: the most online rounds, then bases
        f"variant of {d} offline and {k} online vectors"
        for d, k in ((54, 1), (108, 0), (54, 0))
    ]
    assert any(level == logging.DEBUG for _, level, _ in records[0])
    assert records[0] == records[1] == records[2]


def test_failing_variant_records_reach_the_caller(
    tmp_path, caplog, monkeypatch, signals
):
    """A variant that logs a WARNING in a helper and then fails: the record
    reaches this process's handlers before the sweep raises its error."""
    processes(monkeypatch, 2)
    solve = harness.solve_gmsfem
    parent = os.getpid()
    here = []

    def failing_in_helper(problem, space, schedule, newton):
        if os.getpid() != parent:
            logging.getLogger("msflow.online").warning(
                "giving up the variant with %d online vectors", schedule.n_online
            )
            signals.send(schedule.n_online)
            raise NewtonConvergenceError(2, 25, 1.0)
        if not here:
            signals.wait(1)
        here.append(schedule.n_online)
        return solve(problem, space, schedule, newton)

    monkeypatch.setattr(harness, "solve_gmsfem", failing_in_helper)
    with pytest.raises(NewtonConvergenceError):
        harness.sweep(sweep_config(tmp_path), ["2+0", "2+1"])
    (failed,) = signals.all_sent()
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
        f"giving up the variant with {failed} online vectors"
    ]

import ast
import inspect
import logging
import os
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import msflow
from msflow import errors, harness, offline, workers
from msflow.cli import main
from msflow.errors import ConfigError, MsflowError, NewtonConvergenceError
from msflow.model import PermeabilityField, save_field_to_file
from msflow.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ExperimentReport,
    export_vtk,
    fine_reference,
    parse_variant,
    relative_h1_error,
    relative_l2_error,
    run_experiment,
    sweep,
)


def small_config(tmp_path, **overrides):
    cfg = ExperimentConfig.default()
    cfg.values.update({
        "mesh.nx": 8, "mesh.ny": 8, "mesh.nz": 8, "mesh.ratio": 4,
        "time.steps": 2, "basis.offline": 2,
        "field.n_channels": 2, "field.n_inclusions": 2,
        "output.dir": str(tmp_path / "out"),
    })
    cfg.values.update(overrides)
    return cfg


def test_config_defaults_complete():
    cfg = ExperimentConfig.default()
    assert cfg["mesh.nx"] == 16
    assert cfg["problem.preset"] == "mixed-bc"
    assert cfg["fluid.mu"] == 5.0
    assert cfg["newton.tol"] == 1e-6
    cfg.validate()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n"
        "basis.snapshot = v2\n"
        "error.plain_h1 = true\n"
        "online.count = 1\n"
        "online.updates = 1,7,14\n"
    )
    cfg = ExperimentConfig.from_file(path)
    assert cfg["mesh.nx"] == 8
    assert cfg["basis.snapshot"] == "v2"
    assert cfg["error.plain_h1"] is True
    assert cfg.schedule().update_steps == (1, 7, 14)


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mesh.bogus = 3\n")
    with pytest.raises(ConfigError, match="mesh.bogus"):
        ExperimentConfig.from_file(path)


def test_config_bad_value_rejected():
    cfg = ExperimentConfig.default()
    with pytest.raises(ConfigError):
        cfg.set("mesh.nx", "not-a-number")
    with pytest.raises(ConfigError):
        cfg.set("error.plain_h1", "maybe")


def test_config_missing_file():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file("/nonexistent/path.cfg")


def test_config_line_without_equals(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mesh.nx 8\n")
    with pytest.raises(ConfigError, match=":1"):
        ExperimentConfig.from_file(path)


def test_config_validation_rules(tmp_path):
    # basis.offline is checked where a run reads it, before anything is
    # solved or written; sweeps carry their own offline counts
    cfg = small_config(tmp_path, **{"basis.offline": 0, "online.count": 0})
    cfg.validate()
    with pytest.raises(ConfigError, match="empty coarse space"):
        run_experiment(cfg)
    assert not (tmp_path / "out").exists()
    cfg = small_config(tmp_path, **{"mesh.nx": 9})
    with pytest.raises(ConfigError, match="divisible"):
        cfg.validate()
    cfg = small_config(tmp_path, **{"field.kind": "weird"})
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = small_config(tmp_path, **{"online.count": 1, "online.updates": "99"})
    with pytest.raises(ConfigError):
        cfg.schedule()
    cfg = small_config(tmp_path, **{"online.count": -1})
    with pytest.raises(ConfigError, match="online.count"):
        cfg.schedule()


def _reference_key(cfg):
    problem = cfg.build_problem(cfg.build_mesh().fine)
    return harness._reference_key(problem, cfg.newton())


def test_reference_hash_sensitivity(tmp_path):
    """The fine-reference cache key follows the problem the fine solve reads:
    the field seed changes it; the output directory, the basis keys, the
    coarse ratio and an unread field path do not."""
    a = small_config(tmp_path)
    b = small_config(tmp_path, seed=1)
    c = small_config(tmp_path, **{"output.dir": str(tmp_path / "elsewhere")})
    d = small_config(tmp_path, **{"basis.offline": 4, "basis.snapshot": "v2",
                                  "basis.extra_density_mass": True})
    e = small_config(tmp_path, **{"mesh.ratio": 2, "field.path": "unread.bin"})
    assert _reference_key(a) != _reference_key(b)
    assert _reference_key(a) == _reference_key(c)  # output dir irrelevant
    assert _reference_key(a) == _reference_key(d)  # basis irrelevant
    assert _reference_key(a) == _reference_key(e)  # the fine solve reads neither


def _mass2():
    return sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0)


def test_relative_l2_error_cases():
    M = _mass2()
    p = np.array([1.0, 2.0])
    assert relative_l2_error(p, p, M) == 0.0
    assert relative_l2_error(2 * p, p, M) == pytest.approx(1.0, rel=1e-14)
    # dense quadratic-form oracle
    q = np.array([1.5, -0.5])
    d = q - p
    expected = np.sqrt((d @ (M @ d)) / (p @ (M @ p)))
    assert relative_l2_error(q, p, M) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(MsflowError):
        relative_l2_error(p, np.zeros(2), M)


def test_relative_h1_error_cases():
    A = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    p = np.array([1.0, 3.0])
    assert relative_h1_error(p, p, A) == 0.0
    # seminorm kills constant shifts
    assert relative_h1_error(p + 5.0, p, A) == pytest.approx(0.0, abs=1e-14)
    q = np.array([1.0, 4.0])
    assert relative_h1_error(q, p, A) == pytest.approx(0.5, rel=1e-14)


def test_export_vtk(mesh4, tmp_path):
    path = tmp_path / "field.vtk"
    field = np.full(mesh4.fine.n_nodes, 3.25)
    export_vtk(mesh4.fine, field, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert f"DIMENSIONS {mesh4.fine.nx + 1} {mesh4.fine.ny + 1} {mesh4.fine.nz + 1}" in text
    assert f"POINT_DATA {mesh4.fine.n_nodes}" in text
    values = [float(v) for v in text[text.index("LOOKUP_TABLE default") + 1:]]
    assert values == [3.25] * mesh4.fine.n_nodes
    # byte-stable across writes
    first = path.read_bytes()
    export_vtk(mesh4.fine, field, path)
    assert path.read_bytes() == first
    with pytest.raises(MsflowError):
        export_vtk(mesh4.fine, np.zeros(3), path)


def test_parse_variant():
    assert parse_variant("4+0") == (4, 0, 0)
    assert parse_variant("4+1") == (4, 1, 1)
    assert parse_variant("4+1u3") == (4, 1, 3)
    assert parse_variant("4+0u3") == (4, 0, 3)
    with pytest.raises(ConfigError):
        parse_variant("four+one")
    for bad in ("0+1", "2+-1", "2+1u0", "2+1u"):
        with pytest.raises(ConfigError, match=re.escape(f"'{bad}'")):
            parse_variant(bad)


def test_csv_row_format():
    r = ExperimentReport("4+1", 500, 1.0, 2.0, 3.0, 1e-4, 2e-2, 40)
    row = r.csv_row()
    fields = row.split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "4+1"
    assert int(fields[1]) == 500
    assert float(fields[5]) == 1e-4


def test_fine_reference_caching(tmp_path):
    cfg = small_config(tmp_path)
    (states, iters, _, _), problem, mesh = fine_reference(cfg)
    assert len(states) == cfg["time.steps"] + 1
    caches = list((tmp_path / "out").glob("fine_ref_*.npz"))
    assert len(caches) == 1
    mtime = caches[0].stat().st_mtime_ns
    (states2, _, _, _), _, _ = fine_reference(cfg)
    assert caches[0].stat().st_mtime_ns == mtime  # reused, not recomputed
    assert np.array_equal(np.asarray(states), np.asarray(states2))


def test_reference_hash_includes_version(tmp_path, monkeypatch):
    cfg = small_config(tmp_path)
    before = _reference_key(cfg)
    monkeypatch.setattr(harness, "REFERENCE_VERSION", harness.REFERENCE_VERSION + 1)
    assert _reference_key(cfg) != before


def test_rewritten_field_file_is_solved_again(tmp_path):
    """With field.kind = file the cache key follows the file's values:
    rewriting the file in place makes the next run solve a new reference."""
    path = tmp_path / "field.bin"
    cfg = small_config(tmp_path, **{"field.kind": "file", "field.path": str(path)})
    fine = cfg.build_mesh().fine
    save_field_to_file(PermeabilityField(np.ones(fine.n_cells)), path)
    (first, _, _, _), _, _ = fine_reference(cfg)
    save_field_to_file(cfg.channel_field(fine), path)
    (second, _, _, _), problem, _ = fine_reference(cfg)
    assert len(list((tmp_path / "out").glob("fine_ref_*.npz"))) == 2
    assert np.array_equal(problem.perm.values, cfg.channel_field(fine).values)
    assert not np.array_equal(np.asarray(first), np.asarray(second))


def test_fine_reference_written_through_temp_file(tmp_path, monkeypatch):
    """An interrupted write leaves neither a cache nor a temp file behind."""
    cfg = small_config(tmp_path)

    def interrupted(fh, **arrays):
        fh.write(b"PK partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(harness.np, "savez", interrupted)
    with pytest.raises(KeyboardInterrupt):
        fine_reference(cfg)
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("damage", ["truncated", "wrong_shape"])
def test_bad_fine_reference_cache_is_a_miss(tmp_path, caplog, damage):
    cfg = small_config(tmp_path)
    (states, _, _, _), _, _ = fine_reference(cfg)
    (cache,) = (tmp_path / "out").glob("fine_ref_*.npz")
    if damage == "truncated":
        cache.write_bytes(cache.read_bytes()[:100])
    else:
        np.savez(cache, states=np.zeros((2, 5)), newton_iters=np.zeros(1),
                 t_ass=0.0, t_solve=0.0)
    with caplog.at_level("WARNING", logger="msflow.harness"):
        (states2, _, _, _), _, _ = fine_reference(cfg)
    assert "ignoring" in caplog.text and str(cache) in caplog.text
    assert np.array_equal(np.asarray(states), np.asarray(states2))
    caplog.clear()
    (states3, _, _, _), _, _ = fine_reference(cfg)  # the rewritten cache loads
    assert caplog.text == ""
    assert np.array_equal(np.asarray(states), np.asarray(states3))


def test_run_experiment_report(tmp_path):
    cfg = small_config(tmp_path)
    report = run_experiment(cfg)
    assert report.nb_label == "2+0"
    assert report.dim == 2 * 27
    assert 0.0 < report.e_l2 < 1.0
    assert 0.0 < report.e_h1 < 1.0
    csv = (tmp_path / "out" / "report.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER
    assert csv[1].startswith("2+0,54,")


def test_run_experiment_online_label_and_series(tmp_path):
    cfg = small_config(
        tmp_path,
        **{
            "online.count": 1, "online.updates": "1,2",
            "error.all_steps": True,
            "problem.preset": "neumann-wells",
        },
    )
    report = run_experiment(cfg)
    assert report.nb_label == "2+1(2 updates)"
    assert report.dim == 2 * 27 + 27
    series = (tmp_path / "out" / "errors_per_step.csv").read_text().splitlines()
    assert series[0] == "step,e_l2,e_h1"
    assert len(series) == 1 + cfg["time.steps"]


def test_run_experiment_vtk_steps(tmp_path):
    cfg = small_config(tmp_path)
    run_experiment(cfg, vtk_steps=(0, 2))
    out = tmp_path / "out"
    for step in (0, 2):
        assert (out / f"coarse_step{step:03d}.vtk").exists()
        assert (out / f"fine_step{step:03d}.vtk").exists()
    with pytest.raises(ConfigError):
        run_experiment(cfg, vtk_steps=(99,))


def test_sweep_rows(tmp_path):
    cfg = small_config(tmp_path)
    reports = sweep(cfg, ["2+0", "2+1"])
    assert [r.nb_label for r in reports] == ["fine", "2+0", "2+1"]
    assert reports[0].dim == 9**3
    assert reports[0].e_l2 == 0.0
    csv = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == 4


def test_sweep_writes_each_variants_per_step_errors(tmp_path):
    """With error.all_steps every sweep variant writes its own per-step file,
    named by the variant as given, whose last row is its CSV row's errors."""
    cfg = small_config(tmp_path, **{"error.all_steps": True})
    reports = sweep(cfg, ["2+0", "2+1u2"])
    assert reports[2].nb_label == "2+1(2 updates)"
    for label, report in zip(["2+0", "2+1u2"], reports[1:]):
        rows = (tmp_path / "out" / f"errors_per_step_{label}.csv").read_text()
        rows = rows.splitlines()
        assert rows[0] == "step,e_l2,e_h1"
        assert len(rows) == 1 + cfg["time.steps"]
        assert rows[-1].split(",")[1:] == [
            f"{report.e_l2:.17g}", f"{report.e_h1:.17g}"
        ]
    assert not (tmp_path / "out" / "errors_per_step.csv").exists()


def test_sweep_builds_each_offline_space_once(tmp_path, monkeypatch, caplog):
    """Variants with one snapshot kind and mass option share one offline
    pass: one spectral solve per distinct local problem for the largest
    offline count (L+4 pairs), plus the re-solves with more pairs; the pass
    logs the re-solves and the neighborhoods that reuse an equal patch's
    solve."""
    calls = []
    solve = offline.solve_local_spectral

    def counting(mesh, i, *args, n_eig):
        calls.append((i, n_eig))
        return solve(mesh, i, *args, n_eig=n_eig)

    monkeypatch.setattr(offline, "solve_local_spectral", counting)
    # counting sees the solves of this process only, so the pass runs in one
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    reports = sweep(small_config(tmp_path), ["2+0", "2+1", "4+0"])
    n_nb = 27
    logged = re.findall(r"(\d+) reused .* (\d+) n_eig growth re-solves", caplog.text)
    assert len(logged) == 1
    reused, resolves = map(int, logged[0])
    first = [i for i, n in calls if n == 4 + 4]
    assert len(first) == len(set(first)) == n_nb - reused
    assert len(calls) == n_nb - reused + resolves
    assert all(n >= 8 for _, n in calls)
    # a shared pass reports its time in every row whose space it built
    assert reports[1].t_basis > 0.0 and reports[2].t_basis > reports[1].t_basis
    assert reports[3].t_basis > 0.0


@pytest.mark.parametrize("variants", [None, ["2+0", "2+1", "4+0"]])
def test_error_operators_built_once_before_the_coarse_runs(tmp_path, monkeypatch,
                                                           variants):
    """A lone run and a sweep assemble the error-norm mass and stiffness
    once, before the first coarse run, and every variant uses them."""
    events = []

    def recording(name):
        fn = getattr(harness, name)

        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapper)

    for name in ("assemble_weighted_mass", "assemble_weighted_stiffness",
                 "solve_gmsfem"):
        recording(name)
    # events sees the calls of this process only, so the runs go in one
    monkeypatch.setattr(workers, "cpu_count", lambda: 1)
    cfg = small_config(tmp_path)
    if variants is None:
        run_experiment(cfg)
    else:
        sweep(cfg, variants)
    runs = 1 if variants is None else len(variants)
    assert events == (
        ["assemble_weighted_mass", "assemble_weighted_stiffness"]
        + ["solve_gmsfem"] * runs
    )


def test_lone_run_matches_its_sweep_row(tmp_path, caplog):
    """A lone L=4 run equals the 4+0 row of a sweep that also builds L=8,
    although the sweep's spectral solves ask for more pairs, on a uniform
    field whose symmetric patches have clusters of equal eigenvalues across
    the L=4 cut: same dim and Newton count, errors to 1e-8 relative."""
    overrides = {"field.kind": "uniform", "problem.preset": "neumann-wells",
                 "basis.offline": 4}
    caplog.set_level(logging.DEBUG, logger="msflow.offline")
    lone = run_experiment(small_config(tmp_path / "a", **overrides))
    straddled = re.search(r"(\d+) at L=4", caplog.text)
    assert int(straddled.group(1)) > 0
    row = sweep(small_config(tmp_path / "b", **overrides), ["4+0", "8+0"])[1]
    assert row.nb_label == "4+0"
    assert (row.dim, row.newton_total) == (lone.dim, lone.newton_total)
    assert abs(row.e_l2 - lone.e_l2) <= 1e-8 * lone.e_l2
    assert abs(row.e_h1 - lone.e_h1) <= 1e-8 * lone.e_h1


def _rows_without_timing(path):
    return [
        ",".join(f[:2] + f[5:])
        for f in (line.split(",") for line in path.read_text().splitlines())
    ]


def test_sweep_shared_space_keeps_online_block_private(tmp_path):
    """An offline-only run after an enriched run on the same offline space
    equals the offline-only run alone: no online column leaks between runs."""
    sweep(small_config(tmp_path / "a"), ["2+1", "2+0"])
    sweep(small_config(tmp_path / "b"), ["2+0"])
    a = _rows_without_timing(tmp_path / "a" / "out" / "sweep.csv")
    b = _rows_without_timing(tmp_path / "b" / "out" / "sweep.csv")
    assert a[3].startswith("2+0,54,")
    assert a[3] == b[2]
    assert a[2].startswith("2+1,81,")


def test_cli_run_and_check(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n"
        "time.steps = 2\nbasis.offline = 2\n"
        "field.n_channels = 2\nfield.n_inclusions = 2\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfgfile)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == CSV_HEADER
    assert out[1].startswith("2+0,")
    # fine-ref into the --out directory: summary line, cache, VTK steps
    ref_dir = tmp_path / "ref"
    argv = ["fine-ref", "--config", str(cfgfile), "--out", str(ref_dir), "--vtk", "0,2"]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("fine reference: 729 DOFs, 2 steps, ")
    assert len(list(ref_dir.glob("fine_ref_*.npz"))) == 1
    assert sorted(p.name for p in ref_dir.glob("*.vtk")) == [
        "fine_step000.vtk", "fine_step002.vtk"
    ]


def test_cli_check_passes(capsys):
    """`msflow check`: partition of unity, Jacobian finite differences, the
    identity-projection equivalence of the coarse solver, the
    driver-independent offline span, the v2 harmonic extensions and their
    Schur complement pencil, and an offline pass that gives the same bits on
    one CPU and on every CPU of the affinity mask, on small grids."""
    assert main(["check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6 and all(line.startswith("[PASS]") for line in out)
    assert out[4].startswith("[PASS] v2 harmonic extensions and Schur pencil ")
    assert out[5].startswith("[PASS] offline pass independent of process count ")


@pytest.mark.skipif(
    workers._parallel() is None, reason="no OpenBLAS thread pin or no fork"
)
def test_cli_check_restores_the_affinity_mask(monkeypatch, capsys):
    """`msflow check` runs its one-process passes under a one-CPU affinity
    mask and its others under the mask it found, which it leaves as it
    found it, also when a pass raises."""
    mask = os.sched_getaffinity(0)
    seen = []
    run = workers.run

    def recording(solve, jobs):
        seen.append((workers.cpu_count(), os.sched_getaffinity(0)))
        return run(solve, jobs)

    monkeypatch.setattr(workers, "run", recording)
    assert main(["check"]) == 0
    assert os.sched_getaffinity(0) == mask
    assert [n for n, _ in seen] == [1, 1, len(mask), len(mask)]
    assert [m for _, m in seen] == [{min(mask)}] * 2 + [mask] * 2

    def failing(*args, **kwargs):
        raise MsflowError("pass failed")

    monkeypatch.setattr(offline, "build_offline_spaces", failing)
    assert main(["check"]) == 1
    assert "pass failed" in capsys.readouterr().err
    assert os.sched_getaffinity(0) == mask


def test_no_module_imports_unittest():
    """Shipped code patches nothing: no msflow module imports unittest."""
    for path in sorted(Path(msflow.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                [a.name for a in node.names] if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
            assert not any(n.split(".")[0] == "unittest" for n in names), path


def test_cli_sweep_prints_ratio(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n"
        "time.steps = 2\nbasis.offline = 2\n"
        "field.n_channels = 2\nfield.n_inclusions = 2\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["sweep", "--config", str(cfgfile), "--nb", "2+0"]) == 0
    out = capsys.readouterr().out
    assert CSV_HEADER in out
    assert "T_solve(coarse)/T_solve(fine)" in out


def test_cli_gen_field_round_trip(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n")
    path = tmp_path / "field.bin"
    assert main(["gen-field", "--config", str(cfgfile), str(path)]) == 0
    assert path.stat().st_size == 8 * 8**3


def test_cli_exit_codes(tmp_path, capsys):
    # 2: configuration error
    badcfg = tmp_path / "bad.cfg"
    badcfg.write_text("mesh.bogus = 1\n")
    assert main(["run", "--config", str(badcfg)]) == 2
    # 2: bad variant list
    assert main(["sweep", "--config", str(badcfg), "--nb", "2+0"]) == 2
    # 4: IO error (unreadable field file)
    iocfg = tmp_path / "io.cfg"
    iocfg.write_text(
        "mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n"
        "time.steps = 1\nfield.kind = file\n"
        f"field.path = {tmp_path / 'missing.bin'}\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(iocfg)]) == 4
    # 4: IO error (a directory where a VTK file is to be written)
    vtkcfg = tmp_path / "vtk.cfg"
    vtkcfg.write_text(
        "mesh.nx = 4\nmesh.ny = 4\nmesh.nz = 4\nmesh.ratio = 2\n"
        f"time.steps = 1\noutput.dir = {tmp_path / 'out4'}\n"
    )
    (tmp_path / "out4" / "fine_step000.vtk").mkdir(parents=True)
    assert main(["fine-ref", "--config", str(vtkcfg), "--vtk", "0"]) == 4
    # 4: IO error (a field file in a directory that does not exist)
    missing = tmp_path / "no_such_dir" / "field.bin"
    capsys.readouterr()
    assert main(["gen-field", "--config", str(vtkcfg), str(missing)]) == 4
    assert f"cannot write field file {missing}" in capsys.readouterr().err
    assert not missing.parent.exists()
    # 3: Newton non-convergence
    newtcfg = tmp_path / "newt.cfg"
    newtcfg.write_text(
        "mesh.nx = 4\nmesh.ny = 4\nmesh.nz = 4\nmesh.ratio = 2\n"
        "time.steps = 1\nbasis.offline = 2\n"
        "field.n_channels = 0\nfield.n_inclusions = 0\n"
        "newton.tol = 1e-300\nnewton.max_iter = 1\n"
        f"output.dir = {tmp_path / 'out3'}\n"
    )
    assert main(["run", "--config", str(newtcfg)]) == 3
    # 2: v2 snapshots on a 2x2x2 coarse grid (the center neighborhood is the
    # whole domain and has no constrained boundary nodes)
    v2cfg = tmp_path / "v2.cfg"
    v2cfg.write_text(
        "mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n"
        "time.steps = 1\n"
        f"output.dir = {tmp_path / 'out5'}\n"
    )
    assert main(["run", "--config", str(v2cfg), "--snapshot", "v2"]) == 2


def test_every_error_type_survives_pickling():
    """Every MsflowError type of msflow.errors is rebuilt from its pickle
    with its type, message and fields, as a helper process's pipe needs."""
    types = [t for t in vars(errors).values()
             if isinstance(t, type) and issubclass(t, MsflowError)]
    assert NewtonConvergenceError in types and len(types) > 5
    for typ in types:
        params = [p for p in inspect.signature(typ.__init__).parameters.values()
                  if p.kind is p.POSITIONAL_OR_KEYWORD and p.name != "self"]
        exc = typ(*range(1, len(params) + 1)) if params else typ(f"a {typ.__name__}")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is typ and str(back) == str(exc)
        assert vars(back) == vars(exc)


@pytest.mark.parametrize("argv", [
    ["fine-ref", "--vtk", "99"],
    ["fine-ref", "--vtk", "-1"],
    ["run", "--vtk", "99"],
    ["run", "--offline", "0", "--online", "1"],
    ["sweep", "--nb", "2+0,0+1"],
])
def test_cli_rejects_bad_arguments_before_solving(tmp_path, argv):
    """VTK steps outside 0..time.steps and an empty offline basis exit 2
    before the fine reference is solved: nothing is written."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n"
        "time.steps = 2\nbasis.offline = 2\n"
        "field.n_channels = 2\nfield.n_inclusions = 2\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(argv + ["--config", str(cfgfile)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("newton.tol", "nan"),
    ("field.channel", "nan"),
    ("time.dt", "nan"),
    ("mesh.h", "inf"),
    ("fluid.c", "inf"),
    ("newton.tol", "-1"),
    ("newton.tol", "1"),
    ("newton.tol", "2"),
    ("newton.damping", "0"),
    ("newton.max_iter", "0"),
])
def test_cli_rejects_bad_config_values_before_solving(tmp_path, capsys, key, value):
    """A non-finite float value or an invalid Newton control is a
    configuration error (exit 2) that names its key, raised before the fine
    reference is solved: nothing is written."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 4\nmesh.ny = 4\nmesh.nz = 4\nmesh.ratio = 2\n"
        "time.steps = 1\nbasis.offline = 2\n"
        f"{key} = {value}\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("h", ["1e120", "1e-120"])
def test_cli_rejects_a_cell_volume_out_of_range(tmp_path, capsys, h):
    """A cell edge whose volume h**3 overflows or underflows to zero is a
    configuration error (exit 2) that names the value, raised before the
    output directory is made."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 4\nmesh.ny = 4\nmesh.nz = 4\nmesh.ratio = 2\n"
        f"time.steps = 1\nmesh.h = {h}\noutput.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and f"got {float(h)}" in err
    assert not (tmp_path / "out").exists()


def test_cli_extreme_contrast_is_a_typed_error(tmp_path, capsys):
    """A background permeability of 1e-300 on a 4^3 r=2 mesh leaves the
    local spectral mass numerically indefinite, so the computed vectors of
    an eigenvalue cluster are dependent: `msflow run` exits 1 with one
    `error:` line naming the neighborhood and its ill-conditioned pencil."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 4\nmesh.ny = 4\nmesh.nz = 4\nmesh.ratio = 2\n"
        "time.steps = 1\nfield.background = 1e-300\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfgfile)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: local pencil of neighborhood \d+ is too ill-conditioned", err)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, lines, name", [
    (["run", "--seed", "-1"], "", "seed"),
    (["gen-field", "--seed", "-1", "FIELD"], "", "seed"),
    (["run"], "field.kind = uniform\nfield.background = -1\n", "field.background"),
    (["run"], "field.n_channels = -3\nfield.n_inclusions = 0\n", "field.n_channels"),
    (["run"], "field.n_channels = 0\nfield.n_inclusions = -2\n", "field.n_inclusions"),
    (["run"], "field.background = -1\n", "field.background"),
    (["sweep", "--nb", "2+0"], "field.channel = 0\n", "field.channel"),
    (["gen-field", "FIELD"], "field.n_inclusions = -2\n", "field.n_inclusions"),
    (["run", "--online", "-1"], "", "online.count"),
    (["sweep", "--nb", "2+0,2+-1"], "", "2+-1"),
    (["sweep", "--nb", "2+1u0"], "", "2+1u0"),
    (["sweep", "--nb", "2+0,2+1u3"], "", "2+1u3"),
    (["run", "--online", "1", "--updates", "1,1"], "", "online.updates"),
    (["run", "--online", "1", "--updates", "1"], "time.steps = 0\n",
     "online update step 1"),
    (["sweep", "--nb", "4+1u1"], "time.steps = 0\n", "4+1u1"),
    (["run", "--vtk", "1,x"], "", "--vtk"),
    (["sweep", "--nb", ","], "", "--nb"),
    (["run", "--online", "1", "--updates", "1,x"], "", "online.updates"),
    (["run"], "basis.snapshot = v3\n", "basis.snapshot"),
    (["run"], "field.kind = file\n", "field.path"),
], ids=["run-seed", "gen-field-seed", "uniform-background", "channel-count",
        "inclusion-count", "channels-background", "channels-channel",
        "gen-field-inclusion-count", "online-count", "variant-online",
        "variant-updates", "variant-more-updates-than-steps", "repeated-update",
        "update-at-zero-steps", "variant-update-at-zero-steps", "vtk-list",
        "empty-variant-list", "updates-list", "snapshot-kind", "field-file-path"])
def test_cli_rejects_bad_values_naming_them(tmp_path, capsys, argv, lines, name):
    """A negative seed, online count, channel count or inclusion count, a
    non-positive uniform or channel-field permeability, a repeated online
    update step, an update step past time.steps (also at 0 steps) and a
    sweep variant with offline < 1, online < 0 or u<k> with k < 1 or
    k > time.steps, a --vtk or online.updates list that is not integers, an
    empty --nb list, an unknown snapshot kind and a file field without a
    path are configuration errors (exit 2) that name the key, the option or
    the variant, raised before anything is written."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 4\nmesh.ny = 4\nmesh.nz = 4\nmesh.ratio = 2\n"
        "time.steps = 2\nbasis.offline = 2\n"
        f"{lines}output.dir = {tmp_path / 'out'}\n"
    )
    argv = [str(tmp_path / "field.bin") if a == "FIELD" else a for a in argv]
    assert main(argv + ["--config", str(cfgfile)]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "field.bin").exists()


def test_sweep_ignores_the_online_keys_it_does_not_read(tmp_path, capsys):
    """A sweep's variants carry their own online schedules, so online.count
    and online.updates of the config are not checked by a sweep: an update
    step outside the time grid fails `run` (exit 2) and not `sweep`."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 4\nmesh.ny = 4\nmesh.nz = 4\nmesh.ratio = 2\n"
        "time.steps = 2\nbasis.offline = 2\n"
        "online.count = 1\nonline.updates = 99\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert "99" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["sweep", "--config", str(cfgfile), "--nb", "2+0"]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("2+0,54,")


def test_sweep_ignores_the_offline_count_it_does_not_read(tmp_path, capsys):
    """Every sweep variant carries its own offline count, so basis.offline
    of the config is not checked by a sweep: basis.offline = 0 fails `run`
    (exit 2, naming the key, nothing written) and not `sweep`."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 4\nmesh.ny = 4\nmesh.nz = 4\nmesh.ratio = 2\n"
        "time.steps = 2\nbasis.offline = 0\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    assert main(["run", "--config", str(cfgfile)]) == 2
    assert "basis.offline" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["sweep", "--config", str(cfgfile), "--nb", "2+0"]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("2+0,54,")
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0] == CSV_HEADER
    assert rows[1].startswith("fine,") and rows[2].startswith("2+0,54,")


@pytest.mark.parametrize("argv", [
    ["sweep", "--nb", "2+0", "--vtk", "0,2"],
    ["sweep", "--nb", "2+0", "--offline", "6"],
    ["sweep", "--nb", "2+0", "--updates", "1"],
    ["gen-field", "--vtk", "99", "FIELD"],
    ["gen-field", "--out", "OUT", "FIELD"],
    ["fine-ref", "--online", "2"],
    ["fine-ref", "--snapshot", "v2"],
    ["check", "--seed", "1"],
])
def test_cli_rejects_flags_a_subcommand_does_not_read(tmp_path, capsys, argv):
    """A flag the subcommand would ignore is a usage error (exit 2) from
    argparse, before anything runs: nothing is written."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "mesh.nx = 8\nmesh.ny = 8\nmesh.nz = 8\nmesh.ratio = 4\n"
        "time.steps = 2\nbasis.offline = 2\n"
        f"output.dir = {tmp_path / 'out'}\n"
    )
    paths = {"FIELD": str(tmp_path / "field.bin"), "OUT": str(tmp_path / "out")}
    argv = [paths.get(a, a) for a in argv]
    if argv[0] != "check":
        argv += ["--config", str(cfgfile)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "field.bin").exists()

"""Experiment harness: configuration, error metrics, reference caching,
CSV reporting and VTK export."""

import functools
import hashlib
import logging
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import workers
from .coarse import solve_gmsfem
from .errors import ConfigError, MsflowError
from .fem import (
    NewtonConfig,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    solve_fine,
)
from .grid import build_two_scale_mesh
from .model import (
    FluidProps,
    PermeabilityField,
    TimeGrid,
    generate_channel_field,
    load_field_from_file,
    make_problem,
)
from .offline import build_offline_space, build_offline_spaces
from .online import UpdateSchedule

log = logging.getLogger(__name__)

CSV_HEADER = "nb,dim,t_basis,t_ass,t_solve,e_l2,e_h1,newton_total"

# Part of the fine-reference cache key: bump it whenever the cache format or
# the fine solver's arithmetic (even its last bits) changes.
REFERENCE_VERSION = 7

# key -> (type, default); None default means required-when-used
_SCHEMA = {
    "mesh.nx": (int, 16),
    "mesh.ny": (int, 16),
    "mesh.nz": (int, 16),
    "mesh.ratio": (int, 4),
    "mesh.h": (float, 1.0),
    "field.kind": (str, "channels"),  # channels | file | uniform
    "field.path": (str, ""),
    "field.background": (float, 1.0),
    "field.channel": (float, 1.0e4),
    "field.n_channels": (int, 6),
    "field.n_inclusions": (int, 8),
    "problem.preset": (str, "mixed-bc"),  # mixed-bc | neumann-wells
    "problem.well_rate": (float, 1.0e8),
    "fluid.mu": (float, 5.0),
    "fluid.phi": (float, 500.0),
    "fluid.c": (float, 1.0e-8),
    "fluid.rho_ref": (float, 850.0),
    "fluid.p_ref": (float, 2.00e7),
    "time.dt": (float, 2.5e-5),
    "time.steps": (int, 20),
    "basis.snapshot": (str, "v1"),  # v1 | v2
    "basis.offline": (int, 4),
    "basis.extra_density_mass": (bool, False),
    "online.count": (int, 0),
    "online.updates": (str, "1"),  # comma-separated 1-based step list
    "newton.tol": (float, 1.0e-6),
    "newton.max_iter": (int, 25),
    "newton.damping": (float, 1.0),
    "error.plain_h1": (bool, False),
    "error.all_steps": (bool, False),
    "output.dir": (str, "out"),
    "seed": (int, 0),
}

_BOOL = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


@dataclass
class ExperimentConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key, raw):
        if key not in _SCHEMA:
            raise ConfigError(f"unknown configuration key '{key}'")
        typ, _ = _SCHEMA[key]
        try:
            if typ is bool and isinstance(raw, str):
                self.values[key] = _BOOL[raw.strip().lower()]
            else:
                self.values[key] = typ(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad value for '{key}': {raw!r}") from exc
        if typ is float and not np.isfinite(self.values[key]):
            raise ConfigError(f"non-finite value for '{key}': {raw!r}")

    @staticmethod
    def default():
        return ExperimentConfig({k: v for k, (_, v) in _SCHEMA.items()})

    @staticmethod
    def from_file(path):
        cfg = ExperimentConfig.default()
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            cfg.set(key.strip(), raw.strip())
        return cfg

    def schedule(self):
        """The run's online schedule: online.count vectors per neighborhood
        (none for 0), recomputed at the online.updates steps, each checked
        against the time grid."""
        n_online, raw = self["online.count"], self["online.updates"].strip()
        if n_online < 0:
            raise ConfigError(f"online.count must be >= 0, got {n_online}")
        try:
            steps = tuple(int(s) for s in raw.split(",")) if n_online and raw else ()
        except ValueError as exc:
            raise ConfigError(f"bad online.updates list: {raw!r}") from exc
        schedule = UpdateSchedule(n_online, steps)
        schedule.validate(self["time.steps"])
        return schedule

    def validate(self):
        mesh = self.build_mesh()  # raises on divisibility problems
        self.newton()  # raises on invalid Newton controls
        if self["field.kind"] not in ("channels", "file", "uniform"):
            raise ConfigError(f"unknown field.kind '{self['field.kind']}'")
        if self["basis.snapshot"] not in ("v1", "v2"):
            raise ConfigError(f"unknown basis.snapshot '{self['basis.snapshot']}'")
        return mesh

    def build_mesh(self):
        return build_two_scale_mesh(
            self["mesh.nx"], self["mesh.ny"], self["mesh.nz"],
            self["mesh.ratio"], self["mesh.h"],
        )

    def build_field(self, fine):
        kind = self["field.kind"]
        if kind == "uniform":
            value = self["field.background"]
            if value <= 0:
                raise ConfigError(f"field.background must be positive, got {value}")
            return PermeabilityField(np.full(fine.n_cells, value))
        if kind == "file":
            if not self["field.path"]:
                raise ConfigError("field.kind = file requires field.path")
            return load_field_from_file(self["field.path"], fine)
        return self.channel_field(fine)

    def channel_field(self, fine):
        """The synthetic channel field of the field.* keys and the seed."""
        for key in ("field.background", "field.channel"):
            if self[key] <= 0:
                raise ConfigError(f"{key} must be positive, got {self[key]}")
        for key in ("field.n_channels", "field.n_inclusions"):
            if self[key] < 0:
                raise ConfigError(f"{key} must be >= 0, got {self[key]}")
        return generate_channel_field(
            fine,
            seed=self["seed"],
            background=self["field.background"],
            channel=self["field.channel"],
            n_channels=self["field.n_channels"],
            n_inclusions=self["field.n_inclusions"],
        )

    def build_fluid(self):
        return FluidProps(
            mu=self["fluid.mu"], phi=self["fluid.phi"], c=self["fluid.c"],
            rho_ref=self["fluid.rho_ref"], p_ref=self["fluid.p_ref"],
        )

    def build_problem(self, fine):
        return make_problem(
            fine,
            self.build_fluid(),
            self.build_field(fine),
            TimeGrid(dt=self["time.dt"], n_steps=self["time.steps"]),
            self["problem.preset"],
            well_rate=self["problem.well_rate"],
        )

    def newton(self):
        return NewtonConfig(
            tol=self["newton.tol"],
            max_iter=self["newton.max_iter"],
            damping=self["newton.damping"],
        )


def _relative_error(p_ms, p_ref, op, what):
    d = np.asarray(p_ms) - np.asarray(p_ref)
    ref = float(np.asarray(p_ref) @ (op @ p_ref))
    if ref <= 0:
        raise MsflowError(f"zero reference {what}")
    return float(np.sqrt(max(0.0, d @ (op @ d)) / ref))


def relative_l2_error(p_ms, p_ref, mass):
    """||p_ms - p_ref||_M / ||p_ref||_M."""
    return _relative_error(p_ms, p_ref, mass, "norm in L2 error")


def relative_h1_error(p_ms, p_ref, stiffness):
    """Energy-seminorm relative error with the given weighted stiffness."""
    return _relative_error(p_ms, p_ref, stiffness, "seminorm in H1 error")


def export_vtk(fine, nodal_field, path):
    """Legacy-VTK structured-points file with one scalar point field,
    `pressure`."""
    nodal_field = np.asarray(nodal_field)
    if nodal_field.shape[0] != fine.n_nodes:
        raise MsflowError("VTK export: field length does not match the grid")
    lines = [
        "# vtk DataFile Version 3.0",
        "pressure",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {fine.nx + 1} {fine.ny + 1} {fine.nz + 1}",
        "ORIGIN 0 0 0",
        f"SPACING {fine.h:.12g} {fine.h:.12g} {fine.h:.12g}",
        f"POINT_DATA {fine.n_nodes}",
        "SCALARS pressure double",
        "LOOKUP_TABLE default",
    ]
    lines.extend(f"{v:.12e}" for v in nodal_field)
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class ExperimentReport:
    nb_label: str
    dim: int
    t_basis: float
    t_ass: float
    t_solve: float
    e_l2: float
    e_h1: float
    newton_total: int

    def csv_row(self):
        return (
            f"{self.nb_label},{self.dim},{self.t_basis:.4f},{self.t_ass:.4f},"
            f"{self.t_solve:.4f},{self.e_l2:.17g},{self.e_h1:.17g},"
            f"{self.newton_total}"
        )


def _append_csv(path, report):
    path = Path(path)
    new = not path.exists()
    with path.open("a") as fh:
        if new:
            fh.write(CSV_HEADER + "\n")
        fh.write(report.csv_row() + "\n")


def _load_reference(cache, problem):
    """The cached reference (states, newton_iters, t_ass, t_solve), or None
    (logged at WARNING) if the file cannot be read or its arrays have the
    wrong shape."""
    try:
        with open(cache, "rb") as fh, np.load(fh) as data:
            states, iters = data["states"], data["newton_iters"]
            t_ass, t_solve = float(data["t_ass"]), float(data["t_solve"])
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile, zlib.error) as exc:
        log.warning("ignoring unreadable fine reference cache %s: %s", cache, exc)
        return None
    n = problem.time.n_steps
    if states.shape != (n + 1, problem.fine.n_nodes) or iters.shape != (n,):
        log.warning("ignoring fine reference cache %s: shapes do not match the config", cache)
        return None
    return list(states), list(iters), t_ass, t_solve


def _reference_key(problem, newton):
    """The fine-reference cache key: sha256 of everything the fine solve
    reads (grid, fluid, time grid, permeability, Dirichlet nodes and values,
    load and initial state), the Newton controls and REFERENCE_VERSION."""
    bc = problem.boundary
    digest = hashlib.sha256(repr(
        (REFERENCE_VERSION, problem.fine, problem.fluid, problem.time, newton)
    ).encode())
    for a in (problem.perm.values, bc.dirichlet_nodes, bc.dirichlet_values,
              problem.load, problem.p0):
        digest.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return digest.hexdigest()[:16]


def fine_reference(config, force=False):
    """Fine-grid reference solve, cached in the output directory under
    `_reference_key` of the problem it solves.

    The config is checked and the problem built before the output directory
    is created.  The cache is written to a temporary file and renamed into
    place; an unreadable or mismatched cache counts as a miss."""
    mesh = config.validate()
    problem = config.build_problem(mesh.fine)
    out_dir = Path(config["output.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = out_dir / f"fine_ref_{_reference_key(problem, config.newton())}.npz"
    if cache.exists() and not force:
        ref = _load_reference(cache, problem)
        if ref is not None:
            return ref, problem, mesh
    sol = solve_fine(problem, config.newton())
    tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            np.savez(
                fh,
                states=np.asarray(sol.states),
                newton_iters=np.asarray(sol.newton_iters),
                t_ass=sol.t_ass,
                t_solve=sol.t_solve,
            )
        os.replace(tmp, cache)
    finally:
        tmp.unlink(missing_ok=True)
    return (sol.states, sol.newton_iters, sol.t_ass, sol.t_solve), problem, mesh


def _offline_options(config, problem):
    """Keyword arguments of the offline build a config asks for."""
    return dict(
        kind=config["basis.snapshot"],
        dirichlet_nodes=problem.boundary.dirichlet_nodes,
        extra_density_mass=config["basis.extra_density_mass"],
    )


def check_vtk_steps(config, steps):
    """Raise ConfigError unless every VTK step is a state of the run,
    0..time.steps."""
    n = config["time.steps"]
    for step in steps:
        if not 0 <= step <= n:
            raise ConfigError(f"VTK step {step} outside the computed range 0..{n}")


def run_experiment(config, vtk_steps=(), csv_path=None):
    """One full comparison run: cached fine reference, offline space, coarse
    loop with the config's online schedule, error metrics, CSV row, per-step
    errors in errors_per_step.csv (error.all_steps) and optional VTK
    snapshots."""
    check_vtk_steps(config, vtk_steps)
    offline, schedule = config["basis.offline"], config.schedule()
    if offline < 1:  # checked here, not in validate(): sweeps never read it
        raise ConfigError(
            f"empty coarse space: basis.offline is {offline}, every "
            f"neighborhood needs at least 1 offline basis function"
        )
    (ref_states, _, _, _), problem, mesh = fine_reference(config)
    space = build_offline_space(
        mesh, problem.perm, problem.fluid, problem.p0, offline,
        **_offline_options(config, problem),
    )
    out_dir = Path(config["output.dir"])
    (report,) = _coarse_runs(
        config, [(offline, schedule, space, out_dir / "errors_per_step.csv")],
        problem, mesh, ref_states, csv_path or out_dir / "report.csv", vtk_steps,
    )
    return report


def _error_operators(config, problem, mesh):
    """(mass, stiffness) of the error norms: the unit-weight mass and the
    stiffness weighted by kappa/mu, or by one with error.plain_h1."""
    ones = np.ones(mesh.fine.n_cells)
    h1_w = ones if config["error.plain_h1"] else problem.perm.values / problem.fluid.mu
    return (assemble_weighted_mass(mesh.fine, ones),
            assemble_weighted_stiffness(mesh.fine, h1_w))


def _coarse_runs(config, runs, problem, mesh, ref_states, csv_path, vtk_steps=()):
    """The coarse runs, (offline count, online schedule, offline space,
    per-step errors file) each; returns their reports, and appends their CSV
    rows to csv_path, in list order.

    The error-norm operators are built once, here.  The runs are the jobs of
    one `workers.run` on every CPU of the affinity mask, each at one BLAS
    thread, the longest first: the most online rounds, then the most bases
    per neighborhood.  A lone run is made in this process.  Every run's log
    records reach this process's handlers when the last run ends, in that
    order, on any process count.  A failed run raises its error after the
    rows of the runs before it, as runs made one after another would; no
    row of a later run is written."""
    norms = _error_operators(config, problem, mesh)
    solve = functools.partial(
        _coarse_run, config, problem, mesh, ref_states, norms, vtk_steps
    )

    def longest_first(k):
        offline, schedule = runs[k][:2]
        return (-schedule.n_online * len(schedule.update_steps),
                -(offline + schedule.n_online))

    order = sorted(range(len(runs)), key=longest_first)
    results, _ = workers.run(solve, [runs[k] for k in order])
    reports = [report for _, report in sorted(zip(order, results))]
    for report in reports:
        if isinstance(report, Exception):
            raise report
        _append_csv(csv_path, report)
    return reports


def _coarse_run(config, problem, mesh, ref_states, norms, vtk_steps, offline,
                schedule, space, steps_path):
    """The coarse loop of one run, planned as `offline` bases per
    neighborhood (the given offline space) and the online `schedule`: its
    report, with the error metrics in the `_error_operators` norms; the
    per-step errors go to steps_path (error.all_steps) and the VTK snapshots
    to the output directory."""
    out_dir = Path(config["output.dir"])
    result = solve_gmsfem(problem, space, schedule, config.newton())
    mass, stiff = norms

    e_l2 = relative_l2_error(result.final, ref_states[-1], mass)
    e_h1 = relative_h1_error(result.final, ref_states[-1], stiff)

    if config["error.all_steps"]:
        rows = [
            f"{n},{relative_l2_error(result.states[n], ref_states[n], mass):.17g},"
            f"{relative_h1_error(result.states[n], ref_states[n], stiff):.17g}\n"
            for n in range(1, len(result.states))
        ]
        steps_path.write_text("step,e_l2,e_h1\n" + "".join(rows))

    label = f"{offline}+{schedule.n_online}"
    if len(schedule.update_steps) > 1:
        label += f"({len(schedule.update_steps)} updates)"
    report = ExperimentReport(
        nb_label=label,
        dim=space.projection.dim,
        t_basis=space.t_basis + result.t_basis_online,
        t_ass=result.t_ass,
        t_solve=result.t_solve,
        e_l2=e_l2,
        e_h1=e_h1,
        newton_total=int(sum(result.newton_iters)),
    )

    for step in vtk_steps:
        for kind, states in (("coarse", result.states), ("fine", ref_states)):
            export_vtk(mesh.fine, states[step], out_dir / f"{kind}_step{step:03d}.vtk")
    return report


def parse_variant(label):
    """Parse a sweep variant 'x+y' or 'x+yu<k>' (k update steps) into
    (offline, online, updates); a ConfigError names the variant unless
    x >= 1, y >= 0 and k >= 1."""
    off, _, rest = label.partition("+")
    on, u, ups = rest.partition("u")
    try:
        off, on = int(off), int(on)
        ups = int(ups) if u else int(on > 0)
    except ValueError as exc:
        raise ConfigError(f"bad sweep variant '{label}'") from exc
    if off < 1 or on < 0 or (u and ups < 1):
        raise ConfigError(
            f"bad sweep variant '{label}': needs offline >= 1, online >= 0 "
            f"and updates >= 1"
        )
    return off, on, ups


def sweep(config, variants, csv_path=None):
    """Run the fine reference once plus one coarse run per variant; returns
    the list of reports.  The fine reference appears as the first CSV row,
    and with error.all_steps each variant's per-step errors go to
    errors_per_step_<variant>.csv.

    Every variant's plan (offline count, online schedule) is built before
    anything runs, and the fine reference, problem and mesh are loaded once.
    One offline pass (`build_offline_spaces`: one spectral solve per
    neighborhood for all the variants' offline counts) builds one space per
    offline count, and variants with the same count share its space; each
    run's t_basis reports its space's t_basis plus the run's online time.

    The coarse runs then go one per CPU of the affinity mask, at one BLAS
    thread each, the longest first (`_coarse_runs`); this process writes
    their rows in variant order, the same bits on any process count.  A
    row's timing columns are the seconds of its own run, in whichever
    process ran it.  A failing variant raises its error after the rows of
    the variants before it, and no later row is written (their per-step
    files may be)."""
    out_dir = Path(config["output.dir"])
    plans = []
    for label in variants:
        offline, n_online, n_updates = parse_variant(label)
        if n_online and n_updates > config["time.steps"]:
            raise ConfigError(
                f"bad sweep variant '{label}': {n_updates} updates in "
                f"{config['time.steps']} time steps"
            )
        schedule = (
            UpdateSchedule.evenly_spaced(n_online, n_updates, config["time.steps"])
            if n_online else UpdateSchedule.none()
        )
        plans.append((offline, schedule, out_dir / f"errors_per_step_{label}.csv"))

    (ref_states, ref_iters, ref_t_ass, ref_t_solve), problem, mesh = fine_reference(
        config
    )
    csv_path = Path(csv_path or out_dir / "sweep.csv")
    fine_row = ExperimentReport(
        nb_label="fine",
        dim=mesh.fine.n_nodes,
        t_basis=0.0,
        t_ass=ref_t_ass,
        t_solve=ref_t_solve,
        e_l2=0.0,
        e_h1=0.0,
        newton_total=int(sum(ref_iters)),
    )
    _append_csv(csv_path, fine_row)

    # the variants differ only in their plans, so one offline pass and one
    # pair of error-norm operators serve them all
    counts = sorted({offline for offline, _, _ in plans})
    spaces = dict(zip(counts, build_offline_spaces(
        mesh, problem.perm, problem.fluid, problem.p0, counts,
        **_offline_options(config, problem),
    )))
    runs = [(offline, schedule, spaces[offline], steps_path)
            for offline, schedule, steps_path in plans]
    return [fine_row] + _coarse_runs(config, runs, problem, mesh, ref_states, csv_path)

"""Experiment harness: configuration, error metrics, reference caching,
CSV reporting and VTK export."""

import hashlib
import logging
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
REFERENCE_VERSION = 5

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

    def update_steps(self):
        raw = self["online.updates"].strip()
        if not raw:
            return ()
        try:
            return tuple(int(s) for s in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad online.updates list: {raw!r}") from exc

    def validate(self):
        mesh = self.build_mesh()  # raises on divisibility problems
        self.newton()  # raises on invalid Newton controls
        if self["online.count"] > 0:
            sched = UpdateSchedule(self["online.count"], self.update_steps())
            sched.validate(self["time.steps"])
        if self["basis.offline"] < 1:
            raise ConfigError(
                f"empty coarse space: basis.offline is {self['basis.offline']}, "
                f"every neighborhood needs at least 1 offline basis function"
            )
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
            return PermeabilityField(
                np.full(fine.n_cells, self["field.background"])
            )
        if kind == "file":
            if not self["field.path"]:
                raise ConfigError("field.kind = file requires field.path")
            return load_field_from_file(self["field.path"], fine)
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

    def reference_hash(self):
        """Hash of the reference version and every sub-config the fine
        reference depends on."""
        keys = [
            k for k in sorted(_SCHEMA)
            if k.split(".")[0] in ("mesh", "field", "problem", "fluid", "time", "newton")
            or k == "seed"
        ]
        payload = "\n".join(
            [f"version={REFERENCE_VERSION}"] + [f"{k}={self.values[k]!r}" for k in keys]
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def relative_l2_error(p_ms, p_ref, mass):
    """||p_ms - p_ref||_M / ||p_ref||_M."""
    d = np.asarray(p_ms) - np.asarray(p_ref)
    ref = float(np.asarray(p_ref) @ (mass @ p_ref))
    if ref <= 0:
        raise MsflowError("zero reference norm in L2 error")
    return float(np.sqrt(max(0.0, d @ (mass @ d)) / ref))


def relative_h1_error(p_ms, p_ref, stiffness):
    """Energy-seminorm relative error with the given weighted stiffness."""
    d = np.asarray(p_ms) - np.asarray(p_ref)
    ref = float(np.asarray(p_ref) @ (stiffness @ p_ref))
    if ref <= 0:
        raise MsflowError("zero reference seminorm in H1 error")
    return float(np.sqrt(max(0.0, d @ (stiffness @ d)) / ref))


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
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise MsflowError(f"cannot write VTK file {path}: {exc}") from exc


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
        with np.load(cache) as data:
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


def fine_reference(config, force=False):
    """Fine-grid reference solve, cached in the output directory by the
    config hash.

    The cache is written to a temporary file and renamed into place; an
    unreadable or mismatched cache counts as a miss."""
    mesh = config.validate()
    out_dir = Path(config["output.dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = out_dir / f"fine_ref_{config.reference_hash()}.npz"
    problem = config.build_problem(mesh.fine)
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
    loop with scheduled enrichment, error metrics, CSV row and optional VTK
    snapshots."""
    check_vtk_steps(config, vtk_steps)
    (ref_states, _, _, _), problem, mesh = fine_reference(config)
    space = build_offline_space(
        mesh, problem.perm, problem.fluid, problem.p0, config["basis.offline"],
        **_offline_options(config, problem),
    )
    norms = _error_operators(config, problem, mesh)
    return _coarse_run(config, problem, mesh, ref_states, space, norms, vtk_steps,
                       csv_path)


def _error_operators(config, problem, mesh):
    """(mass, stiffness) of the error norms: the unit-weight mass and the
    stiffness weighted by kappa/mu, or by one with error.plain_h1."""
    ones = np.ones(mesh.fine.n_cells)
    h1_w = ones if config["error.plain_h1"] else problem.perm.values / problem.fluid.mu
    return (assemble_weighted_mass(mesh.fine, ones),
            assemble_weighted_stiffness(mesh.fine, h1_w))


def _coarse_run(
    config, problem, mesh, ref_states, space, norms, vtk_steps=(), csv_path=None
):
    """The coarse loop of one run on a given offline space, its error metrics
    with the `_error_operators` norms, CSV row and VTK snapshots."""
    out_dir = Path(config["output.dir"])
    n_online = config["online.count"]
    schedule = (
        UpdateSchedule(n_online, config.update_steps())
        if n_online > 0
        else UpdateSchedule.none()
    )
    result = solve_gmsfem(problem, space, schedule, config.newton())
    mass, stiff = norms

    e_l2 = relative_l2_error(result.final, ref_states[-1], mass)
    e_h1 = relative_h1_error(result.final, ref_states[-1], stiff)

    if config["error.all_steps"]:
        rows = [
            (
                n,
                relative_l2_error(result.states[n], ref_states[n], mass),
                relative_h1_error(result.states[n], ref_states[n], stiff),
            )
            for n in range(1, len(result.states))
        ]
        with (out_dir / "errors_per_step.csv").open("w") as fh:
            fh.write("step,e_l2,e_h1\n")
            for n, el2, eh1 in rows:
                fh.write(f"{n},{el2:.17g},{eh1:.17g}\n")

    label = f"{config['basis.offline']}+{n_online}"
    n_updates = len(schedule.update_steps) if n_online else 0
    if n_online and n_updates > 1:
        label += f"({n_updates} updates)"
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
    _append_csv(csv_path or out_dir / "report.csv", report)

    for step in vtk_steps:
        export_vtk(
            mesh.fine, result.states[step],
            out_dir / f"coarse_step{step:03d}.vtk",
        )
        export_vtk(
            mesh.fine, ref_states[step],
            out_dir / f"fine_step{step:03d}.vtk",
        )
    return report


def parse_variant(label):
    """Parse a sweep variant 'x+y' or 'x+yu<k>' (k update steps)."""
    try:
        off, _, rest = label.partition("+")
        if "u" in rest:
            on, _, ups = rest.partition("u")
            return int(off), int(on), int(ups)
        return int(off), int(rest), (1 if int(rest) > 0 else 0)
    except ValueError as exc:
        raise ConfigError(f"bad sweep variant '{label}'") from exc


def sweep(config, variants, csv_path=None):
    """Run the fine reference once plus one coarse run per variant; returns
    the list of reports.  The fine reference appears as the first CSV row.

    Every variant is validated before anything runs, and the fine reference,
    problem and mesh are loaded once.  One offline pass
    (`build_offline_spaces`: one spectral solve per neighborhood for all the
    variants' offline counts) builds one space per offline count, and
    variants with the same count share its space; each run's t_basis
    reports its space's t_basis plus the run's online time."""
    run_cfgs = []
    for label in variants:
        off, on, ups = parse_variant(label)
        run_cfg = ExperimentConfig(dict(config.values))
        run_cfg.values["basis.offline"] = off
        run_cfg.values["online.count"] = on
        if on > 0:
            sched = UpdateSchedule.evenly_spaced(on, ups, config["time.steps"])
            run_cfg.values["online.updates"] = ",".join(
                str(s) for s in sched.update_steps
            )
        run_cfg.validate()
        run_cfgs.append(run_cfg)

    (ref_states, ref_iters, ref_t_ass, ref_t_solve), problem, mesh = fine_reference(
        config
    )
    out_dir = Path(config["output.dir"])
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

    # the variants differ only in their offline and online counts, so one
    # offline pass and one pair of error-norm operators serve them all
    counts = sorted({run_cfg["basis.offline"] for run_cfg in run_cfgs})
    spaces = dict(zip(counts, build_offline_spaces(
        mesh, problem.perm, problem.fluid, problem.p0, counts,
        **_offline_options(config, problem),
    )))
    norms = _error_operators(config, problem, mesh)

    reports = [fine_row]
    for run_cfg in run_cfgs:
        reports.append(_coarse_run(
            run_cfg, problem, mesh, ref_states, spaces[run_cfg["basis.offline"]],
            norms, csv_path=csv_path,
        ))
    return reports

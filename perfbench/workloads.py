"""The benchmark's workloads, the timed call each one makes into msflow's
public API, and the checks on every repetition's outputs.

Run as a script (`python3 workloads.py REQUEST.json`, with msflow's `src` on
PYTHONPATH) it makes one repetition in its own process, so each repetition's
peak RSS is its own and no state carries over between repetitions.
"""

import json
import math
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from msflow import harness
from msflow.fem import cell_average
from msflow.harness import ExperimentConfig
from msflow.model import density

import tracing

TIMING_COLUMNS = (2, 3, 4)  # t_basis, t_ass, t_solve in the CSV schema
MASS_TOL = 1e-8  # as in test_discrete_mass_balance


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    smoke: dict  # further overrides for --smoke: small meshes, few steps
    variants: tuple = ()  # sweep variants; none: one run_experiment call
    # (e_l2, e_h1) ceiling per variant key, 1.7-10x above the largest error
    # measured over the field seeds listed in README.md; the errors vary by
    # seed up to 10x
    ceilings: dict = field(default_factory=dict)


# 6 steps keep three distinct update steps for the 4+1u3 variants
_SMALL = {"mesh.nx": 8, "mesh.ny": 8, "mesh.nz": 8, "time.steps": 6}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-wells",
            {"problem.preset": "neumann-wells"},
            smoke=_SMALL,
            variants=("4+0", "8+0", "4+1u3"),
            ceilings={"4p0": (1e-2, 1.0), "8p0": (5e-3, 0.8), "4p1u3": (2e-3, 0.25)},
        ),
        # run by hand only, not in BENCHMARK.json: see README "Workloads"
        Workload(
            "run-r8-mixed",
            {"problem.preset": "mixed-bc", "mesh.ratio": 8},
            smoke={**_SMALL, "mesh.ratio": 4},  # r=8 would leave one coarse cell
            ceilings={"4p0": (2e-2, 0.8)},
        ),
        Workload(
            "run-v2-mixed",
            {"problem.preset": "mixed-bc", "basis.snapshot": "v2",
             "online.count": 1, "online.updates": "1,7,14"},
            # v2 needs >= 3 coarse cells per axis (see README: known defect)
            smoke={"mesh.nx": 6, "mesh.ny": 6, "mesh.nz": 6, "mesh.ratio": 2,
                   "time.steps": 6, "online.updates": "1,3,5"},
            ceilings={"4p1u3": (2e-3, 0.05)},
        ),
    )
}

SMOKE_CEILING = (1.0, 1.0)


def config_values(workload, seed, out_dir, smoke=False):
    """The full config the program receives: defaults, the workload's
    overrides, the field seed and a private output directory."""
    cfg = ExperimentConfig.default()
    overrides = dict(workload.overrides)
    if smoke:
        overrides.update(workload.smoke)
    overrides.update({"seed": seed, "output.dir": str(out_dir)})
    for key, value in overrides.items():
        cfg.set(key, value)
    return dict(cfg.values)


def variant_key(label):
    """CSV label to metric suffix: '4+0' -> '4p0', '4+1(3 updates)' -> '4p1u3'."""
    base, _, rest = label.partition("(")
    key = base.replace("+", "p")
    if rest:
        key += "u" + rest.split()[0]
    return key


def expected_dims(workload, values):
    """Coarse dimension of each variant: (offline + online) per coarse vertex."""
    r = values["mesh.ratio"]
    n_vertices = math.prod(values[f"mesh.n{a}"] // r + 1 for a in "xyz")
    if not workload.variants:
        return [n_vertices * (values["basis.offline"] + values["online.count"])]
    dims = []
    for label in workload.variants:  # "<offline>+<online>[u<updates>]"
        off, _, rest = label.partition("+")
        dims.append(n_vertices * (int(off) + int(rest.partition("u")[0])))
    return dims


def setup(workload, values, repeats):
    """Mesh, field and problem construction `repeats` times (median taken),
    plus the cold fine reference the timed call compares against.

    Returns (setup seconds, fine reference t_solve, failures); with wells and
    zero-Neumann boundaries the reference must conserve total mass."""
    cfg = ExperimentConfig(dict(values))
    cheap = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        mesh = cfg.validate()
        cfg.build_problem(mesh.fine)
        cheap.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    (states, _, _, ref_t_solve), problem, mesh = harness.fine_reference(cfg, force=True)
    setup_s = float(np.median(cheap)) + time.perf_counter() - t0
    failures = []
    if values["problem.preset"] == "neumann-wells":
        drift = _mass_drift(states, problem, mesh.fine)
        if not drift <= MASS_TOL:
            failures.append(f"fine reference mass drift {drift:.3g} > {MASS_TOL}")
    return setup_s, ref_t_solve, failures


def _mass_drift(states, problem, fine):
    """Largest relative change of total fluid mass from the initial state,
    computed as in test_discrete_mass_balance."""
    fluid, cn = problem.fluid, fine.cell_nodes()
    masses = [
        float((fluid.phi * density(cell_average(p, cn), fluid) * fine.h**3).sum())
        for p in states
    ]
    return max(abs(m - masses[0]) / masses[0] for m in masses)


def _call(workload, cfg, csv_path):
    if workload.variants:
        return harness.sweep(cfg, list(workload.variants), csv_path=csv_path)
    return [harness.run_experiment(cfg, csv_path=csv_path)]


def _strip_timing(csv_text):
    rows = []
    for line in csv_text.splitlines():
        cells = line.split(",")
        rows.append(",".join(c for i, c in enumerate(cells) if i not in TIMING_COLUMNS))
    return rows


def _observe(csv_path, reports):
    coarse = [r for r in reports if r.nb_label != "fine"]
    return {
        "fingerprint": _strip_timing(Path(csv_path).read_text()),
        "newton_total": int(sum(r.newton_total for r in coarse)),
        "dims": [int(r.dim) for r in coarse],
        "errors": {variant_key(r.nb_label): [r.e_l2, r.e_h1] for r in coarse},
        "csv": {
            "t_basis": sum(r.t_basis for r in coarse),
            "t_ass": sum(r.t_ass for r in coarse),
            "t_solve": sum(r.t_solve for r in coarse),
            "t_solve_each": [r.t_solve for r in coarse],
        },
    }


def measure(workload, values, rep, traced):
    """One repetition: the timed call, then its observations."""
    cfg = ExperimentConfig(dict(values))
    csv_path = Path(values["output.dir"]) / f"rep{rep}.csv"
    tracer = tracing.Tracer().install() if traced else None
    try:
        t0 = time.perf_counter()
        out = _call(workload, cfg, csv_path)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    obs = _observe(csv_path, out)
    obs.update(wall_s=wall, peak_rss_mb=peak_mib)
    obs["spans"] = tracer.spans if tracer is not None else None
    return obs


def child_main(request_path):
    """One repetition as described by a request file; writes a JSON result."""
    req = json.loads(Path(request_path).read_text())
    try:
        result = measure(WORKLOADS[req["name"]], req["values"], req["rep"], req["traced"])
    except Exception as exc:  # any failure is a result, recorded by type
        result = {"error": type(exc).__name__, "traceback": traceback.format_exc()}
    Path(req["result"]).write_text(json.dumps(result))


def check(workload, values, rep, first, smoke=False):
    """Failures of one repetition, as short strings (empty list: passed)."""
    if "error" in rep:
        return [f"exception {rep['error']}"]
    # the solver raises NewtonConvergenceError on any unconverged step
    failures = []
    dims = expected_dims(workload, values)
    if rep["dims"] != dims:
        failures.append(f"dims {rep['dims']} != expected {dims}")
    for key, (e_l2, e_h1) in rep["errors"].items():
        c_l2, c_h1 = SMOKE_CEILING if smoke else workload.ceilings.get(key, (0.0, 0.0))
        if not (math.isfinite(e_l2) and math.isfinite(e_h1)):
            failures.append(f"{key}: non-finite error")
        elif e_l2 > c_l2 or e_h1 > c_h1:
            failures.append(f"{key}: e_l2 {e_l2:.3g} / e_h1 {e_h1:.3g} above ceiling")
    if first is not None and "error" not in first:
        if rep["fingerprint"] != first["fingerprint"]:
            failures.append("outputs differ from the first repetition")
        if rep["newton_total"] != first["newton_total"]:
            failures.append("newton_total differs from the first repetition")
    return failures


if __name__ == "__main__":
    child_main(sys.argv[1])

"""The names the benchmark's tracer wraps exist in msflow.

`perfbench/tracing.py` records spans around msflow functions by name; a
name it lists but msflow no longer has would read zero in a traced run
instead of failing.  The tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from msflow import online
from msflow.fem import newton_residual
from msflow.model import TimeGrid, make_problem
from msflow.offline import ProjectionMatrix, build_offline_space
from msflow.online import enrich_projection

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_span_names_are_public_functions():
    tracing = _tracing()
    names = {n for names in tracing.LAYERS.values() for n in names}
    names |= set(tracing._EXTRA)
    names.discard("scipy.splu")
    assert "offline.ProjectionMatrix.matrix" in names
    names.discard("offline.ProjectionMatrix.matrix")
    for name in sorted(names):
        short, _, attr = name.partition(".")
        assert short in tracing.MODULES, name
        module = importlib.import_module(f"msflow.{short}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn) and not attr.startswith("_"), name
        assert fn.__module__ == module.__name__, name
    assert inspect.isfunction(ProjectionMatrix.matrix)


def test_enrich_projection_returns_an_int(mesh4, fluid, uniform_perm4):
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=1),
        "neumann-wells", well_rate=1e8,
    )
    space = build_offline_space(mesh4, uniform_perm4, fluid, prob.p0, 2)
    added = enrich_projection(space.projection, mesh4, prob, prob.p0, 1)
    assert type(added) is int
    assert added == space.projection.n_online > 0


def test_uniform_round_solves_each_loaded_patch_once(mesh4, fluid, uniform_perm4):
    """One uniform 4^3 enrichment round calls `online.solve_online_vector`,
    and through it `fem.linear_solve`, once per patch with a non-zero load:
    on the benchmark's workloads these online local solves are the only
    callers of `fem.linear_solve`, whose per-layer metrics would otherwise
    read zero.  They factor on LAPACK's banded LU, so the round records no
    `scipy.splu` span: SuperLU (`fem.lu`) factors only the fine Jacobian,
    the projected coarse systems and the offline shift-invert operators."""
    prob = make_problem(
        mesh4.fine, fluid, uniform_perm4, TimeGrid(dt=2.5e-5, n_steps=1),
        "neumann-wells", well_rate=1e8,
    )
    space = build_offline_space(mesh4, uniform_perm4, fluid, prob.p0, 2)
    tracer = _tracing().Tracer().install()
    try:
        added = enrich_projection(space.projection, mesh4, prob, prob.p0, 1)
    finally:
        tracer.restore()
    F = newton_residual(
        prob.p0, prob.p0, fluid, uniform_perm4, prob.time.dt, prob.load,
        mesh4.fine, prob.boundary,
    )
    rows = online._free_rows(mesh4, prob.boundary.dirichlet_nodes)
    loaded = sum(bool(np.linalg.norm(F[r]) > 0) for r in rows)
    spans = tracer.spans
    solves = [k for k, s in enumerate(spans) if s[0] == "online.solve_online_vector"]
    parents = sorted(s[3] for s in spans if s[0] == "fem.linear_solve")
    assert added == loaded == len(solves) == mesh4.n_neighborhoods
    assert parents == solves  # one linear_solve inside each local solve
    assert not [s for s in spans if s[0] == "scipy.splu"]

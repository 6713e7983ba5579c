"""The names the benchmark's tracer wraps exist in msflow.

`perfbench/tracing.py` records spans around msflow functions by name; a
name it lists but msflow no longer has would read zero in a traced run
instead of failing.  The tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

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

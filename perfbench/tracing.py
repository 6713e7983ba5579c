"""Spans around msflow's public functions, recorded from outside the solver.

`Tracer.install()` replaces every public module-level function of the msflow
modules below, `ProjectionMatrix.matrix` and `scipy.sparse.linalg.splu` with
a recording wrapper, in every msflow namespace that holds the function.  The
solver looks these names up at call time (`newton_residual` in `coarse`,
`spla.splu` in `fem`, ...), so its calls land in the wrappers without any
change to its source.  Spans stay in memory; `restore()` puts the originals
back.
"""

import functools
import importlib
import inspect
import time

import scipy.sparse.linalg as spla

MODULES = ("fem", "offline", "online", "coarse", "harness", "grid", "model")


# span name -> function of the wrapped call's return value, kept on the span
_EXTRA = {
    "scipy.splu": lambda lu: int(lu.L.nnz + lu.U.nnz),
    "offline.solve_local_spectral": lambda spec: int(spec.eigenvalues.size),
    "online.enrich_projection": int,
    "fem.solve_fine": lambda sol: int(sum(sol.newton_iters)),
    "coarse.solve_gmsfem": lambda res: (
        int(sum(res.newton_iters)), int(max(res.dim_history, default=0))
    ),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, extra] per call
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, fn, name):
        extra = _EXTRA.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(out)
            return out

        return wrapper

    def _targets(self):
        """(original function, span name) for everything that gets a span."""
        targets = [(spla.splu, "scipy.splu")]
        for short in MODULES:
            mod = importlib.import_module(f"msflow.{short}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    targets.append((obj, f"{short}.{attr}"))
        return targets

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import msflow
        from msflow.offline import ProjectionMatrix

        wrappers = {id(fn): (fn, self._wrap(fn, name)) for fn, name in self._targets()}
        owners = [msflow, spla] + [
            importlib.import_module(f"msflow.{m}") for m in MODULES
        ]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, hit[1])
        original = ProjectionMatrix.matrix
        self._patches.append((ProjectionMatrix, "matrix", original))
        ProjectionMatrix.matrix = self._wrap(original, "offline.ProjectionMatrix.matrix")
        return self

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# per-layer metric prefix -> span names it sums
LAYERS = {
    "fem.lu": ("scipy.splu",),
    "fem.jacobian": ("fem.newton_jacobian",),
    "fem.residual": ("fem.newton_residual",),
    "fem.linear_solve": ("fem.linear_solve",),
    "offline.build": ("offline.build_offline_space",),
    "offline.eig": ("offline.solve_local_spectral",),
    "offline.snapshot_v2": ("offline.build_snapshot_v2",),
    "offline.assemble_projection": ("offline.assemble_projection",),
    "offline.basis_matrix": ("offline.ProjectionMatrix.matrix",),
    "online.enrich": ("online.enrich_projection",),
    "online.local_solve": ("online.solve_online_vector",),
    "online.indicator": ("online.error_indicator",),
    "coarse.step": ("coarse.gmsfem_step",),
    "harness.fine_reference": ("harness.fine_reference",),
    "harness.error_norms": ("harness.relative_l2_error", "harness.relative_h1_error"),
    "grid.build_mesh": ("grid.build_two_scale_mesh",),
    "model.channel_field": ("model.generate_channel_field",),
    "model.make_problem": ("model.make_problem",),
}


def layer_metrics(spans):
    """Per-layer numbers from span lists [name, start, end, parent, extra]:
    `<layer>.calls` and `<layer>.s` for every layer, plus the derived counts
    and ratios."""
    by_name = {}
    child_s = [0.0] * len(spans)
    for name, start, end, parent, extra in spans:
        by_name.setdefault(name, []).append((end - start, extra))
        if parent >= 0:
            child_s[parent] += end - start
    out = {}
    for layer, names in LAYERS.items():
        hits = [d for n in names for d, _ in by_name.get(n, ())]
        out[f"{layer}.calls"] = len(hits)
        out[f"{layer}.s"] = sum(hits)

    def extras(name):
        return [x for _, x in by_name.get(name, ())]

    out["fem.lu.fill_nnz"] = sum(extras("scipy.splu"))
    out["offline.eig.max_n"] = max(extras("offline.solve_local_spectral"), default=0)
    out["online.vectors"] = sum(extras("online.enrich_projection"))
    solves = out["online.local_solve.calls"]
    out["online.vectors_per_solve"] = out["online.vectors"] / solves if solves else 0.0
    coarse = extras("coarse.solve_gmsfem")
    out["coarse.newton_iters"] = sum(it for it, _ in coarse)
    out["coarse.dim_max"] = max((dim for _, dim in coarse), default=0)
    newton = out["coarse.newton_iters"] + sum(extras("fem.solve_fine"))
    out["fem.residual_per_newton"] = out["fem.residual.calls"] / newton if newton else 0.0
    out["coarse.step.self_s"] = sum(
        s[2] - s[1] - child_s[i]
        for i, s in enumerate(spans) if s[0] == "coarse.gmsfem_step"
    )
    solved = {s[3] for s in spans if s[0] == "fem.solve_fine"}
    out["harness.cache_hits"] = sum(
        1 for i, s in enumerate(spans)
        if s[0] == "harness.fine_reference" and i not in solved
    )
    return out


def merge(first, second):
    """Concatenate two span lists, re-basing the second list's parent links."""
    base = len(first)
    return first + [
        [n, s, e, p + base if p >= 0 else p, x] for n, s, e, p, x in second
    ]

"""msflow benchmark: fixed 16^3 workloads driven through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-wells --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --smoke               # small meshes, every wrapper

The last line of a single-workload run is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Each run also writes `perfbench/results/<workload>-seed<n>-trace<t>.json`
with the environment, the config and every repetition (plus the spans as
JSON lines with `--trace 1`).  See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

SETUP_REPEATS = 9  # mesh/field/problem construction is ~10 ms; median of 9
DEADLINE_S = 170.0  # a run must end within 180 s
# zero on every workload today: solve_gmsfem never calls error_indicator
PREDICTED_ZERO = {"online.indicator.calls", "online.indicator.s"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _load_msflow():
    """Import msflow from this checkout's source tree, or exit non-zero."""
    if not (SRC / "msflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no msflow source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import msflow

    if Path(msflow.__file__).resolve().parent != (SRC / "msflow").resolve():
        sys.exit(f"perfbench: msflow imported from {msflow.__file__}, not {SRC}")


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- environment

def _blas_info(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _blas_threads():
    """Thread count of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return {}
    threads = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                threads[Path(lib).name] = int(fn())
                break
    return threads


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:
        return out[1]
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "msflow").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas_info(numpy), "scipy": _blas_info(scipy)},
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------- repetitions

def run_child(name, values, rep, traced, deadline):
    """One repetition in a fresh process; returns its result dict."""
    out_dir = Path(values["output.dir"])
    request, result = out_dir / f"rep{rep}.request.json", out_dir / f"rep{rep}.result.json"
    request.write_text(json.dumps(
        {"name": name, "values": values, "rep": rep, "traced": traced, "result": str(result)}
    ))
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), str(request)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
            stdout=sys.stderr,  # keep stdout for the result
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        return {"error": "Timeout", "traceback": "repetition passed the run deadline"}
    if proc.returncode != 0 or not result.exists():
        return {"error": "ChildDied", "traceback": f"exit code {proc.returncode}"}
    return json.loads(result.read_text())


def run_workload(name, seed, seconds, trace, smoke=False):
    """Set up, run the repetitions, check them; returns the run record."""
    import tracing
    import workloads as W

    workload = W.WORKLOADS[name]
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    record = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke,
              "setup_s": 0.0, "ref_t_solve": 0.0, "reps": [], "failures": []}
    try:
        values = W.config_values(workload, seed, out_dir, smoke)
        record["config"] = values
        tracer = tracing.Tracer().install() if trace else None
        try:
            record["setup_s"], record["ref_t_solve"], setup_failures = W.setup(
                workload, values, SETUP_REPEATS
            )
        except Exception as exc:  # the program failed in set-up: a result
            record["failures"].append([f"set-up: exception {type(exc).__name__}: {exc}"])
            return record
        finally:
            if tracer is not None:
                tracer.restore()
                record["setup_spans"] = tracer.spans

        reps = record["reps"]
        if trace:
            # untraced then traced: their counts must match exactly
            for rep, traced in ((0, False), (1, True)):
                reps.append(run_child(name, values, rep, traced, deadline))
        else:
            t0 = time.perf_counter()
            while True:
                t_rep = time.perf_counter()
                reps.append(run_child(name, values, len(reps), False, deadline))
                now = time.perf_counter()
                if now - t0 >= seconds or now + (now - t_rep) > deadline:
                    break
        for i, rep in enumerate(reps):
            record["failures"].append(
                W.check(workload, values, rep, reps[0] if i else None, smoke)
            )
        # a set-up check that fails marks the first repetition failed
        record["failures"][0] = setup_failures + record["failures"][0]
        return record
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


# ---------------------------------------------------------------- metrics

def _median(reps, key):
    vals = [r[key] for r in reps if "error" not in r]
    return float(statistics.median(vals)) if vals else 0.0


def end_to_end(record):
    ok = [r for r in record["reps"] if "error" not in r]
    return {
        "wall_s": _median(ok, "wall_s"),
        "setup_s": record["setup_s"],
        "peak_rss_mb": _median(ok, "peak_rss_mb"),
        "newton_total": ok[0]["newton_total"] if ok else 0,
    }


def errors(rep):
    out = {}
    for key in ("4p0", "8p0", "4p1u3"):
        e_l2, e_h1 = rep.get("errors", {}).get(key, (0.0, 0.0))
        out[f"e_l2.{key}"], out[f"e_h1.{key}"] = e_l2, e_h1
    return out


def per_layer(record):
    """Per-layer metrics of a --trace 1 run (set-up plus the traced call)."""
    import tracing

    reps = record["reps"]
    if len(reps) != 2 or any("error" in r for r in reps):
        return {}
    plain, traced = reps
    spans = tracing.merge(record.get("setup_spans", []), traced["spans"])
    out = tracing.layer_metrics(spans)
    csv = traced["csv"]
    each = csv["t_solve_each"]
    ref = record["ref_t_solve"]
    out.update({
        "csv.t_basis_s": csv["t_basis"],
        "csv.t_ass_s": csv["t_ass"],
        "csv.t_solve_s": csv["t_solve"],
        # mean over coarse variants of T_solve(coarse) / T_solve(fine)
        "csv.t_solve_ratio": statistics.fmean(each) / ref if each and ref else 0.0,
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    out.update(errors(traced))
    return out


def _select(values, declared):
    """The declared metrics, in declaration order, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def result_line(record, spec):
    failed = sum(1 for f in record["failures"] if f)
    attempted = max(1, len(record["reps"]))
    values = per_layer(record) if record["trace"] else end_to_end(record)
    declared = spec["per_layer" if record["trace"] else "end_to_end"]
    if failed:  # a failed run still reports every metric, as 0 where missing
        values = {m["name"]: values.get(m["name"], 0.0) for m in declared}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _select(values, declared),
    }


def _print_human(record, line):
    ok = [r for r in record["reps"] if "error" not in r]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"repetitions={len(record['reps'])}")
    for name, m in line["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':32s} {line['failed'] / line['attempted']:.6g} "
          f"({line['failed']}/{line['attempted']})")
    if ok and not record["trace"]:
        for name, v in errors(ok[0]).items():
            if v:
                print(f"  {name:32s} {v:.6g} ratio")
    for i, fails in enumerate(record["failures"]):
        for f in fails:
            print(f"  FAIL repetition {i}: {f}")
    print(f"  correctness: {'PASS' if line['correct'] else 'FAIL'}")


def _write_result(record, line, env):
    RESULTS.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    if record["smoke"]:
        stem = "smoke-" + stem
    spans = [s for r in record["reps"] for s in (r.get("spans") or [])]
    reps = [{k: v for k, v in r.items() if k != "spans"} for r in record["reps"]]
    body = {k: v for k, v in record.items() if k not in ("reps", "setup_spans")}
    body.update(environment=env, repetitions=reps, result=line)
    (RESULTS / f"{stem}.json").write_text(json.dumps(body, indent=1, default=str))
    if record["trace"]:
        with open(RESULTS / f"{stem}.spans.jsonl", "w") as fh:
            for s in record.get("setup_spans", []) + spans:
                fh.write(json.dumps(s) + "\n")


def run_one(name, seed, seconds, trace, spec, env, smoke=False):
    record = run_workload(name, seed, seconds, trace, smoke)
    line = result_line(record, spec)
    _print_human(record, line)
    _write_result(record, line, env)
    return record, line


# ---------------------------------------------------------------- modes

def smoke(spec, env, seed):
    """Every workload on a small mesh, traced; checks that each declared
    per-layer metric is produced and that the names keep the allowed
    characters."""
    import workloads as W

    problems = []
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
                problems.append(f"bad name or unit: {m}")
    produced = {}
    for name in W.WORKLOADS:
        for trace in (0, 1):
            record, line = run_one(name, seed, 0, trace, spec, env, smoke=True)
            if not line["correct"]:
                problems.append(f"{name} trace={trace}: incorrect")
            if trace:
                for metric, v in line["metrics"].items():
                    produced[metric] = produced.get(metric, 0) or v["value"]
    for m in spec["per_layer"]:
        if not produced.get(m["name"]) and m["name"] not in PREDICTED_ZERO:
            problems.append(f"per-layer metric {m['name']} is zero on every workload")
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print(f"smoke: {'FAIL' if problems else 'PASS'}")
    return not problems


def run_all(spec, env, seed, seconds, trace):
    import workloads as W

    table = []
    for name in W.WORKLOADS:
        record, line = run_one(name, seed, seconds, trace, spec, env)
        ok = [r for r in record["reps"] if "error" not in r]
        rows = {k: (v["value"], v["unit"]) for k, v in line["metrics"].items()}
        rows["fail_ratio"] = (line["failed"] / line["attempted"], "ratio")
        if not trace:  # the final-time errors, 0 where a variant is not run
            rows.update({k: (v, "ratio") for k, v in errors(ok[0] if ok else {}).items()})
        table.append((name, rows))
    print()
    print(f"{'metric':32s} " + " ".join(f"{n:>14s}" for n, _ in table))
    for metric, (_, unit) in table[0][1].items():
        cells = " ".join(f"{rows[metric][0]:14.6g}" for _, rows in table)
        print(f"{metric + ' [' + unit + ']':32s} {cells}")
    verdict = all(rows["fail_ratio"][0] == 0 for _, rows in table)
    print(f"correctness: {'PASS' if verdict else 'FAIL'}")
    return verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="permeability field seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small meshes, every workload, traced and untraced")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = _spec()
    _load_msflow()
    import workloads as W

    env = environment()
    if args.smoke:
        return 0 if smoke(spec, env, args.seed) else 1
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return 0 if run_all(spec, env, args.seed, seconds, args.trace) else 1
    if args.workload not in W.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(W.WORKLOADS)} or 'all'")
    _, line = run_one(args.workload, args.seed, seconds, args.trace, spec, env)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

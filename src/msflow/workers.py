"""Independent jobs of one work list, on every CPU this process may run on:
the distinct patches of an offline pass, and the coarse runs of a sweep
(a lone run is a one-job list, solved here at one BLAS thread).

`run(solve, jobs)` calls solve(*job) for every job on P = min(CPUs, jobs)
processes (`cpu_count`): this one and P - 1 helpers forked for the call,
each claiming the next job, in list order, from one shared counter until
none is left; a helper sends each result, or the exception its solve
raised, back over a pipe.

A job's log records take the same way back.  While a job runs, in
whichever process, every record logged on `msflow` or a child of it is
held with the job's result instead of going to any handler of those
loggers or their parents (`_held_records`).  When the last job is done,
this process emits each job's records, in job order, through the logger
that made them, so a caller's handlers get each record once, in the same
order on any process count, a failed job's before the caller raises its
error.  A record's message is formatted when it is held, a traceback
included as text.

Forked, not spawned: the helpers inherit the caller's data and loaded
libraries, where a spawned one would import numpy and scipy again and
receive its inputs pickled.  The process's only other threads are
OpenBLAS's, whose pools OpenBLAS itself stops around fork.

For the call, this process sets each loaded OpenBLAS to one thread (its
`*_set_num_threads` function, found through `/proc/self/maps`) before it
forks, so the helpers inherit the pin, and restores its counts afterwards:
a job's result is the same to the bit whichever process solves it.  Where
no pin applies (another BLAS, no fork) the jobs run in this process at the
default thread count.  The jobs of a helper that dies without a result are
solved here, with a WARNING; no helper outlives the call.

On the 16^3 benchmark fields (seed 0, 2 vCPUs, a fresh process, 7 runs)
the sweep-wells offline pass took 1.28-1.56 s (median 1.41) on two
processes and the run-v2-mixed pass 1.07-1.58 s (1.20), against 2.05-4.62 s
(2.54) and 1.61-1.97 s (1.74) on one process at the default threads.  The
two processes' solve seconds differ by at most 0.012 s, where two shares
dealt once differed by up to 1.56 s.  A helper peaks at 58-68 MiB RSS,
mostly pages it shares with the parent.

With its coarse runs on two processes as well, the sweep-wells timed call
(`perfbench/run.py --seconds 30`, 2 vCPUs, 10 alternating pairs at seed 15)
took 1.27-1.85 s (median 1.39), against 1.74-2.39 s (1.91) with the runs
one after another in this process, with the same rows.
"""

import contextlib
import ctypes
import functools
import itertools
import logging
import logging.handlers
import multiprocessing
import os
import pickle
import re
import signal

from .errors import MsflowError

log = logging.getLogger(__name__)


def cpu_count():
    """The CPUs this process may run on: its affinity mask, so `taskset`
    restricts it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


class _Held(logging.handlers.QueueHandler):
    """Keeps every record it handles in the list `queue`, prepared as for a
    queue between processes so that it pickles: its message formatted, a
    traceback included as text, and its arguments dropped."""

    def enqueue(self, record):
        self.queue.append(record)


@contextlib.contextmanager
def _held_records():
    """Yields the list of the records logged on `msflow` and its child
    loggers meanwhile, which go nowhere else: the handlers of every existing
    `msflow.*` logger are set aside and each propagates, while `msflow`
    itself holds them and stops propagating; all restored on exit."""
    top = logging.getLogger("msflow")
    children = [
        logger for name, logger in list(logging.Logger.manager.loggerDict.items())
        if name.startswith("msflow.") and isinstance(logger, logging.Logger)
    ]
    saved = [(logger, logger.handlers, logger.propagate) for logger in (top, *children)]
    for child in children:
        child.handlers, child.propagate = [], True
    held = _Held([])
    top.handlers, top.propagate = [held], False
    try:
        yield held.queue
    finally:
        for logger, handlers, propagate in saved:
            logger.handlers, logger.propagate = handlers, propagate


def _solve_claimed(solve, jobs, claim):
    """Solve the jobs whose indices claim() returns, until it returns one
    past the last: {index: (the job's result, or the exception its solve
    raised; the records it logged)}."""
    results = {}
    while (k := claim()) < len(jobs):
        with _held_records() as records:
            try:
                value = solve(*jobs[k])
            except Exception as exc:
                value = exc
        results[k] = value, records
    return results


# (get, set) thread-count functions of an OpenBLAS build: the 64-bit-integer
# and the plain builds that numpy's and scipy's wheels bundle, and system ones
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}",
     f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "") for suffix in ("64_", "")
)
# BLAS libraries whose threads cannot be pinned
_OTHER_BLAS = re.compile(r"mkl|blis|flexiblas|atlas|libc?blas\.", re.IGNORECASE)


def _openblas_pools():
    """The (get, set) thread-count functions of every OpenBLAS mapped into
    this process (`/proc/self/maps`), or None if there is none, another
    BLAS is mapped, or an OpenBLAS lacks the functions: then no pin."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "/" in ln})
    except OSError:
        return None
    pools = []
    for path in paths:
        name = os.path.basename(path)
        if "openblas" not in name.lower():
            if _OTHER_BLAS.search(name):
                return None
            continue
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            return None
        names = next(
            ((g, s) for g, s in _OPENBLAS_SYMBOLS if hasattr(lib, g) and hasattr(lib, s)),
            None,
        )
        if names is None:
            return None
        get, set_threads = getattr(lib, names[0]), getattr(lib, names[1])
        get.argtypes, get.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        pools.append((get, set_threads))
    return pools or None


@contextlib.contextmanager
def _blas_threads(pools, n):
    """Every OpenBLAS of pools at n threads, the counts restored on exit."""
    before = [get() for get, _ in pools]
    for _, set_threads in pools:
        set_threads(n)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(pools, before):
            set_threads(count)


def _parallel():
    """(OpenBLAS pools, fork context) if jobs may run on several processes,
    each at one BLAS thread, or None: then they run in this process at the
    default thread count."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    pools = _openblas_pools()
    return None if pools is None else (pools, multiprocessing.get_context("fork"))


def _claim_next(counter):
    """The next index of a work list that forked processes share through
    counter, a `multiprocessing` Value."""
    with counter.get_lock():
        counter.value += 1
        return counter.value - 1


def _helper(conn, solve, jobs, claim):
    """A forked helper: solve the jobs it claims and send the results back,
    an error whose type cannot be rebuilt from its pickle as an MsflowError.
    It runs at the one BLAS thread of the process that forked it, and leaves
    Ctrl-C to that process, which ends it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    results = _solve_claimed(solve, jobs, claim)
    for k, (result, records) in results.items():
        if isinstance(result, Exception):
            try:
                pickle.loads(pickle.dumps(result))
            except Exception:
                results[k] = MsflowError(f"{type(result).__name__}: {result}"), records
    conn.send(results)
    conn.close()


def run(solve, jobs):
    """Call solve(*job) for every job of the list, on one process per CPU
    of the affinity mask (`cpu_count`), at most one per job; returns
    (results, the process count), where results[k] is the result of
    jobs[k], or the exception its solve raised.  The records each job
    logged are emitted here, in job order, before it returns.

    The jobs start in list order, so give the longest first.  Every process
    runs at one BLAS thread meanwhile (module docstring)."""
    pools, ctx = _parallel() or ([], None)
    n_proc = min(cpu_count(), len(jobs)) if ctx is not None else 1
    claim = itertools.count().__next__
    if n_proc > 1:
        claim = functools.partial(_claim_next, ctx.Value("l", 0))
    helpers = []
    with _blas_threads(pools, 1):
        try:
            for _ in range(n_proc - 1):
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_helper, args=(send, solve, jobs, claim), daemon=True
                )
                helpers.append((proc, recv))
                try:
                    proc.start()
                finally:
                    send.close()  # this end lives on in the helper only
            results = _solve_claimed(solve, jobs, claim)
            for proc, recv in helpers:
                try:
                    results.update(recv.recv())
                except EOFError:  # the helper died without a result
                    proc.join()
                    log.warning(
                        "helper process %d exited with code %s before "
                        "returning its jobs; solving them in this process",
                        proc.pid, proc.exitcode,
                    )
            missing = [k for k in range(len(jobs)) if k not in results] + [len(jobs)]
            results.update(_solve_claimed(solve, jobs, iter(missing).__next__))
        except BaseException:
            for proc, _ in helpers:
                if proc.pid is not None:
                    proc.kill()
            raise
        finally:
            for proc, recv in helpers:
                if proc.pid is not None:
                    proc.join()
                recv.close()
    for k in range(len(jobs)):
        for record in results[k][1]:
            logging.getLogger(record.name).handle(record)
    return [results[k][0] for k in range(len(jobs))], n_proc

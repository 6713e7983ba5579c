"""Command line interface.

Subcommands: run (one experiment), sweep (table of basis-count variants),
gen-field (write a synthetic permeability file), fine-ref (reference solve
only), check (quick invariant suite).

Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 IO error.
"""

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from .errors import ConfigError, FieldFileError, MsflowError, NewtonConvergenceError
from .harness import ExperimentConfig
from .model import save_field_to_file


def _load_config(args):
    cfg = (
        ExperimentConfig.from_file(args.config)
        if args.config
        else ExperimentConfig.default()
    )
    if getattr(args, "snapshot", None):
        cfg.set("basis.snapshot", args.snapshot)
    if getattr(args, "offline", None) is not None:
        cfg.set("basis.offline", args.offline)
    if getattr(args, "online", None) is not None:
        cfg.set("online.count", args.online)
    if getattr(args, "updates", None):
        cfg.set("online.updates", args.updates)
    if getattr(args, "out", None):
        cfg.set("output.dir", args.out)
    if getattr(args, "seed", None) is not None:
        cfg.set("seed", args.seed)
    return cfg


def _add_config(p):
    p.add_argument("--config", metavar="PATH", help="config file (key = value lines)")
    p.add_argument("--seed", type=int, metavar="N")


def _add_snapshot(p):
    p.add_argument("--snapshot", choices=["v1", "v2"])


def _add_out(p):
    p.add_argument("--out", metavar="DIR")


def _add_counts(p):
    p.add_argument("--offline", type=int, metavar="N")
    p.add_argument("--online", type=int, metavar="M")
    p.add_argument("--updates", metavar="s1,s2,...")


def _add_vtk(p):
    p.add_argument("--vtk", metavar="steps", default="",
                   help="comma-separated step indices to export as VTK")


def _vtk_steps(args):
    raw = getattr(args, "vtk", "") or ""
    if not raw.strip():
        return ()
    try:
        return tuple(int(s) for s in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --vtk list: {raw!r}") from exc


def cmd_run(args):
    cfg = _load_config(args)
    report = harness.run_experiment(cfg, vtk_steps=_vtk_steps(args))
    print(harness.CSV_HEADER)
    print(report.csv_row())
    return 0


def cmd_sweep(args):
    cfg = _load_config(args)
    variants = [v.strip() for v in args.nb.split(",") if v.strip()]
    if not variants:
        raise ConfigError("sweep needs at least one variant in --nb")
    reports = harness.sweep(cfg, variants)
    print(harness.CSV_HEADER)
    for r in reports:
        print(r.csv_row())
    fine = reports[0]
    for r in reports[1:]:
        if fine.t_solve > 0:
            print(
                f"# {r.nb_label}: T_solve(coarse)/T_solve(fine) = "
                f"{r.t_solve / fine.t_solve:.4f}"
            )
    return 0


def cmd_gen_field(args):
    cfg = _load_config(args)
    field = cfg.channel_field(cfg.build_mesh().fine)
    try:
        save_field_to_file(field, args.path)
    except OSError as exc:
        raise FieldFileError(f"cannot write field file {args.path}: {exc}") from exc
    print(f"wrote {field.values.size} cell values to {args.path} "
          f"(contrast {field.contrast:.3g})")
    return 0


def cmd_fine_ref(args):
    cfg = _load_config(args)
    vtk_steps = _vtk_steps(args)
    harness.check_vtk_steps(cfg, vtk_steps)
    (states, iters, t_ass, t_solve), problem, mesh = harness.fine_reference(
        cfg, force=args.force
    )
    print(
        f"fine reference: {mesh.fine.n_nodes} DOFs, {len(states) - 1} steps, "
        f"{int(sum(iters))} Newton iterations, "
        f"t_ass={t_ass:.3f}s t_solve={t_solve:.3f}s"
    )
    for step in vtk_steps:
        harness.export_vtk(
            mesh.fine, states[step],
            Path(cfg["output.dir"]) / f"fine_step{step:03d}.vtk",
        )
    return 0


def cmd_check(args):
    """Quick invariant suite on small grids: partition of unity, Jacobian
    finite differences (the assembled Jacobian and its operator), fine
    Newton steps that start no worse than the previous state and meet the
    tolerance, identity-projection equivalence, driver-independent offline
    span, v2 harmonic extensions and their Schur complement pencil, and an
    offline pass independent of its process count."""
    from .fem import (
        NewtonConfig,
        _Jacobian,
        cell_average,
        newton_jacobian,
        newton_residual,
        solve_fine,
    )
    from .grid import build_two_scale_mesh
    from .model import (
        FluidProps,
        PermeabilityField,
        TimeGrid,
        density,
        generate_channel_field,
        make_problem,
    )

    import scipy.linalg as la
    import scipy.sparse as sp
    from . import offline, workers
    from .coarse import solve_gmsfem
    from .offline import (
        OfflineSpace,
        PartitionOfUnity,
        ProjectionMatrix,
        _cluster_starts,
        _local_operators,
        build_snapshot_v1,
        build_snapshot_v2,
        compute_kappa_tilde,
        solve_local_spectral,
    )

    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
        if not ok:
            failures += 1

    mesh = build_two_scale_mesh(8, 8, 8, r=4)
    pou = PartitionOfUnity(mesh)
    total = np.zeros(mesh.fine.n_nodes)
    for i in range(mesh.n_neighborhoods):
        total += pou.chi_global(i)
    err = float(np.abs(total - 1.0).max())
    report("partition-of-unity sum", err < 1e-14, f"max dev {err:.2e}")

    fine4 = build_two_scale_mesh(4, 4, 4, r=2).fine
    fluid = FluidProps()
    perm = PermeabilityField(np.ones(fine4.n_cells))
    rng = np.random.default_rng(0)
    p = fluid.p_ref * (1 + 0.01 * rng.standard_normal(fine4.n_nodes))
    p_prev = fluid.p_ref * np.ones(fine4.n_nodes)
    J = newton_jacobian(p, fluid, perm, 1.0, fine4).toarray()
    op = _Jacobian(p, fluid, perm, 1.0, fine4)  # what every Newton system applies
    delta = 1e-6 * np.abs(p).max()
    worst = 0.0
    for i in rng.choice(fine4.n_nodes, 10, replace=False):
        e = np.zeros(fine4.n_nodes)
        e[i] = delta
        fd = (
            newton_residual(p + e, p_prev, fluid, perm, 1.0, np.zeros(fine4.n_nodes), fine4)
            - newton_residual(p - e, p_prev, fluid, perm, 1.0, np.zeros(fine4.n_nodes), fine4)
        ) / (2 * delta)
        for col in (J[:, i], op @ (e / delta)):
            denom = max(1.0, np.abs(col).max())
            worst = max(worst, float(np.abs(fd - col).max() / denom))
    report("Jacobian finite differences", worst < 1e-6,
           f"max rel {worst:.2e} (assembled and operator)")

    mesh8 = build_two_scale_mesh(8, 8, 8, r=4)
    perm8 = PermeabilityField(np.ones(mesh8.fine.n_cells))
    problem = make_problem(
        mesh8.fine, fluid, perm8, TimeGrid(dt=2.5e-5, n_steps=3), "mixed-bc"
    )
    ref = solve_fine(problem)
    # each step's scale is the residual at its previous state, whether it
    # starts there or from the extrapolated guess
    tol, steps = NewtonConfig().tol, ref.residuals
    report(
        "Newton start guess",
        all(r.initial <= r.previous and r.accepted <= tol * max(1.0, r.previous)
            for r in steps),
        f"{sum(r.start == 'guess' for r in steps)} of {len(steps)} steps "
        f"started from the guess, {sum(ref.newton_iters)} Newton systems",
    )
    R = sp.identity(mesh8.fine.n_nodes, format="csr")
    pm = ProjectionMatrix(R, [0] * mesh8.fine.n_nodes)
    space = OfflineSpace(
        mesh=mesh8, projection=pm, lambda_next=np.ones(mesh8.n_neighborhoods)
    )
    res = solve_gmsfem(problem, space)
    dev = float(
        np.abs(np.asarray(res.states) - np.asarray(ref.states)).max()
        / np.abs(np.asarray(ref.states)).max()
    )
    report("identity-projection equivalence", dev < 1e-10, f"max rel {dev:.2e}")

    # the uniform field's symmetric patches have clusters of equal
    # eigenvalues; the first L modes of the subset solve (LAPACK gvx, and
    # shift-invert Lanczos on the 729-node interior patch) and of the full
    # spectrum (gvd) span one space at every cut, also inside them
    rho0 = np.ones(mesh8.fine.n_cells)
    w_stiff, kt = rho0 * perm8.values, compute_kappa_tilde(mesh8, perm8, rho0)
    worst, cuts, inside = 0.0, 0, 0
    for i, nb in enumerate(mesh8.neighborhoods):
        snap = build_snapshot_v1(mesh8, i)
        A, M = _local_operators(nb, w_stiff, kt)
        full = solve_local_spectral(mesh8, i, snap, A, M)
        part = solve_local_spectral(mesh8, i, snap, A, M, n_eig=12)
        starts = _cluster_starts(part.eigenvalues)
        for L in range(1, part.n_complete + 1):
            angles = la.subspace_angles(
                full.eigenvectors[:, :L], part.eigenvectors[:, :L]
            )
            worst = max(worst, float(np.sin(angles.max())))
            cuts += 1
            inside += L not in starts
    report(
        "offline span is driver-independent", worst < 1e-10 and inside > 0,
        f"max sin {worst:.2e} over {cuts} cuts, {inside} inside a cluster",
    )

    # v2 on the 6^3 r=2 mixed-bc problem with a channel field: the harmonic
    # extensions reproduce constants and are discrete-harmonic, and the
    # Schur complement pencil has the eigenvalues of the dense S^T A S one
    mesh6 = build_two_scale_mesh(6, 6, 6, r=2)
    fine6 = mesh6.fine
    perm6 = generate_channel_field(
        fine6, seed=0, background=1.0, channel=1.0e4, n_channels=2, n_inclusions=2
    )
    problem6 = make_problem(
        fine6, fluid, perm6, TimeGrid(dt=2.5e-5, n_steps=1), "mixed-bc"
    )
    rho6 = density(cell_average(problem6.p0, fine6.cell_nodes()), fluid)
    w6, kt6 = rho6 * perm6.values, compute_kappa_tilde(mesh6, perm6, rho6)
    row_dev = harmonic = eig_dev = 0.0
    for i, nb in enumerate(mesh6.neighborhoods):
        A, M = _local_operators(nb, w6, kt6)
        snap = build_snapshot_v2(mesh6, i, A)
        S = snap.basis
        row_dev = max(row_dev, float(np.abs(S.sum(axis=1) - 1.0).max()))
        AS = A @ S
        harmonic = max(harmonic, float(
            np.abs(AS[nb.free_mask]).max() / np.abs(A.data).max()
        ))
        schur = solve_local_spectral(mesh6, i, snap, A, M).eigenvalues
        dense = la.eigh(S.T @ AS, S.T @ (M @ S), eigvals_only=True)
        eig_dev = max(eig_dev, float(np.abs(schur - dense).max() / np.abs(dense).max()))
    report(
        "v2 harmonic extensions and Schur pencil",
        row_dev <= 1e-12 and harmonic <= 1e-10 and eig_dev <= 1e-10,
        f"row sums {row_dev:.2e}, free rows of A S {harmonic:.2e}, "
        f"eigenvalues {eig_dev:.2e}",
    )

    # the offline pass on one process (a one-CPU affinity mask, as `taskset
    # -c 0` gives) and on every CPU of the mask, at one BLAS thread each,
    # gives the same spaces to the bit
    parallel = workers._parallel()
    if parallel is None:
        report(
            "offline pass independent of process count", True,
            "(no OpenBLAS thread pin or no fork here: the pass runs in one "
            "process at the default BLAS threads)",
        )
    else:
        cases = ((mesh8, perm8, problem.p0, "v1"), (mesh6, perm6, problem6.p0, "v2"))
        cpus = os.sched_getaffinity(0)
        runs = []
        for mask in ({min(cpus)}, cpus):
            os.sched_setaffinity(0, mask)
            try:
                runs.append([
                    space for mesh_, perm_, p0, kind in cases
                    for space in offline.build_offline_spaces(
                        mesh_, perm_, fluid, p0, [2, 4], kind=kind
                    )
                ])
            finally:
                os.sched_setaffinity(0, cpus)
        same = all(
            np.array_equal(a.lambda_next, b.lambda_next)
            and (a.projection.offline != b.projection.offline).nnz == 0
            for a, b in zip(*runs)
        )
        report(
            "offline pass independent of process count", same,
            f"(one CPU and the {len(cpus)} of the affinity mask, "
            f"{len(parallel[0])} OpenBLAS pools pinned to one thread; v1 8^3 "
            f"and v2 6^3)",
        )

    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="msflow",
        description="Two-scale multiscale FEM for compressible flow in "
        "heterogeneous porous media",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    p_run = sub.add_parser("run", help="run one experiment")
    _add_config(p_run)
    _add_snapshot(p_run)
    _add_counts(p_run)
    _add_out(p_run)
    _add_vtk(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a table of basis-count variants")
    _add_config(p_sweep)
    _add_snapshot(p_sweep)
    _add_out(p_sweep)
    p_sweep.add_argument(
        "--nb", required=True, metavar="4+0,8+0,4+1u3",
        help="comma-separated variants: <offline>+<online>[u<updates>]",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("gen-field", help="write a synthetic permeability file")
    _add_config(p_gen)
    p_gen.add_argument("path", help="output file (.txt for text, else raw f64)")
    p_gen.set_defaults(func=cmd_gen_field)

    p_ref = sub.add_parser("fine-ref", help="fine reference solve only")
    _add_config(p_ref)
    _add_out(p_ref)
    _add_vtk(p_ref)
    p_ref.add_argument("--force", action="store_true", help="ignore the cache")
    p_ref.set_defaults(func=cmd_fine_ref)

    p_check = sub.add_parser("check", help="quick invariant suite")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NewtonConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (FieldFileError, OSError) as exc:
        print(f"IO error: {exc}", file=sys.stderr)
        return 4
    except MsflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

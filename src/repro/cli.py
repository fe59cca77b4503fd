"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the library version and subsystem inventory.
``run``
    Train any registered problem with any registered sampler via the
    :class:`repro.api.Session` API — either by name (``run burgers``) or
    from a TOML/JSON experiment file (``run --config exp.toml``).  With a
    config file (or ``--store``) the run records into the persistent run
    store: resolved config, streamed history, periodic checkpoints.
``runs``
    Inspect the run store: ``list``, ``show``, ``compare`` (Table-1-style
    speedup rows from stored records, grouped per problem), ``plot``
    (convergence-vs-time figures rendered from stored records alone),
    ``profile`` (span tree + per-step phase table + sampler-overhead
    ratio from a traced run's ``spans.jsonl``; ``--format chrome``
    exports a Perfetto-loadable trace), ``resume`` (continue a killed
    run bit-identically from its newest checkpoint), ``gc``.
``suite``
    Method sweep: train any registered problem under several registered
    samplers (``--samplers a,b,c``) on any execution backend
    (``--backend serial|process|queue``, ``--parallel`` as the process
    shorthand); ``--store`` records every method.
``matrix``
    Cross-problem benchmark matrix: ``--problems all`` × ``--samplers``
    cells submitted to one shared execution backend (``--backend``,
    ``--parallel``), every cell recording into a single store
    (``--store``).
``worker``
    Queue-backend worker daemon: claim jobs a ``--backend queue`` sweep
    enqueued in a run store (atomic lease files with heartbeat renewal;
    a crashed worker's job is re-claimed by a surviving one after its
    lease expires) and train them through the standard cell code path.
``problems``
    List the problem and sampler registries.
``lint``
    Run the project linter (``repro.analysis``) over the repro source tree
    (or given paths): seeded-RNG-only, no wall-clock in hot paths,
    deterministic iteration, picklable pool tasks, registry-mediated
    experiment wiring, complete ``state_dict`` round-trips.  Exits nonzero
    on findings; ``--rules`` prints the rule catalog.
``analyze``
    Static analyses that need a built problem: ``analyze tape`` traces one
    training step per registered problem into the autodiff graph and
    verifies shape/dtype consistency, reporting dead nodes, re-materialized
    constants, and duplicate subgraphs (the compile-readiness artifact).
``table1`` / ``table2``
    Regenerate the paper's tables (wraps the ``examples/reproduce_*``
    pipelines) at a chosen scale.
``solve-ldc`` / ``solve-ar``
    Run only the classical reference solver and report convergence.
"""

from __future__ import annotations

import argparse
import os
import select
import sys

__all__ = ["main"]


def _cmd_info(args):
    import repro
    print(f"repro {repro.__version__} — SGM-PINN reproduction (DAC 2024)")
    subsystems = [
        ("api", "Problem/Session API + problem & sampler registries"),
        ("autodiff", "higher-order reverse-mode AD"),
        ("nn", "MLPs, the Adam optimizer, schedules"),
        ("geometry", "2-D/3-D CSG with SDF sampling"),
        ("pde", "NS 2D/3D, zero-eq turbulence, Poisson 2D/3D, Burgers, "
                "trainable coefficients"),
        ("graph", "exact kNN PGM, effective resistance, LRD decomposition"),
        ("stability", "SPADE/ISR scores"),
        ("sampling", "SGM sampler + uniform/MIS baselines"),
        ("solvers", "reference CFD (LDC, annular ring), Ghia tables"),
        ("training", "constraints, trainer, validators"),
        ("experiments", "Table 1/2 + Figures 2-4 harness, suites + "
                        "cross-problem benchmark matrix; report: the one "
                        "table/curve path for sweeps and stored runs"),
        ("exec", "pluggable sweep placement: serial, process pool, "
                 "store-backed job queue + `repro worker` daemons"),
        ("dp", "data-parallel single-method training: sharded "
               "collocation clouds, deterministic tree allreduce"),
        ("store", "persistent run store: TOML configs, resumable "
                  "checkpointed runs; tables and figures of records via "
                  "experiments.report"),
        ("analysis", "project lint rules + autodiff tape analyzer "
                     "(repro lint / repro analyze tape)"),
    ]
    for name, description in subsystems:
        print(f"  repro.{name:<12} {description}")
    return 0


def _cmd_table(args, which):
    from repro.experiments import (
        annular_ring_config, ar_methods, format_table, ldc_config,
        ldc_methods, run_suite, table1_rows, table2_rows)
    if which == 1:
        config = ldc_config(args.scale)
        problem, methods, rows_of = "ldc", ldc_methods(config), table1_rows
    else:
        config = annular_ring_config(args.scale)
        problem, methods, rows_of = ("annular_ring", ar_methods(config),
                                     table2_rows)
    suite = run_suite(problem, methods, config=config, verbose=True,
                      backend="process" if args.parallel else "serial")
    print(format_table(f"Table {which} (scale={args.scale})",
                       *rows_of(suite.histories())))
    return 0


def _print_run_summary(result):
    history = result.history
    if not history.losses:
        print(f"{result.label}: no steps recorded (ran with --steps 0?)")
        return
    print(f"{result.label}: wall {history.wall_times[-1]:.0f}s, "
          f"final loss {history.losses[-1]:.4g}")
    for var in sorted(history.errors):
        print(f"  min err({var}) = {history.min_error(var):.4f}")
    for name, value in sorted(getattr(result, "coefficients", {}).items()):
        print(f"  recovered {name} = {value:.4g}")


def _cmd_run(args):
    import repro
    from repro.store import RunStore, load_run_config, resume_run

    run_config = None
    if args.config is not None:
        if args.problem is not None:
            print("error: give either a problem name or --config, not both")
            return 2
        try:
            run_config = load_run_config(args.config)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}")
            return 2
    elif args.problem is None and args.resume is None:
        print("error: need a problem name, --config, or --resume "
              "(see `repro problems`)")
        return 2

    # store resolution: explicit flag > config file > recording implied by
    # --config/--resume (default root); a bare `repro run <problem>` stays
    # store-less unless --store is given
    store = None
    if args.store is not None:
        store = RunStore(args.store)
    elif run_config is not None and run_config.store_root is not None:
        store = RunStore(run_config.store_root)
    elif args.config is not None or args.resume is not None:
        store = RunStore()
    checkpoint_every = args.checkpoint_every
    if checkpoint_every is None and run_config is not None:
        checkpoint_every = run_config.checkpoint_every

    try:
        if args.resume is not None:
            # a resumed run's wiring is fixed by its record; flags that
            # would change it are rejected rather than silently ignored
            frozen = [flag for flag, value in
                      (("--sampler", args.sampler), ("--scale", args.scale),
                       ("--seed", args.seed),
                       ("--n-interior", args.n_interior),
                       ("--batch-size", args.batch_size),
                       ("--world-size", args.world_size),
                       ("--dp-shards", args.dp_shards))
                      if value is not None]
            if frozen:
                print(f"error: {', '.join(frozen)} cannot change on "
                      f"--resume (the stored record fixes them); "
                      f"--steps and --checkpoint-every may")
                return 2
            result = resume_run(store, args.resume, steps=args.steps,
                                checkpoint_every=checkpoint_every,
                                trace=args.trace)
        else:
            if run_config is not None:
                # CLI flags override the experiment file's [run] values
                if args.sampler is not None:
                    run_config.sampler = args.sampler
                if args.scale is not None:
                    run_config.scale = args.scale
                session = run_config.session()
                steps = (args.steps if args.steps is not None
                         else run_config.steps)
            else:
                session = repro.problem(args.problem,
                                        scale=args.scale or "smoke")
                steps = args.steps
                session.sampler(args.sampler or "sgm")
            if args.seed is not None:
                session.seed(args.seed)
            if args.n_interior is not None:
                session.n_interior(args.n_interior)
            if args.batch_size is not None:
                session.batch_size(args.batch_size)
            if args.compile:
                session.compile()
            if args.trace:
                session.trace()
            if args.world_size is not None:
                # data-parallel runs write no checkpoints: an explicit
                # --checkpoint-every is refused by Session.train, the
                # experiment file's default is dropped with a note
                if (args.checkpoint_every is None
                        and checkpoint_every is not None):
                    print(f"note: ignoring [store] checkpoint_every = "
                          f"{checkpoint_every}; data-parallel runs write "
                          f"no checkpoints")
                result = session.train(
                    steps=steps, store=store,
                    checkpoint_every=args.checkpoint_every,
                    world_size=args.world_size, dp_shards=args.dp_shards,
                    backend=args.backend or "process")
            else:
                if args.dp_shards is not None or args.backend is not None:
                    print("error: --dp-shards/--backend need --world-size")
                    return 2
                result = session.train(steps=steps, store=store,
                                       checkpoint_every=checkpoint_every)
    except (KeyError, ValueError) as exc:
        # registry/store lookup failures already name the alternatives
        print(f"error: {exc.args[0]}")
        return 2
    _print_run_summary(result)
    if result.run_id is not None:
        print(f"recorded as {result.run_id} in {store.root}")
        if args.trace:
            print(f"profile with: repro runs --store {store.root} "
                  f"profile {result.run_id}")
    return 0


def _print_cell_utilization(obs_data, total_seconds):
    """Per-cell wall time vs sweep wall, from adopted ``suite.cell`` spans."""
    cells = [s for s in (obs_data or {}).get("spans", [])
             if s.get("name") == "suite.cell" and s.get("end") is not None]
    if not cells:
        return
    print("\nper-cell utilization (traced):")
    for cell in sorted(cells, key=lambda s: s["start"]):
        label = (cell.get("attrs") or {}).get("label", "?")
        seconds = cell["end"] - cell["start"]
        share = seconds / total_seconds if total_seconds else 0.0
        print(f"  {label:<44} {seconds:>8.2f}s  {share * 100:>5.1f}% of "
              f"sweep wall")


def _cmd_suite(args):
    from repro.experiments import (format_table, resolve_methods, run_suite,
                                   sweep_rows)
    samplers = (None if args.samplers is None
                else [s.strip() for s in args.samplers.split(",") if s.strip()])

    problem, config, methods, store = args.problem, None, samplers, args.store
    # precedence: --backend > --parallel shorthand > config file > serial
    backend = args.backend
    if backend is None and args.parallel:
        backend = "process"
    seed, steps = args.seed, args.steps
    max_workers = args.max_workers
    if args.config is not None:
        from repro.store import load_run_config
        if args.problem is not None:
            print("error: give either a problem name or --config, not both")
            return 2
        try:
            rc = load_run_config(args.config)
            config = rc.build_config()
            methods = resolve_methods(config, samplers or rc.samplers,
                                      n_interior=rc.n_interior,
                                      batch_size=rc.batch_size)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {exc}")
            return 2
        problem = rc.problem
        # flags override the file's [run]/[suite] values
        if backend is None:
            backend = rc.backend
        if max_workers is None:
            max_workers = rc.max_workers
        if seed is None:
            seed = rc.seed
        if steps is None:
            steps = rc.steps
        if store is None:
            store = rc.store_root
    elif args.problem is None:
        print("error: need a problem name or --config "
              "(see `repro problems`)")
        return 2
    if backend is None:
        backend = "serial"

    try:
        suite = run_suite(problem, methods, backend=backend,
                          max_workers=max_workers,
                          workers_external=args.workers_external, seed=seed,
                          steps=steps, scale=args.scale, config=config,
                          verbose=True, store=store, compile=args.compile,
                          trace=args.trace)
    except (KeyError, ValueError) as exc:
        # registry lookups and method resolution name the problem themselves
        print(f"error: {exc.args[0]}")
        return 2
    print()
    print(format_table(f"Suite ({suite.problem}, backend={suite.backend}): "
                       f"min errors and time-to-threshold [s]",
                       *sweep_rows(suite.histories())))
    print(f"\nsweep total: {suite.total_seconds:.1f}s "
          f"({suite.backend} backend, {len(suite)} methods)")
    if args.trace:
        _print_cell_utilization(suite.obs, suite.total_seconds)
    if store is not None:
        recorded = [m.run_id for m in suite if m.run_id]
        print(f"recorded {len(recorded)} runs in {store}")
    return 0


def _cmd_matrix(args):
    from repro.experiments import matrix_table, run_matrix
    samplers = (None if args.samplers is None
                else [s.strip() for s in args.samplers.split(",")
                      if s.strip()])
    backend = args.backend
    if backend is None:
        backend = "process" if args.parallel else "serial"
    try:
        matrix = run_matrix(
            args.problems, samplers, backend=backend,
            max_workers=args.max_workers,
            workers_external=args.workers_external,
            seed=args.seed, steps=args.steps,
            scale=args.scale, verbose=True, store=args.store,
            checkpoint_every=args.checkpoint_every, compile=args.compile,
            trace=args.trace)
    except (KeyError, ValueError) as exc:
        # registry lookups and grid resolution name the problem themselves
        print(f"error: {exc.args[0]}")
        return 2
    print()
    print(matrix_table(matrix.histories(),
                       f"Benchmark matrix ({len(matrix.problems)} problems "
                       f"x {max(len(s) for s in matrix)} methods, "
                       f"backend={matrix.backend})"))
    print(f"\nmatrix total: {matrix.total_seconds:.1f}s "
          f"({matrix.backend} backend, {len(matrix.problems)} problems, "
          f"{matrix.n_cells} cells)")
    if args.trace:
        _print_cell_utilization(matrix.obs, matrix.total_seconds)
    if args.store is not None:
        recorded = matrix.run_ids()
        print(f"recorded {len(recorded)} runs in {args.store}")
        print(f"render figures with: repro runs --store {args.store} plot")
    return 0


# ----------------------------------------------------------------------
# `repro runs` family: the run store's read side
# ----------------------------------------------------------------------
def _cmd_runs_list(store, args):
    records = store.runs(problem=args.problem, status=args.status)
    if not records:
        print(f"no runs in {store.root}")
        return 0
    header = (f"{'run id':<44} {'problem':<20} {'label':<12} "
              f"{'status':<12} {'steps':>7} {'wall[s]':>9} {'loss':>11}")
    print(header)
    print("-" * len(header))
    for record in records:
        meta = record.meta
        last = meta.get("last_step")
        wall = meta.get("wall_seconds")
        loss = meta.get("final_loss")
        print(f"{record.run_id:<44} {meta.get('problem', '?'):<20} "
              f"{record.label:<12} {record.status:<12} "
              f"{'-' if last is None else last + 1:>7} "
              f"{'-' if wall is None else format(wall, '.1f'):>9} "
              f"{'-' if loss is None else format(loss, '.4g'):>11}")
    return 0


def _cmd_runs_show(store, args):
    record = store.open(args.run_id)
    for key in ("run_id", "problem", "sampler", "label", "scale", "status",
                "seed", "steps", "n_interior", "batch_size", "validators",
                "checkpoint_every", "dp_shards", "world_size",
                "repro_version", "numpy_version", "python_version",
                "git_commit", "error"):
        if record.meta.get(key) is not None:
            print(f"{key:<18} {record.meta[key]}")
    history = record.history()
    print(f"{'records':<18} {len(history.steps)}")
    if history.steps:
        print(f"{'last step':<18} {history.steps[-1]}")
        print(f"{'wall seconds':<18} {history.wall_times[-1]:.2f}")
        print(f"{'final loss':<18} {history.losses[-1]:.6g}")
        for var in sorted(history.errors):
            err = history.min_error(var)
            if err == err:   # skip all-NaN series
                print(f"{'min err(' + var + ')':<18} {err:.4f}")
    checkpoints = record.checkpoints()
    print(f"{'checkpoints':<18} {[step for step, _ in checkpoints]}")
    stats = record.sampler_stats()
    if stats:
        print(f"{'sampler':<18} {stats.get('name')} "
              f"(probes={stats.get('probe_points')}, "
              f"refreshes={stats.get('refresh_count')}, "
              f"rebuilds={stats.get('rebuild_count')})")
    from repro.obs import format_metrics_summary, metrics_summary
    summary = format_metrics_summary(
        metrics_summary(record.metrics_snapshots()))
    if summary is not None:
        print(f"{'metrics':<18} {summary}")
    return 0


def _cmd_runs_profile(store, args):
    import json as _json

    from repro import obs
    if args.run_id == "latest":
        records = store.runs()
        if not records:
            print(f"no runs in {store.root}")
            return 2
        record = records[0]
    else:
        record = store.open(args.run_id)
    spans = record.spans()
    if not spans:
        print(f"error: run {record.run_id} recorded no spans; train it "
              f"with --trace (or Session.trace()) to profile it")
        return 2
    snapshots = record.metrics_snapshots()

    if args.format == "chrome":
        text = _json.dumps(obs.chrome_trace(spans))
        if args.out is not None:
            from pathlib import Path
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"chrome trace for {record.run_id} written to "
                  f"{args.out} (open in Perfetto / chrome://tracing)")
        else:
            print(text)
        return 0

    lines = [f"profile of {record.run_id} ({record.label})", "",
             obs.render_tree(spans)]
    table = obs.phase_table(spans)
    if table["steps"]:
        lines += ["", "per-step phase breakdown:",
                  obs.render_phase_table(table)]
    overhead = obs.sampler_overhead(spans, snapshots)
    lines += ["",
              f"sampler overhead: {overhead['overhead_seconds']:.3f}s "
              f"(rebuild {overhead['rebuild_seconds']:.3f}s + refresh "
              f"{overhead['refresh_seconds']:.3f}s) vs "
              f"{overhead['train_seconds']:.3f}s training -> "
              f"{overhead['ratio'] * 100:.1f}%"]
    if overhead["probe_points"] is not None:
        lines.append(f"probe points: {overhead['probe_points']:.0f}")
    summary = obs.format_metrics_summary(obs.metrics_summary(snapshots))
    if summary is not None:
        lines.append(f"metrics: {summary}")
    text = "\n".join(lines)
    if args.out is not None:
        from pathlib import Path
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"profile written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_runs_compare(store, args):
    from repro.experiments import (compare_table, stored_baselines,
                                   stored_histories)
    if args.run_ids:
        records = [store.open(run_id) for run_id in args.run_ids]
    else:
        records = store.runs(problem=args.problem, status="completed")
        records = list(reversed(records))       # oldest first = baseline
    if not records:
        print("no runs to compare (give run ids or --problem)")
        return 2
    variables = (None if args.variables is None else
                 [v.strip() for v in args.variables.split(",") if v.strip()])
    try:
        baselines = stored_baselines(records, args.baseline)
    except KeyError as exc:
        print(f"error: {exc.args[0]}")
        return 2
    print(compare_table(stored_histories(records), baselines, variables))
    return 0


def _cmd_runs_plot(store, args):
    from repro.experiments import (render_curves, stored_histories,
                                   write_curves_csv)
    if args.run_ids:
        records = [store.open(run_id) for run_id in args.run_ids]
    else:
        records = store.runs(problem=args.problem, status="completed")
        records = list(reversed(records))       # oldest first
    if not records:
        print("no runs to plot (give run ids or --problem)")
        return 2
    # error scales are only comparable within one workload: one chart
    # per problem, like `runs compare` (histories parse once and feed
    # both the charts and the CSV export)
    what = "training loss" if args.var == "loss" else f"err({args.var})"
    grouped = stored_histories(records)
    for problem, histories in grouped.items():
        print(render_curves(histories, var=args.var,
                            title=f"Convergence vs wall time ({problem}): "
                                  f"{what}",
                            width=args.width, height=args.height))
        print()
    if args.csv is not None:
        write_curves_csv(grouped, args.csv, var=args.var)
        print(f"series written to {args.csv}")
    return 0


def _cmd_runs_resume(store, args):
    from repro.store import resume_run
    result = resume_run(store, args.run_id, steps=args.steps,
                        trace=args.trace)
    _print_run_summary(result)
    print(f"resumed {args.run_id} to completion in {store.root}")
    return 0


def _cmd_runs_gc(store, args):
    removed = freed = 0
    if args.keep_best is not None:
        if args.all or args.status is not None:
            print("error: --keep-best replaces the status-based policies; "
                  "drop --all/--status")
            return 2
        from repro.store import keep_best_victims, run_score
        for record in keep_best_victims(store, args.keep_best):
            freed += record.size_bytes()
            cell = f"{record.meta.get('problem', '?')}:{record.label}"
            store.delete(record.run_id)
            print(f"removed {record.run_id} ({cell}, "
                  f"score {run_score(record):.4g})")
            removed += 1
        print(f"gc: kept the {args.keep_best} best completed run(s) per "
              f"problem x label cell; removed {removed} run(s), freed "
              f"{freed / 1024:.1f} KiB")
        return 0
    for record in store.runs():
        if args.all:
            doomed = True
        elif args.status is not None:
            doomed = record.status == args.status
        else:
            # default: dead runs with nothing to resume from.  Status
            # "running" is never gc'd by default — it may be a live
            # process that simply has not reached its first checkpoint
            # (use --status running for stores known to hold stale runs)
            doomed = (record.status in ("failed", "interrupted")
                      and record.latest_checkpoint() is None)
        if doomed:
            freed += record.size_bytes()
            store.delete(record.run_id)
            print(f"removed {record.run_id} ({record.status})")
            removed += 1
    print(f"gc: removed {removed} run(s), freed {freed / 1024:.1f} KiB")
    return 0


def _cmd_runs(args):
    from repro.store import RunStore
    store = RunStore(args.store)
    handlers = {"list": _cmd_runs_list, "show": _cmd_runs_show,
                "compare": _cmd_runs_compare, "plot": _cmd_runs_plot,
                "profile": _cmd_runs_profile,
                "resume": _cmd_runs_resume, "gc": _cmd_runs_gc}
    try:
        return handlers[args.runs_command](store, args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}")
        return 2


def _cmd_worker(args):
    from repro.exec import run_worker
    print(f"worker polling {args.store}/queue "
          f"(lease {args.lease_seconds:g}s, poll {args.poll:g}s; "
          f"ctrl-c to stop)")
    try:
        executed = run_worker(
            args.store, worker_id=args.worker_id,
            lease_seconds=args.lease_seconds, poll=args.poll,
            max_tasks=args.max_tasks, exit_when_idle=args.exit_when_idle,
            max_idle_seconds=args.max_idle_seconds, verbose=True)
    except KeyboardInterrupt:
        print("worker stopped (any leased job will be re-claimed after "
              "its lease expires)")
        return 130
    print(f"worker exit: executed {executed} task(s)")
    return 0


def _cmd_problems(args):
    # each entry's description is pulled from its registered builder's
    # docstring at registration time (see repro.api.register_problem), so
    # the listing always names what every problem/sampler actually is
    from repro.api import problem_registry, sampler_registry
    for registry in (problem_registry, sampler_registry):
        print(f"{registry.kind}s:")
        width = max(len(name) for name in registry.names()) + 2
        for name, entry in registry.items():
            print(f"  {name:<{width}} {entry.description}")
    return 0


def _cmd_lint(args):
    import json

    from repro.analysis import lint_paths, lint_project, rule_catalog

    if args.rules:
        if args.format == "json":
            print(json.dumps({"rules": rule_catalog()}, indent=2))
        else:
            for rule in rule_catalog():
                print(f"{rule['id']} [{rule['severity']}] {rule['title']}")
                print(f"    {rule['rationale']}")
                print(f"    fix: {rule['hint']}")
        return 0

    select = (None if args.select is None else
              [s.strip() for s in args.select.split(",") if s.strip()])
    if args.paths:
        violations = lint_paths(args.paths, select=select)
    else:
        violations = lint_project(select=select)

    if args.format == "json":
        print(json.dumps({
            "violations": [v.to_dict() for v in violations],
            "count": len(violations),
            "errors": sum(v.severity == "error" for v in violations),
            "warnings": sum(v.severity == "warning" for v in violations),
        }, indent=2))
    else:
        for violation in violations:
            print(violation.format())
        target = ", ".join(args.paths) if args.paths else "repro source tree"
        print(f"{len(violations)} finding(s) in {target}")
    return 1 if violations else 0


def _cmd_analyze(args):
    import json

    from repro.analysis import analyze_tape

    if args.problem == "all":
        from repro.api.registry import list_problems
        import repro.api.problems  # noqa: F401  (populate the registry)
        problems = list_problems()
    else:
        problems = [args.problem]

    reports = []
    for problem in problems:
        try:
            reports.append(analyze_tape(problem, sampler=args.sampler,
                                        scale=args.scale))
        except KeyError as exc:
            print(f"error: {exc.args[0]}")
            return 2
    if args.format == "json":
        print(json.dumps({"reports": [r.to_dict() for r in reports]},
                         indent=2))
    else:
        for report in reports:
            print(report.format())
            print()
        consistent = sum(r.consistent for r in reports)
        print(f"{consistent}/{len(reports)} problem(s) consistent")
    return 0 if all(r.consistent for r in reports) else 1


def _cmd_solve(args, problem):
    if problem == "ldc":
        from repro.solvers import solve_ldc
        result = solve_ldc(reynolds=args.reynolds,
                           resolution=args.resolution)
        print(f"LDC Re={args.reynolds:g} on {args.resolution}^2: "
              f"{result.steps} steps, residual {result.final_residual:.2e}")
    else:
        from repro.solvers import solve_annulus
        result = solve_annulus(inner_radius=args.radius)
        print(f"annular ring r_i={args.radius:g}: {result.steps} steps, "
              f"residual {result.final_residual:.2e}")
    return 0


def build_parser():
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SGM-PINN reproduction toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library inventory")
    sub.add_parser("problems", help="list registered problems and samplers")

    # problem/sampler names are validated against the registries at run
    # time (see _cmd_run), keeping parser construction import-light and
    # letting plugin registrations appear without argparse changes
    p = sub.add_parser("run", help="train any registered problem with any "
                       "registered sampler (see `repro problems`), by name "
                       "or from a TOML/JSON experiment file")
    p.add_argument("problem", metavar="problem", nargs="?", default=None,
                   help="a registered problem, e.g. ldc, annular_ring, "
                        "burgers, poisson3d, inverse_burgers, ns3d "
                        "(or use --config)")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="TOML/JSON experiment file ([run]/[config]/[store] "
                        "tables); implies recording into the run store")
    p.add_argument("--sampler", default=None,
                   help="a registered sampler (default: sgm, or the "
                        "experiment file's choice)")
    p.add_argument("--scale", default=None, choices=("smoke", "repro"),
                   help="config scale preset (default: smoke, or the "
                        "experiment file's choice)")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-interior", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--store", default=None, metavar="DIR",
                   help="record the run into this run store "
                        "(default with --config: [store].root or ./runs)")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="full-state checkpoint cadence in steps")
    p.add_argument("--resume", default=None, metavar="RUN_ID",
                   help="continue a stored run from its newest checkpoint")
    p.add_argument("--compile", action="store_true",
                   help="replay a compiled autodiff tape after tracing the "
                        "first steps (bit-identical; falls back to eager "
                        "if the graph refuses to compile)")
    p.add_argument("--trace", action="store_true",
                   help="record repro.obs spans/metrics; with a store the "
                        "record gains spans.jsonl + metrics.jsonl for "
                        "`repro runs profile`")
    p.add_argument("--world-size", type=int, default=None, metavar="N",
                   help="train data-parallel over N worker ranks hosting "
                        "--dp-shards logical shards; the trajectory is "
                        "bit-identical for every N (see docs/execution.md)")
    p.add_argument("--dp-shards", type=int, default=None, metavar="S",
                   help="logical shard count for --world-size runs "
                        "(default 4; must be >= the world size)")
    p.add_argument("--backend", default=None,
                   choices=("process", "queue", "thread"),
                   help="execution backend hosting --world-size ranks "
                        "(default process; queue needs a store)")

    p = sub.add_parser("runs", help="inspect the persistent run store")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="store root (default: $REPRO_RUNS_DIR or ./runs)")
    runs_sub = p.add_subparsers(dest="runs_command", required=True)
    q = runs_sub.add_parser("list", help="list stored runs")
    q.add_argument("--problem", default=None)
    q.add_argument("--status", default=None,
                   choices=("running", "completed", "interrupted", "failed"))
    q = runs_sub.add_parser("show", help="one run's metadata and summary")
    q.add_argument("run_id")
    q = runs_sub.add_parser("compare", help="Table-1-style speedup rows "
                            "from stored records")
    q.add_argument("run_ids", nargs="*",
                   help="runs to compare (default: all completed runs of "
                        "--problem)")
    q.add_argument("--problem", default=None)
    q.add_argument("--baseline", default=None,
                   help="run id, label or label#idtail whose best errors "
                        "set the thresholds (default: first run); a name "
                        "no compared run has exits 2")
    q.add_argument("--variables", default=None,
                   help="comma-separated error variables (default: all)")
    q = runs_sub.add_parser("plot", help="convergence-vs-time figure "
                            "rendered from stored records alone")
    q.add_argument("run_ids", nargs="*",
                   help="runs to plot (default: all completed runs of "
                        "--problem, one chart per problem)")
    q.add_argument("--problem", default=None)
    q.add_argument("--var", default="loss",
                   help="series to plot: 'loss' (default) or a validated "
                        "error variable like u, v, p")
    q.add_argument("--csv", default=None, metavar="FILE",
                   help="also write the series as long-format CSV")
    q.add_argument("--width", type=int, default=72)
    q.add_argument("--height", type=int, default=18)
    q = runs_sub.add_parser("profile", help="span tree, per-step phase "
                            "table, and sampler-overhead ratio of a traced "
                            "run")
    q.add_argument("run_id",
                   help="a stored run id, or 'latest' for the newest run")
    q.add_argument("--format", default="text", choices=("text", "chrome"),
                   help="'text' (default) or 'chrome' trace-event JSON "
                        "loadable in Perfetto")
    q.add_argument("--out", default=None, metavar="FILE",
                   help="write the report/trace to FILE instead of stdout")
    q = runs_sub.add_parser("resume", help="continue a run from its newest "
                            "checkpoint (bit-identical trajectory)")
    q.add_argument("run_id")
    q.add_argument("--steps", type=int, default=None,
                   help="new total step count (default: as launched)")
    q.add_argument("--trace", action="store_true",
                   help="trace the continued stretch (appends to the "
                   "record's spans.jsonl/metrics.jsonl)")
    q = runs_sub.add_parser("gc", help="delete failed/interrupted runs "
                            "that have no checkpoint to resume from")
    q.add_argument("--status", default=None,
                   choices=("running", "completed", "interrupted", "failed"),
                   help="instead delete every run with this status "
                        "(running runs may belong to a live process)")
    q.add_argument("--all", action="store_true",
                   help="delete every run in the store")
    q.add_argument("--keep-best", type=int, default=None, metavar="N",
                   help="retention for long sweeps: keep only the N "
                        "best-error completed runs per problem x label "
                        "cell, delete the other completed runs")

    p = sub.add_parser("suite", help="train a method sweep on any "
                       "registered problem on any execution backend")
    p.add_argument("problem", metavar="problem", nargs="?", default=None,
                   help="a registered problem, e.g. ldc, annular_ring "
                        "(or use --config)")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="TOML/JSON experiment file; its [suite] table sets "
                        "samplers/backend/max_workers")
    p.add_argument("--samplers", default=None,
                   help="comma-separated registered samplers "
                        "(default: all registered)")
    p.add_argument("--backend", default=None,
                   help="execution backend: serial (default), process, or "
                        "queue (durable jobs in --store consumed by "
                        "`repro worker` daemons)")
    p.add_argument("--parallel", action="store_true",
                   help="shorthand for --backend process")
    p.add_argument("--workers-external", action="store_true",
                   help="queue backend: don't spawn a local worker fleet; "
                        "wait for separately launched `repro worker` "
                        "processes")
    p.add_argument("--max-workers", type=int, default=None)
    p.add_argument("--scale", default="smoke", choices=("smoke", "repro"))
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--store", default=None, metavar="DIR",
                   help="record every method into this run store")
    p.add_argument("--compile", action="store_true",
                   help="train every method with compiled-tape replay "
                        "(bit-identical; per-cell eager fallback)")
    p.add_argument("--trace", action="store_true",
                   help="trace every cell (per-cell utilization; workers "
                        "ship spans back across the pool)")

    p = sub.add_parser("matrix", help="cross-problem benchmark matrix: "
                       "problems x samplers cells on one shared backend")
    p.add_argument("--problems", default="all",
                   help="comma-separated registered problems, or 'all' "
                        "(default)")
    p.add_argument("--samplers", default=None,
                   help="comma-separated registered samplers "
                        "(default: all registered)")
    p.add_argument("--backend", default=None,
                   help="execution backend: serial (default), process, or "
                        "queue (durable jobs in --store consumed by "
                        "`repro worker` daemons)")
    p.add_argument("--parallel", action="store_true",
                   help="shorthand for --backend process")
    p.add_argument("--workers-external", action="store_true",
                   help="queue backend: don't spawn a local worker fleet; "
                        "wait for separately launched `repro worker` "
                        "processes")
    p.add_argument("--max-workers", type=int, default=None)
    p.add_argument("--scale", default="smoke", choices=("smoke", "repro"))
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--store", default=None, metavar="DIR",
                   help="record every cell into this single run store")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="full-state checkpoint cadence in steps")
    p.add_argument("--compile", action="store_true",
                   help="train every cell with compiled-tape replay "
                        "(bit-identical; per-cell eager fallback)")
    p.add_argument("--trace", action="store_true",
                   help="trace every cell (per-cell utilization; workers "
                        "ship spans back across the pool)")

    p = sub.add_parser("worker", help="queue-backend worker daemon: claim "
                       "and train jobs a `--backend queue` sweep enqueued "
                       "in a run store")
    p.add_argument("store", metavar="STORE",
                   help="run-store root whose queue/ directory holds the "
                        "job records")
    p.add_argument("--worker-id", default=None,
                   help="name recorded on claims and leases "
                        "(default: worker-<pid>-<random>)")
    p.add_argument("--lease-seconds", type=float, default=30.0,
                   help="claim lifetime between heartbeats; a crashed "
                        "worker's job is re-claimable this long after its "
                        "last renewal (default: 30)")
    p.add_argument("--poll", type=float, default=0.5,
                   help="idle sleep between claim attempts (default: 0.5)")
    p.add_argument("--max-tasks", type=int, default=None,
                   help="exit after executing this many tasks "
                        "(default: unlimited)")
    p.add_argument("--exit-when-idle", action="store_true",
                   help="exit once the queue holds no unfinished jobs")
    p.add_argument("--max-idle-seconds", type=float, default=None,
                   help="exit after this long without claiming anything "
                        "(default: wait forever)")

    for n in (1, 2):
        p = sub.add_parser(f"table{n}", help=f"regenerate Table {n}")
        p.add_argument("--scale", default="smoke",
                       choices=("smoke", "repro"))
        p.add_argument("--parallel", action="store_true",
                       help="shard the method sweep over a process pool")

    p = sub.add_parser("lint", help="run the project linter over the repro "
                       "source tree (or given paths)")
    p.add_argument("paths", nargs="*", metavar="path",
                   help="files or directories to lint (default: the "
                        "installed repro package)")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--select", default=None, metavar="IDS",
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--rules", action="store_true",
                   help="print the rule catalog instead of linting")

    p = sub.add_parser("analyze", help="static analyses over built problems")
    analyze_sub = p.add_subparsers(dest="analyze_command", required=True)
    q = analyze_sub.add_parser("tape", help="trace one training step into "
                               "the autodiff graph and verify shape/dtype "
                               "consistency, dead nodes, re-materialized "
                               "constants, duplicate subgraphs")
    q.add_argument("--problem", default="all",
                   help="a registered problem, or 'all' (default)")
    q.add_argument("--sampler", default="uniform",
                   help="registered sampler to trace under "
                        "(default: uniform)")
    q.add_argument("--scale", default="smoke",
                   choices=("smoke", "repro", "paper"))
    q.add_argument("--format", default="text", choices=("text", "json"))

    p = sub.add_parser("solve-ldc", help="run the reference LDC solver")
    p.add_argument("--reynolds", type=float, default=100.0)
    p.add_argument("--resolution", type=int, default=65)
    p = sub.add_parser("solve-ar", help="run the reference annulus solver")
    p.add_argument("--radius", type=float, default=1.0)
    return parser


def _stdout_closed():
    """Whether stdout is a pipe whose reader has gone (``repro ... | head``
    exited); a file or a capture object never is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return False
    poller = select.poll()
    poller.register(fd, select.POLLOUT)
    return any(mask & select.POLLERR for _, mask in poller.poll(0))


def main(argv=None):
    """CLI entry point; returns a process exit code.

    A stdout closed by its reader is the normal end of output: the command
    stops and exits 0 without a traceback.
    """
    try:
        try:
            return _dispatch(build_parser().parse_args(argv))
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        if not _stdout_closed():
            raise
        # point stdout at devnull so the interpreter's exit flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args):
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "runs":
        return _cmd_runs(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "matrix":
        return _cmd_matrix(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "problems":
        return _cmd_problems(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command in ("table1", "table2"):
        return _cmd_table(args, int(args.command[-1]))
    if args.command == "solve-ldc":
        return _cmd_solve(args, "ldc")
    if args.command == "solve-ar":
        return _cmd_solve(args, "ar")
    return 2


if __name__ == "__main__":
    sys.exit(main())

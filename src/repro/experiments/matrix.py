"""Cross-problem benchmark matrix on one shared execution backend.

The paper's headline evidence is method-sweep tables across *several*
workloads; importance-sampling baselines are only credible when compared
over many PDEs (Nabian et al. 2021, DMIS).  :func:`run_matrix` resolves a
problems × samplers grid into cells — one :class:`~repro.api.MethodSpec`
per (problem, sampler) — and submits **all** cells to one shared
:mod:`repro.exec` backend, so a 5-problem × 4-sampler matrix saturates a
local pool (or a ``repro worker`` fleet) instead of running five
sequential suites.

:func:`~repro.experiments.run_suite` is this function over one problem,
so each cell's loss/error trajectory is bit-identical to the
corresponding standalone suite cell (parity-tested).
With ``store=`` every cell records its own durable run into a single
:class:`repro.store.RunStore`, from which ``repro runs plot`` /
``repro runs compare`` regenerate the convergence-vs-time figures and
cross-problem speedup rows without any live objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..api.registry import problem_registry
from ..exec import resolve_backend
from .suite import (SuiteResult, _make_task, _train_method,
                    resolve_methods)

__all__ = ["MatrixResult", "resolve_problems", "run_matrix"]


def resolve_problems(problems=None):
    """Normalise ``problems`` into registered names.

    ``None`` or ``"all"`` expands to every registered problem; a comma
    string splits; every name is validated against the registry (failing
    fast with the registry's error).  Duplicates are rejected — they would
    collide in the result grid.
    """
    if problems is None or problems == "all":
        return problem_registry.names()
    if isinstance(problems, str):
        problems = [p.strip() for p in problems.split(",") if p.strip()]
    names = []
    for name in problems:
        problem_registry.get(name)
        names.append(name)
    if not names:
        raise ValueError("matrix needs at least one problem")
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise ValueError(f"duplicate problems {duplicates} in matrix")
    return names


@dataclass
class MatrixResult:
    """All cells of one problems × samplers grid, grouped per problem.

    ``suites`` maps each problem name to a :class:`SuiteResult` whose
    methods are in spec order; ``total_seconds`` is the wall time of the
    whole grid on the shared backend (each embedded suite's
    ``total_seconds`` is the sum of its cells' training time, since the
    cells did not run as an isolated sweep).
    """

    backend: str
    suites: dict
    total_seconds: float
    scale: str = "repro"
    store_root: str = field(repr=False, default=None)
    #: grid-level span/metric export (every cell adopted under a
    #: ``suite.cell`` span) when the grid ran with ``trace=True``
    obs: dict = field(repr=False, default=None)

    @property
    def problems(self):
        return list(self.suites)

    @property
    def n_cells(self):
        return sum(len(suite) for suite in self.suites.values())

    def __len__(self):
        return self.n_cells

    def __getitem__(self, problem):
        try:
            return self.suites[problem]
        except KeyError:
            raise KeyError(f"unknown problem {problem!r} in matrix; "
                           f"have {self.problems}") from None

    def __iter__(self):
        return iter(self.suites.values())

    def cells(self):
        """``(problem, MethodResult)`` pairs in grid order."""
        for problem, suite in self.suites.items():
            for method in suite:
                yield problem, method

    def labels(self):
        """``{problem: [column labels]}`` of the grid."""
        return {problem: suite.labels
                for problem, suite in self.suites.items()}

    def histories(self):
        """``{problem: {label: History}}`` for
        :mod:`repro.experiments.report`."""
        return {problem: suite.histories()
                for problem, suite in self.suites.items()}

    def run_ids(self):
        """Store record ids of every cell (``None`` entries dropped)."""
        return [m.run_id for _, m in self.cells() if m.run_id is not None]


def run_matrix(problems=None, methods=None, *, backend="process",
               max_workers=None, workers_external=False, seed=None,
               steps=None, scale="repro", configs=None, n_interior=None,
               batch_size=None, validators=None, verbose=False, store=None,
               checkpoint_every=None, compile=False, trace=False):
    """Train a problems × samplers benchmark matrix on one shared backend.

    Parameters
    ----------
    problems:
        ``None``/``"all"`` (every registered problem), a comma string, or
        a list of problem-registry names — see :func:`resolve_problems`.
    methods:
        ``None`` (all registered samplers), sampler names, or
        :class:`MethodSpec` objects; resolved *per problem config* via
        :func:`resolve_methods`, so column labels follow each problem's
        batch size.
    backend:
        ``"serial"``, ``"process"``, ``"queue"``, a registered custom
        name, or a ready :class:`~repro.exec.ExecutionBackend` (default
        ``"process"``).  Every cell of the grid goes to one shared
        backend — a 5 × 4 matrix keeps a local pool or a ``repro
        worker`` fleet saturated instead of running five sequential
        suites.
    max_workers:
        Shared worker-fleet size (default: ``min(n_cells, cpu_count)``).
    workers_external:
        Queue backend only: rely on separately launched ``repro worker``
        processes instead of spawning a local fleet.
    seed:
        Run seed shared by all cells (default: each problem's
        ``config.seed`` — the same default the standalone suite uses,
        preserving per-cell parity).
    steps:
        Optimizer steps per cell (default: each problem's config).
    scale:
        Config scale preset for every problem without an entry in
        ``configs``.
    configs:
        Optional ``{problem: config}`` overrides.
    store:
        Optional :class:`repro.store.RunStore` (or root path): every cell
        — including each pool/queue worker — records its own durable
        run into this single store.  Required by the queue backend (its
        job records live in the store).
    compile:
        Train every cell with record-once/replay-many tape execution
        (bit-identical to eager; automatic per-cell eager fallback).
    trace:
        Record :mod:`repro.obs` spans/metrics: every cell traces itself
        (workers ship the data back), the grid adopts them under
        ``suite.cell`` spans, and the merged export lands on
        :attr:`MatrixResult.obs` — per-cell utilization for the shared
        backend, plus per-run ``spans.jsonl`` when ``store`` is given.

    Returns
    -------
    :class:`MatrixResult` with per-problem suites in grid order; each
    cell is bit-identical to the corresponding ``run_suite`` cell.

    Examples
    --------
    >>> from repro.experiments import run_matrix
    >>> matrix = run_matrix(["burgers", "poisson3d"], ["uniform"],
    ...                     backend="serial", scale="smoke", steps=2,
    ...                     validators=[])
    >>> matrix.problems
    ['burgers', 'poisson3d']
    >>> matrix.n_cells
    2
    """
    names = resolve_problems(problems)
    configs = dict(configs or {})
    store_root = None
    if store is not None:
        from ..store import RunStore
        store_root = str(RunStore.coerce(store).root)
    exec_backend = resolve_backend(backend, max_workers=max_workers,
                                   store=store_root,
                                   workers_external=workers_external)
    backend_name = exec_backend.name or type(exec_backend).__name__

    tasks, labels, grid = [], [], []
    for name in names:
        entry = problem_registry.get(name)
        config = configs.get(name)
        if config is None:
            config = entry.config_factory(scale)
        specs = resolve_methods(config, methods, n_interior=n_interior,
                                batch_size=batch_size)
        cell_seed = config.seed if seed is None else int(seed)
        grid.append((entry.name, config, specs, cell_seed, len(tasks)))
        for spec in specs:
            tasks.append(_make_task(entry.name, config, spec, cell_seed,
                                    steps, validators,
                                    verbose and exec_backend.inline,
                                    store_root, checkpoint_every, compile,
                                    trace))
            labels.append(f"{entry.name}:{config.scale}:{spec.label}")

    matrix_tracer = obs.Tracer() if trace else None
    with obs.stopwatch() as total_timer:
        if matrix_tracer is None:
            results = exec_backend.submit(_train_method, tasks, labels,
                                          verbose=verbose)
        else:
            with matrix_tracer.span("suite.run", cells=len(tasks),
                                    backend=backend_name) as root:
                results = exec_backend.submit(_train_method, tasks, labels,
                                              verbose=verbose)
                exec_backend.adopt_into(matrix_tracer, root.span_id, labels,
                                        results)

    suites = {}
    for name, config, specs, cell_seed, start in grid:
        cells = results[start:start + len(specs)]
        suites[name] = SuiteResult(
            problem=name, backend=backend_name, methods=cells,
            total_seconds=sum(m.wall_seconds for m in cells),
            seed=cell_seed, config=config)
    return MatrixResult(backend=backend_name, suites=suites,
                        total_seconds=total_timer.seconds, scale=scale,
                        store_root=store_root,
                        obs=(None if matrix_tracer is None
                             else matrix_tracer.export()))

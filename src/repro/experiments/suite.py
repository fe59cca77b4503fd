"""Registry-driven method sweeps over pluggable execution backends.

The paper's headline results are method-sweep tables: train the *same*
problem under several samplers (uniform small/large batch, MIS, SGM,
SGM-S) and compare error trajectories.  :func:`run_suite` generalises the
old hardcoded LDC/annular-ring loops over the problem and sampler
registries: any registered problem crossed with any subset of registered
samplers resolves into :class:`~repro.api.MethodSpec` columns.

Method sweeps are embarrassingly parallel — each column trains an
independent network — so *where* columns run is a pure placement choice,
delegated to :mod:`repro.exec`: ``backend="serial"`` trains in-process,
``"process"`` shards over one local pool, ``"queue"`` feeds a durable
store-backed queue consumed by ``repro worker`` daemons.  Every worker
seeds itself from its spec (the problem build, network init, and sampler
all derive from ``config.seed`` / the run seed), so every backend
produces bit-identical loss trajectories; results are returned in spec
order regardless of completion order.  Workers return
:class:`MethodResult` payloads that are fully picklable (history, trained
net, sampler statistics) instead of live trainer objects.
:func:`run_suite` is :func:`repro.experiments.run_matrix` over one
problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .. import obs
from ..api.registry import sampler_registry
from ..api.types import MethodSpec, SamplerStats

__all__ = [
    "MethodResult", "SamplerStats", "SuiteResult", "method_label",
    "methods_from_samplers", "resolve_methods", "run_suite",
]


def _make_task(problem, config, spec, seed, steps, validators, verbose,
               store_root, checkpoint_every, compile=False, trace=False):
    """The picklable work unit :func:`_train_method` consumes, one per
    grid cell of :func:`repro.experiments.run_matrix`."""
    return (problem, config, spec, seed, steps, validators, verbose,
            store_root, checkpoint_every, compile, trace)


#: label prefixes mirroring the paper's column headers (U500, MIS500, ...)
_LABEL_PREFIXES = {"uniform": "U", "mis": "MIS", "sgm": "SGM",
                   "sgm_s": "SGM-S"}


def method_label(kind, batch_size):
    """The paper-style column label for a sampler at a batch size."""
    prefix = _LABEL_PREFIXES.get(kind, kind.upper().replace("_", "-"))
    return f"{prefix}{batch_size}"


def methods_from_samplers(config, samplers=None, n_interior=None,
                          batch_size=None):
    """One small-batch :class:`MethodSpec` per sampler name.

    ``samplers=None`` expands to every registered sampler.  Sizes default
    to the config's reduced dataset/batch (the paper trains every
    importance-sampling column at the small sizes).
    """
    if samplers is None:
        samplers = sampler_registry.names()
    n_interior = (config.n_interior_small if n_interior is None
                  else int(n_interior))
    batch_size = config.batch_small if batch_size is None else int(batch_size)
    specs = []
    for kind in samplers:
        sampler_registry.get(kind)   # fail fast with the registry's error
        specs.append(MethodSpec(method_label(kind, batch_size), kind,
                                n_interior, batch_size))
    return specs


def resolve_methods(config, methods=None, n_interior=None, batch_size=None):
    """Normalise ``methods`` into a list of :class:`MethodSpec`.

    Accepts ``None`` (all registered samplers), sampler-registry names,
    ready-made :class:`MethodSpec` objects, or a mix of both.  Every spec's
    sampler kind is validated against the registry, and duplicate column
    labels are rejected (they would collide in the result tables).
    """
    if methods is None:
        specs = methods_from_samplers(config, None, n_interior, batch_size)
    else:
        specs = []
        for method in methods:
            if isinstance(method, MethodSpec):
                sampler_registry.get(method.kind)
                specs.append(method)
            else:
                specs.extend(methods_from_samplers(
                    config, [method], n_interior, batch_size))
    if not specs:
        raise ValueError("suite needs at least one method")
    labels = [spec.label for spec in specs]
    duplicates = sorted({l for l in labels if labels.count(l) > 1})
    if duplicates:
        raise ValueError(f"duplicate method labels {duplicates}; give "
                         f"explicit MethodSpecs with distinct labels")
    return specs


@dataclass
class MethodResult:
    """One trained suite column, in picklable form.

    ``run_id`` names the method's record when the sweep wrote into a
    :class:`repro.store.RunStore` (else ``None``).
    """

    spec: MethodSpec
    seed: int
    history: object
    wall_seconds: float
    sampler_stats: SamplerStats
    #: the trained network itself (every registered problem's pickles)
    net: object = field(repr=False, default=None)
    run_id: str = None
    #: the cell's exported span/metric data (``Tracer.export()`` dict) when
    #: the sweep traced; plain picklable data that survives the pool
    obs_data: dict = field(repr=False, default=None)

    @property
    def label(self):
        return self.spec.label

    @property
    def kind(self):
        return self.spec.kind

    @property
    def probe_points(self):
        return self.sampler_stats.probe_points

    @property
    def net_state(self):
        """The trained network's ``state_dict``."""
        return self.net.state_dict()


@dataclass
class SuiteResult:
    """All methods of one sweep, in spec order with per-method timing."""

    problem: str
    backend: str
    methods: list
    total_seconds: float
    seed: int = 0
    config: object = field(repr=False, default=None)
    #: sweep-level span/metric export (cells adopted under ``suite.cell``
    #: spans) when the sweep ran with ``trace=True``; else ``None``
    obs: dict = field(repr=False, default=None)

    @property
    def labels(self):
        return [m.label for m in self.methods]

    def histories(self):
        """``{label: History}`` for :mod:`repro.experiments.report`."""
        return {m.label: m.history for m in self.methods}

    def __len__(self):
        return len(self.methods)

    def __iter__(self):
        return iter(self.methods)

    def __getitem__(self, label):
        for method in self.methods:
            if method.label == label:
                return method
        raise KeyError(f"unknown method label {label!r}; "
                       f"have {self.labels}")


def _train_method(task):
    """Worker: build the problem and train one method (picklable I/O).

    Runs identically under every backend — the serial backend calls this
    function in-process, the process pool and queue workers ship ``task``
    across a process boundary — so trajectory parity between backends is
    parity of one code path.  All randomness derives from
    ``(config, seed)``, never from worker state.
    """
    (name, config, spec, seed, steps, validators, verbose, store_root,
     checkpoint_every, compile, trace) = task
    from ..api.problems import build_problem
    from ..api.session import run_problem
    store = None
    if store_root is not None:
        # each worker opens the store itself (RunStore is not shipped across
        # the process boundary) and writes only inside its own run directory
        from ..store import RunStore
        store = RunStore(store_root)
    if verbose:
        print(f"[{name}:{config.scale}] training {spec.label} "
              f"(N={spec.n_interior}, batch={spec.batch_size})")
    # a stopwatch, not a span: the cell's spans come from run_problem's own
    # tracer and are adopted by the sweep afterwards (identically for every
    # backend), so a span here would double-count the cell
    with obs.stopwatch() as walltimer:
        prob = build_problem(name, config, spec.n_interior,
                             np.random.default_rng(seed))
        result = run_problem(prob, config, sampler=spec.kind,
                             batch_size=spec.batch_size, seed=seed,
                             steps=steps, label=spec.label,
                             validators=validators, store=store,
                             checkpoint_every=checkpoint_every,
                             compile=compile, trace=trace)
    wall = walltimer.seconds

    return MethodResult(spec=spec, seed=seed, history=result.history,
                        wall_seconds=wall,
                        sampler_stats=SamplerStats.of(result.sampler),
                        net=result.net, run_id=result.run_id,
                        obs_data=result.obs)


def run_suite(problem, methods=None, *, backend="process",
              max_workers=None, workers_external=False, seed=None,
              steps=None, config=None, scale="repro", validators=None,
              verbose=False, store=None, checkpoint_every=None,
              compile=False, trace=False):
    """Train a method sweep on any registered problem.

    Parameters
    ----------
    problem:
        A problem-registry name (``ldc``, ``annular_ring``, ...).
    methods:
        ``None`` (all registered samplers), sampler names, or
        :class:`MethodSpec` objects — see :func:`resolve_methods`.
    backend:
        Placement, resolved via :func:`repro.exec.resolve_backend`
        (default ``"process"``).  ``"serial"`` trains methods one after
        another in-process; ``"process"`` shards them over one local
        pool; ``"queue"`` enqueues durable jobs in the run store for
        ``repro worker`` daemons.  A ready
        :class:`~repro.exec.ExecutionBackend` instance is accepted as-is.
        Every backend produces bit-identical loss/error trajectories
        because every worker seeds independently from its spec.
    max_workers:
        Worker-fleet size (default: ``min(len(methods), cpu_count)``).
    workers_external:
        Queue backend only: do not spawn a local worker fleet — jobs wait
        for separately launched ``repro worker`` processes.
    seed:
        Run seed shared by all methods (default ``config.seed`` — the
        paper's fair-comparison invariant: identical initialisation).
    steps:
        Optimizer steps per method (default ``config.steps``).
    config:
        Problem config; defaults to the registered factory at ``scale``.
    validators:
        Validator override shared by every method (``[]`` skips validation
        entirely; ``None`` builds the problem's defaults per worker).  With
        non-serial backends custom validator objects must be picklable.
    store:
        Optional :class:`repro.store.RunStore` (or root path).  Every
        method — including each pool/queue worker — records its own
        durable run into the store; :attr:`MethodResult.run_id` names it.
        Required by the queue backend (its job records live in the store).
    compile:
        Train every cell with record-once/replay-many tape execution
        (bit-identical to eager; automatic per-cell eager fallback).
    trace:
        Record :mod:`repro.obs` spans/metrics.  Each cell traces itself
        (workers ship the data back with their results), the sweep adopts
        every cell under a ``suite.cell`` span, and the merged export lands
        on :attr:`SuiteResult.obs`; per-run records additionally stream
        ``spans.jsonl``/``metrics.jsonl`` when ``store`` is given.

    Returns
    -------
    :class:`SuiteResult` with methods in spec order regardless of
    completion order.

    Examples
    --------
    >>> from repro.experiments import run_suite
    >>> suite = run_suite("burgers", ["uniform", "sgm"], backend="serial",
    ...                   scale="smoke", steps=3, validators=[])
    >>> suite.labels
    ['U32', 'SGM32']
    >>> sorted(suite.histories())
    ['SGM32', 'U32']
    """
    from .matrix import run_matrix
    matrix = run_matrix(
        [problem], methods, backend=backend, max_workers=max_workers,
        workers_external=workers_external, seed=seed, steps=steps,
        scale=scale, configs=None if config is None else {problem: config},
        validators=validators, verbose=verbose, store=store,
        checkpoint_every=checkpoint_every, compile=compile, trace=trace)
    (suite,) = matrix.suites.values()
    return replace(suite, total_seconds=matrix.total_seconds, obs=matrix.obs)

"""The problem-agnostic training engine and the fluent :class:`Session`.

``run_problem`` is the single place networks, optimizers, samplers, and the
trainer are wired together; everything is derived from the
:class:`~repro.api.Problem` (input/output widths, probe coordinates) and
the config (architecture, schedules, SGM hyper-parameters) rather than
hardcoded per workload.  ``train_run`` is the one lifecycle every training
run goes through — serial runs, suite cells, and each data-parallel rank:
record, trace, train, finish.

:class:`Session` is the fluent front door::

    import repro
    result = repro.problem("burgers").sampler("sgm").train(steps=500)
"""

from __future__ import annotations

import dataclasses
from contextlib import ExitStack

import numpy as np

from .. import obs
from ..nn import Adam, ExponentialDecayLR, FullyConnected
from ..training import Trainer
from ..utils import TrainingClock
from .problems import build_problem
from .registry import problem_registry, sampler_registry
from .samplers import make_sampler
from .types import RunResult, SamplerStats

__all__ = ["Session", "problem", "run_problem"]


def _wire_replica(prob, config, batch_size, validators):
    """``(net, optimizer, scheduler, validators)`` for one model replica.

    Everything is derived deterministically from ``(prob, config)``:
    identical inputs wire identical networks, optimizers, and validators,
    which is what makes checkpoint-resume bit-identical and keeps every
    data-parallel rank's replica in lockstep.  ``validators=None`` selects
    the problem's defaults.
    """
    for constraint in prob.constraints:
        if constraint.name == "interior":
            constraint.batch_size = batch_size
        else:
            constraint.batch_size = max(16, batch_size // 4)

    dtype = np.dtype(config.network.dtype)
    for constraint in prob.constraints:
        constraint.set_dtype(dtype)

    net = FullyConnected(prob.in_features, prob.out_features,
                         width=config.network.width,
                         depth=config.network.depth,
                         activation=config.network.activation,
                         rng=np.random.default_rng(config.seed),
                         dtype=dtype)
    # inverse problems train extra modules (PDE coefficients) jointly: their
    # parameters join the optimizer in the problem's registration order,
    # which also fixes the optimizer-state layout checkpoints restore
    optimizer = Adam(net.parameters() + prob.extra_parameters, lr=config.lr)
    scheduler = ExponentialDecayLR(optimizer,
                                   decay_rate=config.lr_decay_rate,
                                   decay_steps=config.lr_decay_steps)
    if validators is None:
        validators = prob.make_validators(np.random.default_rng(config.seed))
    return net, optimizer, scheduler, validators


def _wire_training(prob, config, sampler, batch_size, seed, validators):
    """Assemble the trainer for one run (shared by fresh runs and resumes)."""
    net, optimizer, scheduler, validators = _wire_replica(
        prob, config, batch_size, validators)
    sampler_obj = make_sampler(sampler, config, prob.interior_cloud, seed)
    trainer = Trainer(net, prob.constraints, optimizer, scheduler=scheduler,
                      samplers={"interior": sampler_obj},
                      validators=validators,
                      extra_modules=prob.extra_modules, seed=seed)
    return trainer, sampler_obj


def run_problem(prob, config, sampler="uniform", batch_size=None,
                seed=None, steps=None, label=None, validators=None,
                store=None, run_id=None, checkpoint_every=None,
                resume=False, step_hooks=(), compile=False, trace=False):
    """Train one :class:`Problem` with a registered sampler.

    Parameters
    ----------
    prob:
        A built :class:`~repro.api.Problem`.
    config:
        The problem's config dataclass (network/optimizer/sampler block).
    sampler:
        Sampler-registry key (``uniform``/``mis``/``sgm``/``sgm_s``/...).
    batch_size:
        Interior batch size; boundary constraints get a quarter each
        (Modulus assigns smaller batches to BC constraints).  Defaults to
        ``config.batch_small``.
    validators:
        Override the problem's validator factory (pass ``[]`` to skip
        validation entirely).
    store:
        Optional :class:`~repro.store.RunStore` (or store root path).  When
        given, the run persists a durable record: resolved config, streamed
        loss/error history (append-only JSONL), periodic full-state
        checkpoints every ``checkpoint_every`` steps, and final sampler
        statistics.  The returned result carries the record's ``run_id``.
    run_id:
        Explicit record id (default: generated from problem/sampler/time).
    resume:
        Continue the existing record ``run_id`` from its newest checkpoint
        instead of starting fresh (used by :func:`repro.store.resume_run`).
    step_hooks:
        Extra per-step callbacks forwarded to the trainer (testing /
        instrumentation).
    compile:
        Trace the first optimizer steps and replay a compiled tape for the
        rest (see :meth:`repro.training.Trainer.train`); loss/error
        trajectories stay bit-identical to eager execution, and any graph
        the replay engine refuses falls back to eager automatically.
    trace:
        Install a fresh :mod:`repro.obs` tracer around this run.  Spans
        and metric snapshots are returned on ``RunResult.obs`` and — when
        ``store`` is given — streamed to ``spans.jsonl`` /
        ``metrics.jsonl`` beside the record's ``history.jsonl`` (appended
        on resume), for ``repro runs profile``.  Loss/error trajectories
        are unaffected: spans never touch RNG or numerics.

    Returns
    -------
    :class:`~repro.api.RunResult`
    """
    seed = config.seed if seed is None else seed
    batch_size = config.batch_small if batch_size is None else batch_size
    steps = config.steps if steps is None else steps
    label = label if label is not None else f"{prob.name}:{sampler}"
    trainer, _ = _wire_training(prob, config, sampler, batch_size, seed,
                                validators)
    return train_run(
        trainer, prob, config, sampler=sampler, seed=seed, steps=steps,
        label=label, batch_size=batch_size,
        validators=("default" if validators is None
                    else ("none" if len(validators) == 0 else "custom")),
        store=store, run_id=run_id, resume=resume,
        checkpoint_every=checkpoint_every, step_hooks=step_hooks,
        compile=compile, trace=trace)


def train_run(trainer, prob, config, *, sampler, seed, steps, label,
              batch_size, validators="default", store=None, run_id=None,
              resume=False, checkpoint_every=None, step_hooks=(),
              compile=False, trace=False):
    """The lifecycle of every training run, serial or data-parallel.

    In order: refuse a zero recording cadence (before any record opens),
    open (or, with ``resume``, re-open) the ``store`` record,
    stream the history into it, install the per-run tracer, call
    ``trainer.train`` once, then mark the record stopped if training
    raised or finish it otherwise, and return the
    :class:`~repro.api.RunResult`.  A data-parallel rank is told apart by
    ``trainer.dp``: its record carries the shard and rank counts and
    writes no checkpoints.  ``validators`` is the recorded validator mode
    (``default``/``none``/``custom``); the other arguments are
    :func:`run_problem`'s, resolved.
    """
    Trainer.check_cadence(config.validate_every, config.record_every)
    dp = trainer.dp
    recorder = history = clock = last_errors = None
    start_step = 0
    hooks = list(step_hooks)
    if store is not None:
        from ..store import RunStore
        store = RunStore.coerce(store)
        if resume:
            recorder = store.resume_recorder(run_id, steps=steps,
                                             checkpoint_every=checkpoint_every)
            restored = recorder.load_latest_checkpoint(trainer)
            if restored is not None:
                ckpt_step, elapsed, last_errors = restored
                start_step = ckpt_step + 1
                clock = TrainingClock(offset=elapsed)
            history = recorder.streaming_history(
                label, resume_from_step=start_step)
        else:
            recorder = store.begin_run(
                problem=prob.name, config=config, sampler=sampler,
                seed=seed, steps=steps, label=label,
                n_interior=len(prob.interior_cloud), batch_size=batch_size,
                validators=validators, run_id=run_id,
                checkpoint_every=checkpoint_every,
                dp_shards=None if dp is None else dp.n_shards,
                world_size=1 if dp is None else dp.world_size)
            history = recorder.streaming_history(label)
        if dp is None:
            hooks.append(recorder.checkpoint_hook(trainer))

    run_tracer = None
    with ExitStack() as stack:
        if trace:
            # a fresh per-run tracer, even when an ambient (suite/matrix)
            # tracer is installed: the suite adopts the exported spans
            # afterwards, identically for every execution backend
            stream = metrics_stream = None
            if recorder is not None:
                stream = recorder.path / "spans.jsonl"
                metrics_stream = recorder.path / "metrics.jsonl"
            run_tracer = stack.enter_context(
                obs.tracing(stream=stream, metrics_stream=metrics_stream))
        try:
            history = trainer.train(steps,
                                    validate_every=config.validate_every,
                                    record_every=config.record_every,
                                    label=label, clock=clock,
                                    start_step=start_step, history=history,
                                    last_errors=last_errors,
                                    step_hooks=hooks, compile=compile)
        except BaseException as exc:
            if recorder is not None:
                recorder.mark_stopped(exc)
            raise
    stats = _sampler_stats(trainer, sampler)
    if recorder is not None:
        recorder.finish(history, stats)
    coefficients = {name: module.value()
                    for name, module in prob.extra_modules.items()
                    if hasattr(module, "value")}
    return RunResult(label=label, history=history, net=trainer.net,
                     sampler=(trainer.samplers["interior"] if dp is None
                              else stats),
                     config=config,
                     run_id=None if recorder is None else recorder.run_id,
                     coefficients=coefficients,
                     obs=None if run_tracer is None else run_tracer.export())


def _sampler_stats(trainer, sampler):
    """The run's :class:`SamplerStats`.

    A data-parallel rank reports the exact global ``probe_points`` of the
    last allreduce and one hosted interior shard's labels and counts:
    every shard refreshes and rebuilds in lockstep from one plan, so they
    match a serial run's at any world size.
    """
    dp = trainer.dp
    if dp is None:
        return SamplerStats.of(trainer.samplers["interior"])
    interior = next(shard_sampler for (name, _), shard_sampler
                    in dp.shard_samplers.items() if name == "interior")
    return SamplerStats.of(interior, name=f"dp:{sampler}",
                           probe_points=trainer.total_probe_points(),
                           n_shards=dp.n_shards, world_size=dp.world_size)


class Session:
    """Fluent builder for one training run on a registered problem.

    Every setter returns ``self`` so calls chain; :meth:`train` builds the
    problem, wires the engine, and returns a
    :class:`~repro.api.RunResult`.  :meth:`suite` and :meth:`matrix` fan
    the same settings out over sampler sweeps and problems × samplers
    grids.

    Parameters
    ----------
    name : str
        A problem-registry key (``repro problems`` lists them).
    scale : str, optional
        Config scale preset: ``"repro"`` (default), ``"smoke"`` (CI-sized),
        or ``"paper"`` where defined.
    config : dataclass, optional
        A ready-made config replacing the registered factory's output.

    See Also
    --------
    repro.problem : the usual entry point returning a ``Session``.
    repro.experiments.run_suite : the functional sweep engine.

    Examples
    --------
    >>> import repro
    >>> result = (repro.problem("burgers", scale="smoke")
    ...           .sampler("uniform")
    ...           .n_interior(200)
    ...           .validators([])
    ...           .train(steps=2))
    >>> len(result.history.losses)
    2
    """

    def __init__(self, name, scale="repro", config=None):
        self._entry = problem_registry.get(name)
        self._scale = scale
        self._config = (config if config is not None
                        else self._entry.config_factory(scale))
        self._sampler = "uniform"
        self._seed = None
        self._n_interior = None
        self._batch_size = None
        self._steps = None
        self._validators = None
        self._compile = False
        self._trace = False

    # ------------------------------------------------------------------
    @property
    def name(self):
        """The registered problem name."""
        return self._entry.name

    def sampler(self, kind):
        """Choose the mini-batch sampler by registry key."""
        sampler_registry.get(kind)   # fail fast on unknown keys
        self._sampler = kind
        return self

    def scale(self, scale):
        """Switch to another config scale preset (rebuilds the config)."""
        self._config = self._entry.config_factory(scale)
        self._scale = scale
        return self

    def config(self, config=None, **overrides):
        """Replace the config, or override individual dataclass fields."""
        if config is not None:
            self._config = config
        if overrides:
            self._config = dataclasses.replace(self._config, **overrides)
        return self

    def seed(self, seed):
        """Set the run seed (defaults to ``config.seed``)."""
        self._seed = int(seed)
        return self

    def n_interior(self, n):
        """Interior dataset size (defaults to ``config.n_interior_small``)."""
        self._n_interior = int(n)
        return self

    def batch_size(self, n):
        """Interior batch size (defaults to ``config.batch_small``)."""
        self._batch_size = int(n)
        return self

    def steps(self, n):
        """Default number of optimizer steps for :meth:`train`."""
        self._steps = int(n)
        return self

    def validators(self, validators):
        """Override validators (pass ``[]`` to skip validation)."""
        self._validators = list(validators)
        return self

    def compile(self, enabled=True):
        """Replay a compiled tape after tracing the first steps.

        Bit-identical to eager execution; graphs the replay engine refuses
        fall back to eager automatically (``repro analyze tape`` reports
        readiness per problem).
        """
        self._compile = bool(enabled)
        return self

    def trace(self, enabled=True):
        """Record :mod:`repro.obs` spans/metrics for the run.

        The trained result carries the exported data on ``result.obs``;
        with a ``store`` the record also gains ``spans.jsonl`` /
        ``metrics.jsonl`` for ``repro runs profile``.  Trajectories are
        unaffected (tracing never touches RNG or numerics).
        """
        self._trace = bool(enabled)
        return self

    # ------------------------------------------------------------------
    def build(self, rng=None):
        """Build and return the :class:`~repro.api.Problem` (no training)."""
        seed = self._seed if self._seed is not None else self._config.seed
        rng = rng if rng is not None else np.random.default_rng(seed)
        return build_problem(self.name, self._config, self._n_interior, rng)

    def train(self, steps=None, label=None, store=None, run_id=None,
              checkpoint_every=None, world_size=None, dp_shards=None,
              backend="process"):
        """Build the problem and train it; returns a ``RunResult``.

        Pass ``store`` (a :class:`repro.store.RunStore` or root path) to
        persist the run — streamed history, checkpoints every
        ``checkpoint_every`` steps, and a ``run_id`` for ``repro runs``.

        Pass ``world_size`` to train data-parallel over sharded collocation
        clouds (:func:`repro.dp.run_dp`): the run is split into
        ``dp_shards`` logical shards (default 4) hosted by ``world_size``
        worker ranks on ``backend`` (``process``/``queue``/``thread``).
        The trajectory is bit-identical for every ``world_size`` —
        ``world_size=1`` runs the same sharded step inline.  Data-parallel
        runs do not write checkpoints (no resume support).
        """
        prob_steps = steps if steps is not None else self._steps
        if world_size is not None:
            from ..dp import run_dp
            if checkpoint_every is not None:
                raise ValueError("data-parallel runs do not write "
                                 "checkpoints (no resume support); drop "
                                 "checkpoint_every")
            return run_dp(
                self.name, self._config, sampler=self._sampler,
                batch_size=self._batch_size, seed=self._seed,
                steps=prob_steps, label=label,
                n_interior=self._n_interior, validators=self._validators,
                store=store, run_id=run_id, world_size=world_size,
                n_shards=dp_shards, backend=backend,
                compile=self._compile, trace=self._trace)
        prob = self.build()
        return run_problem(
            prob, self._config, sampler=self._sampler,
            batch_size=self._batch_size, seed=self._seed,
            steps=prob_steps,
            label=label, validators=self._validators, store=store,
            run_id=run_id, checkpoint_every=checkpoint_every,
            compile=self._compile, trace=self._trace)

    def suite(self, samplers=None, *, backend="serial", max_workers=None,
              workers_external=False, steps=None, verbose=False, store=None,
              checkpoint_every=None):
        """Train a method sweep on this problem; returns a ``SuiteResult``.

        ``samplers`` follows :func:`repro.experiments.resolve_methods`:
        ``None`` sweeps every registered sampler, or pass sampler names /
        ``MethodSpec`` objects.  ``backend="process"`` shards the sweep
        over a process pool, ``"queue"`` feeds a ``repro worker`` fleet
        through the store (default ``"serial"``); the session's
        ``seed``/``n_interior``/``batch_size``/``steps`` overrides apply to
        every method.  With
        ``store`` each method (including each pool/queue worker) writes
        its own durable run record::

            repro.problem("ldc").suite(["uniform", "sgm"],
                                       backend="process", store="runs")
        """
        from ..experiments.suite import resolve_methods, run_suite
        methods = resolve_methods(self._config, samplers,
                                  n_interior=self._n_interior,
                                  batch_size=self._batch_size)
        return run_suite(self.name, methods, backend=backend,
                         max_workers=max_workers,
                         workers_external=workers_external, seed=self._seed,
                         steps=steps if steps is not None else self._steps,
                         config=self._config, validators=self._validators,
                         verbose=verbose, store=store,
                         checkpoint_every=checkpoint_every,
                         compile=self._compile, trace=self._trace)

    def matrix(self, problems=None, samplers=None, *, backend="serial",
               max_workers=None, workers_external=False, steps=None,
               verbose=False, store=None, checkpoint_every=None):
        """Train a cross-problem benchmark matrix; returns a
        ``MatrixResult``.

        The session acts as the settings prototype: its ``scale``,
        ``seed``, ``n_interior``, ``batch_size``, ``steps``, and
        ``validators`` overrides apply to every cell, and its (possibly
        customised) config applies to its own problem; other problems get
        their registered config factory at the session's scale.
        ``problems=None`` sweeps every registered problem; with
        ``backend="process"`` all cells shard over one shared pool
        (default ``"serial"``)::

            repro.problem("ldc", scale="smoke").matrix(
                samplers=["uniform", "sgm"], backend="process",
                store="runs")
        """
        from ..experiments.matrix import run_matrix
        return run_matrix(problems, samplers, backend=backend,
                          max_workers=max_workers,
                          workers_external=workers_external, seed=self._seed,
                          steps=steps if steps is not None else self._steps,
                          scale=self._scale, configs={self.name: self._config},
                          n_interior=self._n_interior,
                          batch_size=self._batch_size,
                          validators=self._validators, verbose=verbose,
                          store=store, checkpoint_every=checkpoint_every,
                          compile=self._compile, trace=self._trace)

    def __repr__(self):
        return (f"Session(problem={self.name!r}, scale={self._scale!r}, "
                f"sampler={self._sampler!r})")


def problem(name, scale="repro", config=None):
    """Open a fluent :class:`Session` on a registered problem.

    This is the library's single entry point for training::

        import repro
        repro.problem("poisson3d").sampler("sgm").train(steps=50)

    ``scale`` defaults to ``"repro"`` — the same preset the config
    factories and :func:`~repro.api.build_problem` default to; pass
    ``scale="smoke"`` for CI-sized runs.
    """
    return Session(name, scale=scale, config=config)

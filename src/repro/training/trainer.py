"""The PINN training loop with sampler integration and honest accounting.

The trainer wires together:

* constraints (interior PDE + boundary conditions) with their samplers;
* probe callbacks the samplers use for importance refreshes (extra forward
  passes are executed here, so their cost lands on the same wall clock the
  figures plot);
* validators evaluated every ``validate_every`` iterations.

Graph rebuilds run synchronously inside the step that triggers them, so
their seconds are charged to the same clock as probes.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..autodiff import gradients
from ..autodiff.introspect import record_tape
from ..autodiff.replay import (
    ReplayRefused, ReplayStale, StepTrace, compile_step,
)
from ..dp.partition import shard_batch_sizes
from ..dp.reduce import payload_nbytes, tree_reduce
from ..sampling import UniformSampler
from ..utils import TrainingClock
from .history import History
from .validators import merge_partial_l2

__all__ = ["Trainer"]


class _ReplayState:
    """Compile-mode bookkeeping: traced steps, compiled program, fallback."""

    __slots__ = ("traces", "program", "disabled", "refusal")

    def __init__(self):
        self.traces = []
        self.program = None
        self.disabled = False
        self.refusal = None


class Trainer:
    """Train a PINN under a set of constraints.

    Parameters
    ----------
    net:
        A :class:`repro.nn.Module` mapping features to output fields.
    constraints:
        Iterable of :class:`repro.training.Constraint`.
    optimizer:
        A :class:`repro.nn.Optimizer` over ``net.parameters()``.
    scheduler:
        Optional LR scheduler with a ``step()`` method.
    samplers:
        Mapping constraint name -> sampler; constraints without an entry use
        a fresh :class:`UniformSampler` (the paper applies importance
        sampling to interior points only).
    validators:
        Iterable of :class:`PointwiseValidator`; their per-variable errors
        are averaged across validators, matching the paper's
        'averaged at r_i = 1.0, 0.88, 0.75'.
    extra_modules:
        Mapping name -> :class:`repro.nn.Module` of extra trainable pieces
        (inverse-problem coefficients) trained jointly with the network;
        the optimizer must have been constructed over ``net.parameters()``
        followed by the modules' parameters, in mapping order.  Checkpoints
        persist each module's ``state_dict`` under its name so resumed
        inverse runs restore the coefficient exactly.
    dp:
        A :class:`repro.dp.DataParallelContext` hosting ``S`` logical
        shards of the run.  Every owned shard's ``1/S``-scaled
        loss/gradient is computed locally, all ``S`` contributions are
        gathered through ``dp.exchange``, tree-reduced in ascending shard
        order, and the identical reduced gradient drives the optimizer on
        every rank.  Mutually exclusive with ``samplers`` (the shard
        samplers live on the context).  Without one the trainer owns a
        single shard (S=1) and issues no exchange.
    """

    def __init__(self, net, constraints, optimizer, scheduler=None,
                 samplers=None, validators=(), extra_modules=None, seed=0,
                 dp=None):
        self.net = net
        self.constraints = list(constraints)
        if not self.constraints:
            raise ValueError("need at least one constraint")
        self.optimizer = optimizer
        self.scheduler = scheduler
        self.validators = list(validators)
        self.extra_modules = dict(extra_modules or {})
        self.params = net.parameters() + [
            param for module in self.extra_modules.values()
            for param in module.parameters()]

        self.dp = dp
        if dp is None:
            samplers = dict(samplers or {})
            self.samplers = {}
            for i, constraint in enumerate(self.constraints):
                sampler = samplers.get(constraint.name)
                if sampler is None:
                    sampler = UniformSampler(constraint.n_points,
                                             seed=seed + i)
                self.samplers[constraint.name] = sampler
            self.n_shards, self.owned = 1, [0]
            self._shard_samplers = {0: self.samplers}
        else:
            if samplers:
                raise ValueError("pass shard samplers on the dp context, "
                                 "not through samplers=")
            self.samplers = {f"{cname}@shard{shard}": sampler
                             for (cname, shard), sampler
                             in sorted(dp.shard_samplers.items())}
            self.n_shards, self.owned = dp.n_shards, list(dp.owned)
            self._shard_samplers = {
                shard: {c.name: dp.shard_samplers[(c.name, shard)]
                        for c in self.constraints}
                for shard in self.owned}
        for by_name in self._shard_samplers.values():
            for constraint in self.constraints:
                self._bind_probes(constraint, by_name[constraint.name])
        #: per-shard replay state machines of the last ``train(compile=True)``
        self.replay_states = {}
        #: probed points as of the last step, summed over all S shards
        self._probe_points = 0

    #: probes evaluate at most this many points per autodiff graph, keeping
    #: peak memory bounded when a sampler probes a large index set at once
    PROBE_CHUNK = 1024

    # ------------------------------------------------------------------
    # Probe callbacks (extra forward passes for importance refreshes)
    # ------------------------------------------------------------------
    def _bind_probes(self, constraint, sampler):
        # the callbacks capture the net and the chunk size, never the
        # trainer: a sampler -> trainer reference would make a cycle that
        # keeps a finished run alive until the next full collection
        net, chunk = self.net, self.PROBE_CHUNK

        def loss_chunk(indices):
            residuals, weight = constraint.residuals(net, indices)
            total = np.zeros((len(indices), 1))
            for tensor in residuals.values():
                total += tensor.numpy().astype(np.float64) ** 2
            if weight is not None:
                total *= weight
            return total.ravel()

        def outputs_chunk(indices):
            fields = constraint.build_fields(net, indices)
            cols = [fields.get(name).numpy() for name in
                    constraint.output_names]
            return np.concatenate(cols, axis=1)

        def grad_norm_chunk(indices):
            fields = constraint.build_fields(net, indices)
            total = np.zeros((len(indices), 1))
            velocity = [v for v in ("u", "v", "w")
                        if v in constraint.output_names]
            if not velocity:   # scalar problems: use the first output
                velocity = [constraint.output_names[0]]
            # derivatives follow the problem's coordinates, so 1-D/3-D and
            # space-time workloads probe the right gradient components
            for var in velocity:
                for coord in constraint.spatial_names:
                    total += fields.d(var, coord).numpy().astype(np.float64) ** 2
            return np.sqrt(total).ravel()

        sampler.bind_probes(
            probe_loss=lambda idx: _chunked(loss_chunk, idx, chunk),
            probe_outputs=lambda idx: _chunked(outputs_chunk, idx, chunk),
            probe_grad_norm=lambda idx: _chunked(grad_norm_chunk, idx, chunk))

    # ------------------------------------------------------------------
    # One optimizer step, split into the batch/weight phase (samplers,
    # probe refreshes, raw numpy — everything the replay engine re-runs
    # eagerly) and the pure graph-building phase (the recorded region).
    # ------------------------------------------------------------------
    def _step_batches(self, step, shard=0):
        """Draw one shard's batch and combined per-sample weights for every
        constraint (indices are global, drawn by the shard's samplers).

        Importance refreshes (probe forward passes) fire inside
        ``batch_indices``, so they stay *outside* the recorded/replayed
        region; ``batch_weights`` is a pure lookup on every sampler.
        Returns ``(batches, weights)`` dicts keyed by constraint name, the
        weight being the final sample×importance product multiplied into
        the loss (or ``None``).
        """
        samplers = self._shard_samplers[shard]
        batches, weights = {}, {}
        for constraint in self.constraints:
            sampler = samplers[constraint.name]
            batch_size = shard_batch_sizes(constraint.batch_size,
                                           self.n_shards)[shard]
            indices = sampler.batch_indices(step, batch_size)
            batches[constraint.name] = indices
            weight = constraint.sample_weight_for(indices)
            importance = sampler.batch_weights(indices)
            if importance is not None:
                # cast to the constraint's working precision, like the sdf
                # weight: float64 importance would upcast a float32 loss
                imp = importance.reshape(-1, 1).astype(constraint.dtype,
                                                       copy=False)
                weight = imp if weight is None else weight * imp
            weights[constraint.name] = weight
        return batches, weights

    def _assemble_loss(self, batches, weights):
        """Build one shard's aggregate loss graph for pre-drawn batches
        (eq. 4).  Under data-parallel training the loss is ``1/S``-scaled
        *inside* the graph, so the allreduce is a pure fixed-order sum and
        compiled tapes carry the scale."""
        total = None
        for constraint in self.constraints:
            residuals, _ = constraint.residuals(self.net,
                                                batches[constraint.name])
            weight = weights[constraint.name]
            for tensor in residuals.values():
                squared = tensor * tensor
                if weight is not None:
                    squared = squared * weight
                term = squared.mean() * constraint.weight
                total = term if total is None else total + term
        if self.dp is not None:
            total = total * self.dp.loss_scale
        return total

    def _step_loss(self, step):
        batches, weights = self._step_batches(step)
        return self._assemble_loss(batches, weights)

    # ------------------------------------------------------------------
    # Record-once/replay-many execution (``train(compile=True)``)
    # ------------------------------------------------------------------
    #: consecutive training steps traced before compiling a replay program
    TRACE_STEPS = 2

    def _replay_externals(self, batches):
        """Flat per-step input-array list, in recorded creation order."""
        arrays = []
        for constraint in self.constraints:
            arrays.extend(constraint.replay_inputs(batches[constraint.name]))
        return arrays

    def _weight_list(self, weights):
        return [weights[c.name] for c in self.constraints]

    def _step(self, step):
        """One optimizer step over every shard this trainer owns.

        A single shard's gradient drives the optimizer directly; with a dp
        context all ``S`` shard contributions are allreduced first.
        """
        if self.dp is None:
            loss, grads, self._probe_points = self._shard_step(step, 0)
        else:
            local = {}
            for shard in self.owned:
                with obs.span("dp.shard", shard=shard):
                    loss, grads, probed = self._shard_step(step, shard)
                    local[shard] = {"loss": _array(loss),
                                    "grads": [_array(g) for g in grads],
                                    "probe_points": probed}
            reduced = self._allreduce(step, "grad", local)
            loss, grads = reduced["loss"], reduced["grads"]
            self._probe_points = reduced["probe_points"]
        with obs.span("train.optimizer"):
            self.optimizer.step(grads)
            if self.scheduler is not None:
                self.scheduler.step()
        return float(_array(loss).item())

    def _shard_step(self, step, shard):
        """One shard's ``(loss, grads, probe points)``: eager, traced, or
        replayed."""
        with obs.span("train.sample"):
            batches, weights = self._step_batches(step, shard)
            probed = self._shard_probe_points(shard)
        return (*self._shard_grads(shard, batches, weights), probed)

    def _shard_grads(self, shard, batches, weights):
        """One shard's ``(loss, grads)`` for pre-drawn batches."""
        replay = self.replay_states.get(shard)
        if replay is not None and replay.program is not None:
            try:
                with obs.span("train.replay"):
                    return replay.program.run(
                        self._replay_externals(batches),
                        self._weight_list(weights))
            except ReplayStale as exc:
                # a retrace-invalidating change (batch size, dtype, weight
                # layout) — permanently fall back to eager execution rather
                # than replaying a wrong graph
                replay.program = None
                replay.disabled = True
                replay.refusal = f"stale tape: {exc}"
                obs.inc("replay.fallback_stale")
        if replay is not None and not replay.disabled:
            return self._traced_step(replay, batches, weights)
        with obs.span("train.forward"):
            loss = self._assemble_loss(batches, weights)
        with obs.span("train.backward"):
            grads = [g.data for g in gradients(loss, self.params)]
            # keep plain arrays only, so the step's graph is released
            # inside a timed phase rather than after it
            loss = loss.data
        return loss, grads

    def _traced_step(self, replay, batches, weights):
        """One eager shard step recorded with provenance; compile after
        :attr:`TRACE_STEPS` of them."""
        param_data = [p.data.copy() for p in self.params]
        with record_tape(provenance=True) as tape:
            with obs.span("train.forward"):
                loss = self._assemble_loss(batches, weights)
            with obs.span("train.backward"):
                grads = gradients(loss, self.params)
        mismatch = self._verify_replay_externals(tape, batches)
        if mismatch is not None:
            replay.disabled = True
            replay.refusal = mismatch
            replay.traces = []
            return loss, grads
        replay.traces.append(StepTrace(tape, loss, grads, param_data,
                                       self._weight_list(weights)))
        if len(replay.traces) == self.TRACE_STEPS:
            try:
                with obs.timed_span("replay.compile") as compile_timer:
                    replay.program = compile_step(replay.traces[0],
                                                  replay.traces[1],
                                                  self.params)
            except ReplayRefused as exc:
                replay.disabled = True
                replay.refusal = str(exc)
                obs.inc("replay.fallback_refused")
            else:
                obs.inc("replay.compile_count")
                obs.inc("replay.compile_seconds", compile_timer.seconds)
                if obs.enabled():
                    stats = replay.program.stats
                    obs.gauge("replay.instructions", stats["instructions"])
                    obs.gauge("replay.cse_hits", stats["cse_hits"])
                    obs.gauge("replay.dead_pruned", stats["dead"])
                    obs.gauge("replay.baked_constants", stats["baked"])
            replay.traces = []
        return loss, grads

    def _verify_replay_externals(self, tape, batches):
        """Check ``replay_inputs`` mirrors the recorded externals bitwise.

        The per-step input arrays the constraints rebuild for replay must
        match — in count, order, and bytes — the tensors the traced step
        actually wrapped; any drift between the two code paths disables
        compilation instead of feeding a compiled tape wrong inputs.
        """
        arrays = self._replay_externals(batches)
        if len(arrays) != len(tape.externals):
            return (f"replay_inputs rebuilt {len(arrays)} arrays but the "
                    f"traced step created {len(tape.externals)} input "
                    f"tensors")
        for position, (array, tensor) in enumerate(zip(arrays,
                                                       tape.externals)):
            array = np.asarray(array)
            if (array.shape != tensor.data.shape
                    or array.dtype != tensor.data.dtype
                    or array.tobytes() != tensor.data.tobytes()):
                return (f"replay input {position} diverges from the traced "
                        f"step's tensor (shape {array.shape} vs "
                        f"{tensor.data.shape})")
        return None

    # ------------------------------------------------------------------
    # Data-parallel reduction over all S shards
    # ------------------------------------------------------------------
    def _allreduce(self, step, phase, local):
        """Gather all shard contributions and tree-reduce them in ascending
        shard order — the fixed schedule making the sum bit-identical for
        every worker count, backend, and arrival order."""
        dp = self.dp
        with obs.span("dp.allreduce", step=step, phase=phase):
            gathered = dp.exchange.exchange(step, phase, local)
            contributions = [gathered[s] for s in range(dp.n_shards)]
            reduced = tree_reduce(contributions)
            obs.inc("dp.bytes_reduced",
                    sum(payload_nbytes(p) for p in contributions))
            obs.inc("dp.allreduce_rounds")
        return reduced

    def _sharded_validate(self, step):
        """Validation with pointwise sums sharded over the same shards.

        Validators without ``evaluate_partial`` are evaluated fully on every
        rank — replicas are in lockstep, so all ranks get identical values
        without an exchange.  When no validator shards, the whole pass is
        local and no rendezvous round is issued.
        """
        dp = self.dp
        partial = {}
        if dp.validator_rows:
            local = {}
            for shard in self.owned:
                per_val = {
                    vi: self.validators[vi].evaluate_partial(
                        self.net, rows[shard])
                    for vi, rows in dp.validator_rows.items()}
                local[shard] = {"validators": per_val}
            partial = self._allreduce(step, "val", local).get(
                "validators", {})
        return _average_errors(
            {var: merge_partial_l2(num, den)
             for var, (num, den) in partial[vi].items()}
            if vi in partial else validator.evaluate(self.net)
            for vi, validator in enumerate(self.validators))

    # ------------------------------------------------------------------
    def compile_info(self):
        """Execution-mode summary of the last ``train`` call (diagnostics).

        One of ``"eager"``, ``"tracing"``, ``"replay"`` or
        ``"eager (refused: ...)"`` / ``"eager (stale: ...)"`` when the
        compile attempt fell back.  When the owned shards' replays
        disagree, each shard's mode is reported.
        """
        if not self.replay_states:
            return "eager"
        modes = {shard: self._replay_mode(state)
                 for shard, state in sorted(self.replay_states.items())}
        if len(set(modes.values())) == 1:
            return next(iter(modes.values()))
        return "; ".join(f"shard{s}: {m}" for s, m in modes.items())

    @staticmethod
    def _replay_mode(replay):
        if replay.program is not None:
            return "replay"
        if replay.disabled:
            return f"eager (refused: {replay.refusal})"
        return "tracing"

    def validate(self):
        """Average each variable's relative L2 across validators."""
        return _average_errors(validator.evaluate(self.net)
                               for validator in self.validators)

    def total_probe_points(self):
        """Probed points across all shards' samplers as of the last step
        (overhead metric of §3.6) — under data-parallel training the global
        total from the allreduce, identical on every rank."""
        return self._probe_points

    def _shard_probe_points(self, shard):
        """Cumulative probed points of one shard's samplers."""
        return int(sum(s.probe_points
                       for s in self._shard_samplers[shard].values()))

    # ------------------------------------------------------------------
    @staticmethod
    def check_cadence(validate_every, record_every):
        """Refuse a validation or recording cadence below one step."""
        for name, every in (("validate_every", validate_every),
                            ("record_every", record_every)):
            if every < 1:
                raise ValueError(f"{name} must be >= 1, got {every}")

    def train(self, steps, validate_every=200, record_every=50, label="run",
              clock=None, start_step=0, history=None, last_errors=None,
              step_hooks=(), compile=False):
        """Run optimizer iterations ``start_step .. steps-1``; return history.

        Parameters beyond the recording cadence support resumable runs:

        start_step:
            First iteration to execute.  When non-zero the samplers are NOT
            ``start()``-ed (their graphs/epochs are expected to have been
            restored from a checkpoint), so the loop continues bit-identically
            to an uninterrupted run.
        history:
            A :class:`History` to append to (e.g. one reloaded from a run
            store, or a streaming subclass); a fresh one is created when
            omitted.
        last_errors:
            The validation errors in effect at ``start_step`` (restored from
            the checkpoint), recorded until the next validation boundary.
        step_hooks:
            Callables invoked as ``hook(step=, trainer=, clock=, errors=)``
            after each completed iteration (and its recording) — the run
            store uses this to write periodic checkpoints.
        compile:
            Record the first :attr:`TRACE_STEPS` iterations' autodiff tapes
            and compile them into a
            :class:`~repro.autodiff.replay.ReplayProgram`; every later step
            replays the compiled tape bit-identically.  Falls back to eager
            execution — permanently, with the reason kept on
            :meth:`compile_info` — if the graph refuses to compile or a
            retrace-invalidating change (batch size, dtype, weight layout)
            is detected mid-run.
        """
        history = history if history is not None else History(label=label)
        clock = clock if clock is not None else TrainingClock()
        self.check_cadence(validate_every, record_every)
        if self.dp is not None:
            if start_step != 0:
                raise ValueError("data-parallel training does not support "
                                 "checkpoint resume (start_step must be 0)")
            if obs.enabled():
                obs.gauge("dp.shards", self.dp.n_shards)
        if start_step == 0:
            for sampler in self.samplers.values():
                sampler.start()

        self.replay_states = ({shard: _ReplayState() for shard in self.owned}
                              if compile else {})
        last_errors = dict(last_errors or {})
        with obs.span("train.run", label=label):
            for step in range(start_step, steps):
                with obs.span("train.step", step=step) as step_span:
                    loss_value = self._step(step)

                    is_last = step == steps - 1
                    if step % validate_every == 0 or is_last:
                        with obs.span("train.validate"):
                            last_errors = (self.validate() if self.dp is None
                                           else self._sharded_validate(step))
                        obs.inc("train.validations")
                    step_span.set(mode=self.compile_info())
                obs.inc("train.steps")
                if step % record_every == 0 or is_last:
                    history.record(step, clock.elapsed(), loss_value,
                                   errors=last_errors,
                                   probe_points=self.total_probe_points())
                    if obs.enabled():
                        obs.gauge("train.loss", loss_value)
                        obs.gauge("clock.train_seconds", clock.elapsed())
                        obs.gauge("sampler.probe_points",
                                  self.total_probe_points())
                        obs.snapshot_metrics(step=step,
                                             wall_time=clock.elapsed())
                for hook in step_hooks:
                    hook(step=step, trainer=self, clock=clock,
                         errors=last_errors)
        return history


def _chunked(fn, indices, chunk):
    """``fn`` over ``indices`` in slices of at most ``chunk`` points."""
    indices = np.asarray(indices)
    if len(indices) <= chunk:
        return fn(indices)
    parts = [fn(indices[i:i + chunk]) for i in range(0, len(indices), chunk)]
    return np.concatenate(parts, axis=0)


def _average_errors(per_validator):
    """Each variable's error averaged across validators."""
    merged = {}
    for errors in per_validator:
        for var, err in errors.items():
            merged.setdefault(var, []).append(err)
    return {var: float(np.mean(vals)) for var, vals in merged.items()}


def _array(value):
    """A loss/gradient as a numpy array (eager steps yield tensors)."""
    return np.asarray(value.numpy() if hasattr(value, "numpy") else value)

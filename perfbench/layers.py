"""Per-layer spans measured from outside the program.

Every layer is timed by wrapping calls into its public functions.  Two
private seams are wrapped where no public entry point exists: the MIS
sampler's ``_refresh`` and the data-parallel rank entry
``repro.dp.runner._train_dp_rank``.  Spans are kept in memory: a stack of open
frames per process, whose *self time* is the span's duration minus the
part of it that spans opened inside it cover.  Nothing inside the program
is edited; the wrappers are installed on classes and modules before the
run wires its trainer and removed again by :meth:`Instrumentation.remove`.

Two groups of wrappers exist.  *Observers* are always installed: they
timestamp the end of set-up (the last ``Sampler.start`` return), the end
of the training loop, every history record (for time-to-target), and the
execution mode a trainer finished in.  *Layers* are installed only for a
traced run and add the per-layer spans and counters.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

__all__ = ["Instrumentation", "Trace"]

#: spans whose wrapped children are not layers of their own: a residual
#: evaluated by a sampler probe is probe work, not training forward work
_PROBE = "sampling.probe"


class Trace:
    """Span stack, per-layer self times, counters and run events.

    Times come from ``clock`` (``time.perf_counter``, a system-wide
    monotonic clock on Linux, so timestamps taken in forked data-parallel
    ranks compare directly with the parent's).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self):
        """Forget everything recorded so far (one call per training run)."""
        self._stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.gauges = {}
        #: clock value when the last ``Sampler.start`` returned
        self.last_start = None
        #: clock value when ``Trainer.train`` returned
        self.train_end = None
        #: ``(clock, step, loss, {var: error})`` per history record
        self.records = []
        #: ``Trainer.compile_info()`` at the end of every ``train`` call
        self.modes = []

    # -- spans ---------------------------------------------------------
    def open(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def close(self):
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def current(self):
        """Name of the innermost open span, or ``None``."""
        return self._stack[-1][0] if self._stack else None

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` runs on
        return, still inside the span's parent."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    # -- export --------------------------------------------------------
    def export(self):
        """Plain picklable snapshot (crosses process boundaries)."""
        return {
            "self_s": dict(self.self_s), "calls": dict(self.calls),
            "counts": dict(self.counts), "gauges": dict(self.gauges),
            "last_start": self.last_start, "train_end": self.train_end,
            "records": list(self.records), "modes": list(self.modes),
            "rss_mb": peak_rss_mb(),
        }


def peak_rss_mb():
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Instrumentation:
    """Install observers (always) and layer wrappers (when ``layers``)."""

    def __init__(self, trace, layers):
        self.trace = trace
        self.layers = bool(layers)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- patch bookkeeping ---------------------------------------------
    def _set(self, owner, name, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, owner, name, make):
        """Replace ``owner.name`` (own attribute only) by ``make(original)``."""
        if name in owner.__dict__:
            self._set(owner, name, make(owner.__dict__[name]))

    def _wrap_function(self, original, make):
        """Replace every ``repro`` module's reference to ``original``."""
        wrapper = make(original)
        for module_name, module in sorted(sys.modules.items()):
            if (module_name.split(".")[0] == "repro" and module is not None
                    and module.__dict__.get(original.__name__) is original):
                self._set(module, original.__name__, wrapper)

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    # -- installation --------------------------------------------------
    def install(self):
        from repro.dp import runner as dp_runner
        from repro.training import History, Trainer

        trace = self.trace

        # observers -----------------------------------------------------
        def make_start(original):
            def start(sampler, *args, **kwargs):
                if self.layers:
                    trace.open("sampling.start")
                try:
                    return original(sampler, *args, **kwargs)
                finally:
                    if self.layers:
                        trace.close()
                    trace.last_start = trace.clock()
            return functools.wraps(original)(start)

        for cls in _sampler_classes():
            self._wrap(cls, "start", make_start)

        def make_record(original):
            def record(history, step, wall_time, loss, errors=None,
                       probe_points=0):
                trace.records.append((trace.clock(), int(step), float(loss),
                                      dict(errors or {})))
                return original(history, step, wall_time, loss,
                                errors=errors, probe_points=probe_points)
            return functools.wraps(original)(record)

        self._wrap(History, "record", make_record)

        def make_train(original):
            def train(trainer, *args, **kwargs):
                if self.layers:
                    trace.open("training.loop")
                try:
                    return original(trainer, *args, **kwargs)
                finally:
                    if self.layers:
                        trace.close()
                    trace.train_end = trace.clock()
                    trace.modes.append(trainer.compile_info())
            return functools.wraps(original)(train)

        self._wrap(Trainer, "train", make_train)

        # data-parallel ranks run in forked children: each one starts from a
        # clean trace and ships its export back inside its result dict
        def make_rank(original):
            def train_rank(spec):
                trace.reset()
                result = original(spec)
                result["perfbench"] = trace.export()
                return result
            return functools.wraps(original)(train_rank)

        self._wrap(dp_runner, "_train_dp_rank", make_rank)

        if self.layers:
            self._instrument()

    def _instrument(self):
        from repro.api.problems import build_problem
        from repro.autodiff.replay import ReplayProgram
        from repro.dp import exchange as dp_exchange
        from repro.dp import samplers as dp_samplers
        from repro.dp.reduce import payload_nbytes
        from repro.nn.optim import Optimizer
        from repro.sampling import MISSampler, SGMSampler, sgm
        from repro.sampling.base import Sampler
        from repro.store.run_store import RunRecorder
        from repro.training import PointwiseValidator, Trainer, constraints
        from repro.training import trainer as trainer_module
        from repro.utils.timing import TrainingClock

        trace = self.trace
        span = trace.timed

        def count(name, amount=1):
            trace.counts[name] += amount

        self._wrap_function(build_problem,
                            lambda f: span("api.build_problem", f))

        # sampling: batches, refreshes, trainer-bound probe callbacks
        def make_batch(original):
            def batch_indices(sampler, step, batch_size):
                outer = not trace.inside("sampling.batch")
                trace.open("sampling.batch")
                try:
                    batch = original(sampler, step, batch_size)
                finally:
                    trace.close()
                if outer:
                    count("sampling.samples", len(batch))
                return batch
            return functools.wraps(original)(batch_indices)

        for cls in _sampler_classes():
            self._wrap(cls, "batch_indices", make_batch)
        # MIS refreshes through a private method: the sampler layer has no
        # public refresh entry point for it
        for cls, name in ((SGMSampler, "refresh_scores"),
                          (dp_samplers.ShardSGMSampler, "refresh_scores"),
                          (MISSampler, "_refresh")):
            self._wrap(cls, name, lambda f: span("sampling.refresh", f))

        def probe(callback):
            def probed(indices):
                count("sampling.probe_points", len(indices))
                trace.open(_PROBE)
                try:
                    return callback(indices)
                finally:
                    trace.close()
            return probed

        def make_bind(original):
            def bind_probes(sampler, probe_loss=None, probe_outputs=None,
                            probe_grad_norm=None):
                return original(
                    sampler,
                    *(None if cb is None else probe(cb)
                      for cb in (probe_loss, probe_outputs, probe_grad_norm)))
            return functools.wraps(original)(bind_probes)

        self._wrap(Sampler, "bind_probes", make_bind)

        # graph + stability, at the sampler modules' call sites (SPADE's own
        # kNN stays inside the stability span)
        def clusters(result, args, kwargs):
            trace.gauges["graph.clusters"] = len(set(result.labels.tolist()))

        for module in (sgm, dp_samplers):
            self._wrap(module, "knn_adjacency",
                       lambda f: span("graph.knn", f))
            self._wrap(module, "lrd_decompose",
                       lambda f: span("graph.lrd", f, after=clusters))
        self._wrap(sgm, "spade_scores", lambda f: span("stability.spade", f))

        # autodiff: training forward (residuals), backward, replay, compile
        def make_residuals(original):
            forward = span("autodiff.forward", original)

            def residuals(constraint, net, indices):
                if trace.current() == _PROBE:
                    return original(constraint, net, indices)
                return forward(constraint, net, indices)
            return functools.wraps(original)(residuals)

        for cls in _subclasses(constraints.Constraint):
            self._wrap(cls, "residuals", make_residuals)
        self._wrap(trainer_module, "gradients",
                   lambda f: span("autodiff.backward", f))
        self._wrap(trainer_module, "compile_step",
                   lambda f: span("autodiff.compile", f))
        self._wrap(ReplayProgram, "run", lambda f: span("autodiff.replay", f))

        # nn + training
        self._wrap(Optimizer, "step", lambda f: span("nn.optimizer", f))
        self._wrap(Trainer, "validate", lambda f: span(
            "training.validate", f,
            after=lambda *_: count("training.validations")))
        self._wrap(PointwiseValidator, "evaluate_partial",
                   lambda f: span("training.validate", f))

        def make_credit(original):
            def credit(clock, seconds):
                count("training.credited_s", float(seconds))
                return original(clock, seconds)
            return functools.wraps(original)(credit)

        self._wrap(TrainingClock, "credit", make_credit)

        # store: checkpoints and streamed history records
        self._wrap(RunRecorder, "save_checkpoint",
                   lambda f: span("store.checkpoint", f))

        def make_streaming(original):
            def streaming_history(recorder, *args, **kwargs):
                history = original(recorder, *args, **kwargs)
                history.record = span("store.record", history.record)
                return history
            return functools.wraps(original)(streaming_history)

        self._wrap(RunRecorder, "streaming_history", make_streaming)

        # dp: exchange rounds (including straggler waits) and the reduction
        def exchanged(result, args, kwargs):
            _, _, phase, local = args
            count("dp.rounds")
            count("dp.bytes", sum(payload_nbytes(p) for p in local.values()))
            if phase == "val":
                count("training.validations")

        for cls in (dp_exchange.StoreExchange, dp_exchange.LocalExchange):
            self._wrap(cls, "exchange",
                       lambda f: span("dp.exchange", f, after=exchanged))
        self._wrap(trainer_module, "tree_reduce",
                   lambda f: span("dp.reduce", f))


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _subclasses(sub) if c not in found)
    return found


def _sampler_classes():
    from repro.dp.samplers import ShardSampler
    from repro.sampling.base import Sampler
    # ShardSampler wraps a Sampler without subclassing it
    return _subclasses(Sampler) + [ShardSampler]

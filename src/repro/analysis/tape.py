"""Tape-graph static analyzer: shape/dtype checking + compile-readiness.

This engine traces **one real training step** of a registered problem —
exactly the graph :meth:`Trainer._step_loss` builds, through the same wiring
``Session.run`` uses — and then analyses the recorded tape statically:

* **shape/dtype verification**: every recorded op is re-checked against a
  per-primitive inference rule (broadcast semantics for elementwise ops,
  ``(n, m) @ (m, k)`` for matmul, size preservation for reshape, ...); a
  node whose actual array disagrees with the rule, or whose dtype drifts
  from its parents', is a latent bug the dynamic run silently absorbs;
* **dead nodes**: tensors built during the step but unreachable from the
  loss — work a recorded tape would simply not replay;
* **re-materialized constants**: constant leaves with identical contents in
  two consecutive steps' tapes (scalar coercions, re-built masks); a
  compiled tape hoists these out of the step loop;
* **duplicate subgraphs**: structurally identical computations performed
  more than once within one step (same op, same inputs), i.e. common
  subexpressions a record-once/replay-many representation would share.

The per-problem report is the gating artifact for the record-once/
replay-many engine in :mod:`repro.autodiff.replay`: it quantifies, per
problem, exactly the waste a compiled tape eliminates, its empty
``shape_issues`` list is the invariant the compiler's shape gate enforces
(a shape-inconsistent graph is refused, not compiled), and the
``replay_ready`` field reports whether an actual compile of the problem's
step succeeds — including the compiler's own bit-identical
self-verification against two recorded traces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ..autodiff import gradients
from ..autodiff.introspect import iter_graph, op_name, record_tape

__all__ = ["TapeReport", "analyze_tape", "trace_training_step"]


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def trace_training_step(problem, *, sampler="uniform", scale="smoke",
                        n_interior=64, batch_size=16, seed=0, step=0,
                        _wired=None):
    """Record the autodiff tape of one training step of ``problem``.

    Builds the registered problem at the ``smoke`` scale preset, wires the
    exact trainer ``Session.run`` would use (validators skipped — reference
    solvers are irrelevant to graph structure), and records every tensor
    created while building the step-``step`` loss.

    Returns ``(tape, loss, trainer)``.  The tape covers the **forward**
    graph only; gradients are taken afterwards by the analyzer so forward
    structure and backward correctness are reported separately.
    """
    if _wired is None:
        _wired = _wire_problem(problem, sampler=sampler, scale=scale,
                               n_interior=n_interior, batch_size=batch_size,
                               seed=seed)
    trainer, _ = _wired
    with record_tape() as tape:
        loss = trainer._step_loss(step)
    return tape, loss, trainer


def _wire_problem(problem, *, sampler, scale, n_interior, batch_size, seed):
    """Problem name -> ``(trainer, sampler_obj)`` with started samplers."""
    # imported lazily: analysis of source files must not drag in the full
    # experiment stack, only tape tracing needs it
    from ..api.problems import build_problem
    from ..api.registry import problem_registry
    from ..api.session import _wire_training

    entry = problem_registry.get(problem)
    config = entry.config_factory(scale)
    prob = build_problem(problem, config, n_interior,
                         np.random.default_rng(config.seed))
    trainer, sampler_obj = _wire_training(prob, config, sampler, batch_size,
                                          seed, validators=[])
    for obj in trainer.samplers.values():
        obj.start()
    return trainer, sampler_obj


# ----------------------------------------------------------------------
# Shape/dtype inference rules
# ----------------------------------------------------------------------
_ELEMENTWISE_BINARY = frozenset({
    "add", "sub", "mul", "div", "power", "maximum", "minimum",
})
_ELEMENTWISE_UNARY = frozenset({
    "neg", "exp", "log", "sqrt", "square", "sin", "cos", "tanh", "sigmoid",
    "silu", "relu", "softplus", "absolute",
})
#: ops whose output shape depends on closure-captured arguments (axis,
#: index, target shape) we cannot see statically; they get the weaker
#: size/dtype checks below instead of an exact shape rule
_DATA_DEPENDENT = frozenset({"getitem", "_scatter"})


def _broadcast_shapes(shapes):
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        return None


def _expected_shape(name, node, parent_shapes):
    """Inferred output shape, or ``None`` when the rule cannot decide."""
    actual = node.data.shape
    if name in _ELEMENTWISE_BINARY or name == "where":
        return _broadcast_shapes(parent_shapes)
    if name in _ELEMENTWISE_UNARY or name in ("zeros_like", "ones_like"):
        return parent_shapes[0]
    if name == "matmul":
        (n, m), (m2, k) = parent_shapes
        return (n, k) if m == m2 else None
    if name == "reshape":
        size = int(np.prod(parent_shapes[0], dtype=np.int64))
        return actual if int(np.prod(actual, dtype=np.int64)) == size else None
    if name == "transpose":
        return actual if sorted(actual) == sorted(parent_shapes[0]) else None
    if name == "broadcast_to":
        merged = _broadcast_shapes([parent_shapes[0], actual])
        return actual if merged == actual else None
    if name == "concat":
        total = sum(int(np.prod(s, dtype=np.int64)) for s in parent_shapes)
        same_rank = all(len(s) == len(actual) for s in parent_shapes)
        ok = same_rank and int(np.prod(actual, dtype=np.int64)) == total
        return actual if ok else None
    if name == "sum_":
        in_size = int(np.prod(parent_shapes[0], dtype=np.int64))
        out_size = int(np.prod(actual, dtype=np.int64))
        divides = out_size != 0 and in_size % out_size == 0
        return actual if divides and out_size <= max(in_size, 1) else None
    return actual   # data-dependent ops: shape accepted, dtype still checked


def _expected_dtype(name, node, parents):
    if not parents:
        return node.data.dtype
    if name in ("zeros_like", "ones_like", "_scatter", "getitem", "reshape",
                "transpose", "broadcast_to", "sum_"):
        return parents[0].data.dtype
    return np.result_type(*[p.data for p in parents])


def _verify_node(node, issues):
    name = op_name(node)
    parents = node._parents
    if not parents:
        return
    parent_shapes = [p.data.shape for p in parents]
    expected = _expected_shape(name, node, parent_shapes)
    if expected is None or tuple(expected) != tuple(node.data.shape):
        issues.append({
            "kind": "shape", "op": name,
            "parents": [list(s) for s in parent_shapes],
            "expected": None if expected is None else list(expected),
            "actual": list(node.data.shape)})
        return
    if name not in _DATA_DEPENDENT:
        want = _expected_dtype(name, node, parents)
        if np.dtype(want) != node.data.dtype:
            issues.append({
                "kind": "dtype", "op": name,
                "parents": [str(p.data.dtype) for p in parents],
                "expected": str(np.dtype(want)),
                "actual": str(node.data.dtype)})


# ----------------------------------------------------------------------
# Graph analyses
# ----------------------------------------------------------------------
def _fingerprint(tensor):
    """Content hash of a constant: (shape, dtype, sha1 of the bytes)."""
    data = np.ascontiguousarray(tensor.data)
    digest = hashlib.sha1(data.tobytes()).hexdigest()[:16]
    return (data.shape, str(data.dtype), digest)


def _structural_hashes(tape, loss):
    """Map structural key -> nodes computing it, within one step's tape.

    Leaves created *before* the step (parameters, input features) hash by
    identity; constants materialized *during* the step hash by content, so
    two re-coercions of the same scalar count as the same input.  Two tape
    nodes sharing a key perform identical work twice.
    """
    created = tape.created_ids()
    tracked = {id(node) for node in tape.nodes}
    keys = {}
    groups = {}
    for node in iter_graph(loss):
        parents = node._parents
        if not parents:
            if id(node) in created:
                key = ("const",) + _fingerprint(node)
            else:
                key = ("leaf", id(node))
        else:
            key = (op_name(node), node.data.shape,
                   tuple(keys[id(p)] for p in parents))
            # keys recurse structurally; collapse to a digest to keep them
            # fixed-size however deep the graph gets
            key = hashlib.sha1(repr(key).encode()).hexdigest()
        keys[id(node)] = key
        if parents and id(node) in tracked:
            groups.setdefault(key, []).append(node)
    return {key: nodes for key, nodes in groups.items() if len(nodes) > 1}


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class TapeReport:
    """Static analysis of one problem's per-step autodiff tape."""

    problem: str
    sampler: str
    n_nodes: int = 0
    n_constants: int = 0
    loss_shape: tuple = ()
    loss_dtype: str = ""
    op_counts: dict = field(default_factory=dict)
    shape_issues: list = field(default_factory=list)
    dead_nodes: int = 0
    dead_by_op: dict = field(default_factory=dict)
    rematerialized_constants: int = 0
    rematerialized_bytes: int = 0
    duplicate_subgraphs: int = 0
    duplicate_nodes: int = 0
    duplicate_ops: dict = field(default_factory=dict)
    gradient_issues: list = field(default_factory=list)
    #: parameters whose gradient arrives wider than the parameter dtype.
    #: Historically the backward masks of ``maximum``/``minimum``/``where``
    #: hardcoded float64 and upcast whole float32 backward passes; the masks
    #: now adopt the operand dtype, so this should be 0 for every problem —
    #: a nonzero count flags a new upcast leaking into the backward pass
    upcast_gradients: int = 0
    #: the loss is wider than the parameters (a float64 array, such as a
    #: sample weight, multiplied into a float32 loss)
    loss_upcast: bool = False
    n_params: int = 0
    #: whether :func:`repro.autodiff.replay.compile_step` accepts this
    #: problem's training step (including bit-identical self-verification)
    replay_ready: bool = False
    #: the compiler's refusal message when ``replay_ready`` is False
    replay_refusal: str = None
    #: the compiled program's optimisation counters when ready
    replay_stats: dict = field(default_factory=dict)

    @property
    def shape_consistent(self):
        """True when every op and every gradient passed verification."""
        return not self.shape_issues and not self.gradient_issues

    @property
    def consistent(self):
        """Shape-consistent, and no loss or gradient wider than the
        parameters — what ``repro analyze tape`` exits non-zero on."""
        return (self.shape_consistent and not self.upcast_gradients
                and not self.loss_upcast)

    def to_dict(self):
        return {
            "problem": self.problem, "sampler": self.sampler,
            "nodes": self.n_nodes, "constants": self.n_constants,
            "loss_shape": list(self.loss_shape),
            "loss_dtype": self.loss_dtype,
            "op_counts": dict(sorted(self.op_counts.items())),
            "consistent": self.consistent,
            "shape_consistent": self.shape_consistent,
            "shape_issues": self.shape_issues,
            "gradient_issues": self.gradient_issues,
            "dead_nodes": self.dead_nodes,
            "dead_by_op": dict(sorted(self.dead_by_op.items())),
            "rematerialized_constants": self.rematerialized_constants,
            "rematerialized_bytes": self.rematerialized_bytes,
            "duplicate_subgraphs": self.duplicate_subgraphs,
            "duplicate_nodes": self.duplicate_nodes,
            "duplicate_ops": dict(sorted(self.duplicate_ops.items())),
            "upcast_gradients": self.upcast_gradients,
            "loss_upcast": self.loss_upcast,
            "params": self.n_params,
            "replay_ready": self.replay_ready,
            "replay_refusal": self.replay_refusal,
            "replay_stats": dict(self.replay_stats),
        }

    def format(self):
        lines = [f"tape report: {self.problem} (sampler={self.sampler})",
                 f"  nodes: {self.n_nodes}  in-step constants: "
                 f"{self.n_constants}  params: {self.n_params}",
                 f"  loss: shape={list(self.loss_shape)} "
                 f"dtype={self.loss_dtype}"]
        top = sorted(self.op_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ops = ", ".join(f"{name}×{count}" for name, count in top[:8])
        lines.append(f"  ops: {ops}" + (" ..." if len(top) > 8 else ""))
        status = "OK" if self.shape_consistent else "FAILED"
        lines.append(f"  shape/dtype check: {status} "
                     f"({len(self.shape_issues)} op issues, "
                     f"{len(self.gradient_issues)} gradient issues)")
        for issue in self.shape_issues[:5]:
            lines.append(f"    {issue['kind']} mismatch in {issue['op']}: "
                         f"{issue['parents']} -> {issue['actual']} "
                         f"(expected {issue['expected']})")
        for issue in self.gradient_issues[:5]:
            lines.append(f"    gradient {issue['param']}: {issue['detail']}")
        lines.append(f"  compile-readiness: {self.dead_nodes} dead nodes, "
                     f"{self.rematerialized_constants} re-materialized "
                     f"constants ({self.rematerialized_bytes} bytes/step), "
                     f"{self.duplicate_subgraphs} duplicate subgraphs "
                     f"({self.duplicate_nodes} redundant nodes)")
        if self.loss_upcast:
            lines.append(f"  precision: FAILED — the {self.loss_dtype} loss "
                         f"is wider than the parameters")
        if self.upcast_gradients:
            lines.append(f"  precision: FAILED — {self.upcast_gradients}/"
                         f"{self.n_params} gradients arrive wider than "
                         f"their parameter dtype")
        if self.replay_ready:
            stats = self.replay_stats
            lines.append(f"  replay: READY "
                         f"({stats.get('instructions', 0)} instructions "
                         f"from {stats.get('recorded', 0)} recorded "
                         f"tensors, {stats.get('cse_hits', 0)} shared)")
        else:
            lines.append(f"  replay: REFUSED — {self.replay_refusal}")
        return "\n".join(lines)


def analyze_tape(problem, *, sampler="uniform", scale="smoke", n_interior=64,
                 batch_size=16, seed=0):
    """Trace and statically analyse one training step of ``problem``.

    Traces steps 0 and 1 through the same wired trainer (the second trace
    exists solely to identify constants re-materialized every step) and
    verifies the step-0 graph: per-op shape/dtype rules, gradient/parameter
    agreement, dead nodes, and duplicate subgraphs.
    """
    wired = _wire_problem(problem, sampler=sampler, scale=scale,
                          n_interior=n_interior, batch_size=batch_size,
                          seed=seed)
    tape0, loss, trainer = trace_training_step(problem, _wired=wired, step=0)
    tape1, _, _ = trace_training_step(problem, _wired=wired, step=1)

    report = TapeReport(problem=problem, sampler=sampler,
                        n_nodes=len(tape0.nodes),
                        n_constants=len(tape0.constants),
                        loss_shape=tuple(loss.data.shape),
                        loss_dtype=str(loss.data.dtype),
                        n_params=len(trainer.params))
    param_dtype = np.result_type(*[p.data.dtype for p in trainer.params])
    report.loss_upcast = (np.result_type(param_dtype, loss.data.dtype)
                          != param_dtype)

    # per-op verification + counts over everything the step created
    for node in tape0.nodes:
        name = op_name(node)
        report.op_counts[name] = report.op_counts.get(name, 0) + 1
        _verify_node(node, report.shape_issues)

    # gradients must exist for every parameter and mirror its shape/dtype
    grads = gradients(loss, trainer.params)
    for index, (param, grad) in enumerate(zip(trainer.params, grads)):
        label = getattr(param, "name", "") or f"param[{index}]"
        if grad is None:
            report.gradient_issues.append(
                {"param": label, "detail": "no gradient reaches this "
                                           "parameter from the loss"})
        elif grad.data.shape != param.data.shape:
            report.gradient_issues.append(
                {"param": label,
                 "detail": f"gradient shape {list(grad.data.shape)} != "
                           f"parameter shape {list(param.data.shape)}"})
        elif grad.data.dtype != param.data.dtype:
            # widening (float32 param, float64 grad) is numerically safe but
            # counted: since the backward masks adopt operand dtypes it
            # indicates a fresh upcast leak; narrowing loses precision
            if (np.result_type(grad.data.dtype, param.data.dtype)
                    == param.data.dtype):
                report.gradient_issues.append(
                    {"param": label,
                     "detail": f"gradient dtype {grad.data.dtype} is "
                               f"narrower than parameter dtype "
                               f"{param.data.dtype}"})
            else:
                report.upcast_gradients += 1

    # dead nodes: created during the step, unreachable from the loss
    live = {id(node) for node in iter_graph(loss)}
    for node in tape0.nodes:
        if id(node) not in live:
            report.dead_nodes += 1
            name = op_name(node)
            report.dead_by_op[name] = report.dead_by_op.get(name, 0) + 1

    # constants whose exact contents reappear in the next step's tape are
    # re-materialized per step — a compiled tape hoists them
    step1_prints = {_fingerprint(t) for t in tape1.constants}
    for tensor in tape0.constants:
        if _fingerprint(tensor) in step1_prints:
            report.rematerialized_constants += 1
            report.rematerialized_bytes += int(tensor.data.nbytes)

    duplicates = _structural_hashes(tape0, loss)
    report.duplicate_subgraphs = len(duplicates)
    for nodes in duplicates.values():
        report.duplicate_nodes += len(nodes) - 1
        name = op_name(nodes[0])
        report.duplicate_ops[name] = (
            report.duplicate_ops.get(name, 0) + len(nodes) - 1)

    (report.replay_ready, report.replay_refusal,
     report.replay_stats) = _replay_readiness(trainer)
    return report


def _replay_readiness(trainer, steps=(2, 3)):
    """Attempt an actual replay compile of the trainer's step.

    Runs the trainer's own traced shard step on two fresh steps (steps 2/3
    — the analyzer's own traces consumed the samplers' step-0/1 draws):
    it verifies the constraints' ``replay_inputs`` mirror the recorded
    externals and runs :func:`repro.autodiff.replay.compile_step`
    including its bit-identical self-verification.  Parameters are left
    untouched (the shard step takes no optimizer step), which the compiler
    accepts — both traces just see identical weights.

    Returns ``(ready, refusal_message, program_stats)``.
    """
    from ..training.trainer import _ReplayState

    state = _ReplayState()
    trainer.replay_states = {0: state}
    try:
        for step in steps:
            trainer._shard_step(step, 0)
    finally:
        trainer.replay_states = {}
    if state.program is None:
        return False, state.refusal, {}
    return True, None, dict(state.program.stats)

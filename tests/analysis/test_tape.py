"""Tape-analyzer tests: pinned burgers graph + all-problem consistency.

The pinned counts freeze the *structure* of the per-step graph the trainer
builds for burgers.  They are part of the compile-readiness contract: the
record-once/replay-many refactor must reproduce exactly this graph, so an
unintentional structural change (extra ops, lost sharing, dtype drift)
fails here before it can silently change cost or numerics.
"""

import pytest

import repro.api.problems  # noqa: F401  (populate the registry)
from repro.analysis import analyze_tape, trace_training_step
from repro.api.registry import list_problems, list_samplers
from repro.autodiff import Tensor, op_name, record_tape


def test_burgers_tape_structure_is_pinned():
    report = analyze_tape("burgers")
    assert report.shape_consistent, (report.shape_issues,
                                     report.gradient_issues)
    # the residual's u_t, u_x and u_xx are forward jet passes through the
    # 2-layer tanh net: no reverse pass (and so no transpose) in the forward
    # graph, and no dead first-derivative components
    assert report.n_nodes == 63
    assert report.n_constants == 9
    assert report.n_params == 6
    assert report.loss_shape == ()
    assert report.loss_dtype == "float32"
    assert report.op_counts["matmul"] == 12
    assert report.op_counts["mul"] == 21
    assert "transpose" not in report.op_counts
    assert report.op_counts["add"] == 9
    assert report.op_counts["sum_"] == 2
    assert report.op_counts["tanh"] == 4
    assert report.dead_nodes == 0
    assert report.duplicate_subgraphs == 6
    assert report.duplicate_nodes == 6
    assert report.upcast_gradients == 0
    assert not report.loss_upcast and report.consistent


@pytest.mark.parametrize("problem", list_problems())
def test_every_registered_problem_is_shape_consistent(problem):
    report = analyze_tape(problem)
    assert report.shape_consistent, (report.shape_issues,
                                     report.gradient_issues)
    assert report.n_nodes > 0
    assert report.op_counts
    # a scalar loss with a gradient for every parameter
    assert report.loss_shape == ()
    assert not report.gradient_issues


@pytest.mark.parametrize("sampler", list_samplers())
def test_float32_loss_and_gradients_under_every_sampler(sampler):
    """Sample and importance weights adopt the constraint dtype, so no
    sampler widens a float32 loss (ldc: sdf-weighted interior)."""
    report = analyze_tape("ldc", sampler=sampler)
    assert report.loss_dtype == "float32"
    assert report.upcast_gradients == 0
    assert not report.loss_upcast
    assert report.consistent


def test_an_upcast_is_a_consistency_failure():
    report = analyze_tape("burgers")
    assert report.consistent
    report.upcast_gradients = 1
    assert report.shape_consistent and not report.consistent
    assert "precision: FAILED" in report.format()
    report.upcast_gradients, report.loss_upcast = 0, True
    assert not report.consistent
    assert report.to_dict()["consistent"] is False


def test_report_round_trips_to_dict():
    report = analyze_tape("burgers")
    tree = report.to_dict()
    assert tree["problem"] == "burgers"
    assert tree["shape_consistent"] is True
    assert tree["nodes"] == report.n_nodes
    assert sum(tree["op_counts"].values()) == report.n_nodes
    assert isinstance(report.format(), str)


def test_trace_is_deterministic():
    tape_a, loss_a, _ = trace_training_step("burgers")
    tape_b, loss_b, _ = trace_training_step("burgers")
    assert len(tape_a.nodes) == len(tape_b.nodes)
    assert [op_name(n) for n in tape_a.nodes] == \
           [op_name(n) for n in tape_b.nodes]
    assert float(loss_a.data) == float(loss_b.data)


def test_record_tape_restores_constructors():
    import repro.autodiff.ops as ops
    node_before, leaf_before = ops._node, ops._leaf
    with record_tape() as tape:
        result = Tensor([1.0, 2.0], requires_grad=True) * 3.0
    assert ops._node is node_before and ops._leaf is leaf_before
    assert len(tape.nodes) == 1
    assert op_name(tape.nodes[0]) == "mul"
    assert tape.constants          # the coerced 3.0 scalar
    assert id(result) in tape.created_ids()
    # recording off again: nothing new lands on the tape
    _ = Tensor([1.0], requires_grad=True) * 2.0
    assert len(tape.nodes) == 1

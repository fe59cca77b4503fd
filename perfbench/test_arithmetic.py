"""Tests of the benchmark's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import Instrumentation, Trace  # noqa: E402
from workloads import (  # noqa: E402
    fastest_windows, first_crossing, layer_metrics, loop_figures, mean_error,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def nested_step(trace, clock):
    """A step (4.25 s own work) calling batch_indices (1.5 s own work),
    which calls a probe (2 s)."""
    probe = trace.timed("sampling.probe", lambda: clock.advance(2.0))

    def batch():
        clock.advance(1.0)
        probe()
        clock.advance(0.5)

    batch = trace.timed("sampling.batch", batch)

    def step():
        clock.advance(0.25)
        batch()
        clock.advance(4.0)

    trace.timed("training.loop", step)()


def test_self_time_excludes_nested_wrapped_children():
    clock = FakeClock()
    trace = Trace(clock=clock)
    nested_step(trace, clock)
    assert dict(trace.self_s) == {"training.loop": 4.25,
                                  "sampling.batch": 1.5,
                                  "sampling.probe": 2.0}
    # self times partition the outermost span's wall time exactly
    assert sum(trace.self_s.values()) == clock.now == 7.75
    assert dict(trace.calls) == {"training.loop": 1, "sampling.batch": 1,
                                 "sampling.probe": 1}


def test_same_layer_nesting_counts_each_second_once():
    # a shard sampler's batch_indices wrapping its inner sampler's
    clock = FakeClock()
    trace = Trace(clock=clock)
    inner = trace.timed("sampling.batch", lambda: clock.advance(3.0))

    def outer():
        clock.advance(1.0)
        inner()

    trace.timed("sampling.batch", outer)()
    assert trace.self_s["sampling.batch"] == 4.0
    assert trace.calls["sampling.batch"] == 2


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    trace = Trace(clock=clock)

    def fail():
        clock.advance(1.0)
        raise ValueError("boom")

    wrapped = trace.timed("nn.optimizer", fail)
    try:
        wrapped()
    except ValueError:
        pass
    assert trace.current() is None
    assert trace.self_s["nn.optimizer"] == 1.0


def test_loop_coverage_is_the_share_of_wrapped_time():
    clock = FakeClock()
    trace = Trace(clock=clock)
    trace.last_start = clock()
    nested_step(trace, clock)
    trace.train_end = clock()
    figures = layer_metrics(trace.export())
    assert figures["training.loop_self_s"] == 4.25
    assert math.isclose(figures["training.coverage"], 1 - 4.25 / 7.75)
    assert figures["sampling.probe_s"] == 2.0


def record(clock, step, **errors):
    return (clock, step, 0.0, errors)


def test_first_crossing_on_a_non_monotone_trace():
    # burgers err(u) dips to 0.167, rises to 0.287, settles at 0.211
    records = [record(1.0, 300, u=0.167), record(2.0, 450, u=0.287),
               record(3.0, 600, u=0.211)]
    assert first_crossing(records, 0.22) == 0   # first dip, not the end
    assert first_crossing(records, 0.25) == 0
    assert first_crossing(records, 0.10) is None


def test_first_crossing_waits_for_the_first_record_at_or_below_target():
    records = [record(0.5, 0, u=0.5), record(1.5, 10, u=0.3),
               record(2.5, 20, u=0.2), record(3.5, 30, u=0.25),
               record(4.5, 40, u=0.18)]
    assert first_crossing(records, 0.2) == 2    # inclusive bound
    assert first_crossing(records, 0.19) == 4


def test_errors_average_over_finite_variables():
    assert math.isclose(mean_error({"u": 0.2, "v": 0.4}), 0.3)
    assert mean_error({"u": 0.2, "v": float("nan")}) == 0.2
    assert mean_error({}) is None
    # records before the first validation carry no errors
    records = [record(1.0, 0), record(2.0, 10, u=0.1, v=0.5)]
    assert first_crossing(records, 0.3) == 1
    # a named variable is judged alone
    assert first_crossing(records, 0.3, var="v") is None


def test_loop_figures_use_each_windows_fastest_rep():
    # rep b was slowed down in window 1, rep a in window 2
    reps = [{"windows": [1.0, 2.0, 9.0], "crossing": 1},
            {"windows": [1.5, 6.0, 3.0], "crossing": 2}]
    assert fastest_windows(reps) == [1.0, 2.0, 3.0]
    steps_per_s, to_target = loop_figures(reps, steps=30)
    assert steps_per_s == 30 / 6.0
    # median of the per-rep sums up to each rep's own crossing: 3 and 6
    assert to_target == 4.5


def test_instrumentation_restores_the_program():
    from repro.dp import runner
    from repro.sampling import SGMSampler
    from repro.training import History, Trainer, trainer

    before = (Trainer.train, History.record, SGMSampler.start,
              trainer.gradients, runner._train_dp_rank)
    with Instrumentation(Trace(), layers=True):
        assert Trainer.train is not before[0]
        assert trainer.gradients is not before[3]
    after = (Trainer.train, History.record, SGMSampler.start,
             trainer.gradients, runner._train_dp_rank)
    assert after == before

"""Replay-engine tests: bit-identical parity and stale-tape fallback.

The record-once/replay-many contract is *bit-identity*, not tolerance: a
compiled step must reproduce the eager loss/gradient trajectory exactly
(``==`` on Python floats, no ``allclose``).  Every registered problem is
trained twice — eager and compiled — under the SGM sampler, whose mid-run
importance refreshes are the hardest case (per-step weight inputs plus
probe forward passes between steps).
"""

import time

import numpy as np
import pytest

import repro.api.problems  # noqa: F401  (populate the registry)
from repro.api.registry import list_problems
from repro.api.session import Session, _wire_training
from repro.autodiff import ReplayStale


def _wire(problem, sampler):
    """A fresh smoke-scale trainer, wired as a session would wire it."""
    session = Session(problem, scale="smoke").sampler(sampler)
    prob = session.build()
    trainer, _ = _wire_training(prob, session._config, sampler,
                                session._config.batch_small,
                                session._config.seed, [])
    return trainer


def _train(problem, sampler, compile, steps=6, hooks=()):
    trainer = _wire(problem, sampler)
    history = trainer.train(steps, validate_every=10**6, record_every=1,
                            step_hooks=hooks, compile=compile)
    return list(history.losses), trainer


@pytest.mark.parametrize("problem", list_problems())
def test_replay_matches_eager_bit_identically(problem):
    eager, _ = _train(problem, "sgm", compile=False)
    replayed, trainer = _train(problem, "sgm", compile=True)
    # the program must actually have compiled (not silently fallen back)
    assert trainer.compile_info() == "replay", trainer.compile_info()
    assert replayed == eager


def _steps_per_second(compile, steps=200):
    """Whole-step throughput of ``Trainer.train`` on burgers x sgm.

    Wiring is excluded; validation and recording are pushed past the
    horizon so the loop is pure step work.  Replay's trace steps and its
    compile are inside the timed region: the rate is what a run of
    ``steps`` steps observes.
    """
    trainer = _wire("burgers", "sgm")
    started = time.perf_counter()
    trainer.train(steps, validate_every=10**6, record_every=10**6,
                  compile=compile)
    elapsed = time.perf_counter() - started
    assert trainer.compile_info() == ("replay" if compile else "eager")
    return steps / elapsed


def test_replay_is_not_slower_than_eager_on_burgers():
    # interleaved pairs, best of 3 per side: a slow spell on a shared
    # host hits both sides instead of one
    eager, replay = [], []
    for _ in range(3):
        eager.append(_steps_per_second(compile=False))
        replay.append(_steps_per_second(compile=True))
    assert max(replay) >= max(eager), (replay, eager)


def test_compile_reports_tracing_before_enough_steps():
    _, trainer = _train("burgers", "uniform", compile=True, steps=1)
    assert trainer.compile_info() == "tracing"


def test_stale_tape_falls_back_to_eager_and_training_continues():
    # a mid-run batch-size change invalidates the compiled tape's input
    # shapes; the step must fall back to eager (permanently) and keep
    # training rather than replaying a wrong graph
    def shrink(step, trainer, **_):
        if step == 3:
            for constraint in trainer.constraints:
                constraint.batch_size = max(8, constraint.batch_size // 2)

    losses, trainer = _train("burgers", "uniform", compile=True, steps=8,
                             hooks=(shrink,))
    assert len(losses) == 8
    assert np.isfinite(losses).all()
    info = trainer.compile_info()
    assert info.startswith("eager (refused: stale tape"), info


def test_program_run_rejects_shape_drift_directly():
    _, trainer = _train("burgers", "uniform", compile=True, steps=4)
    program = trainer.replay_states[0].program
    assert program is not None
    batches, weights = trainer._step_batches(4)
    externals = trainer._replay_externals(batches)
    externals[0] = externals[0][:-1]   # drop a row: shape mismatch
    with pytest.raises(ReplayStale):
        program.run(externals, trainer._weight_list(weights))

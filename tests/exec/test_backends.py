"""The backend registry + the cross-backend bit-parity invariant."""

import numpy as np
import pytest

from repro.exec import (ExecutionBackend, QueueBackend, SerialBackend,
                        backend_names, register_backend, resolve_backend)
from repro.experiments import burgers_config, run_matrix, run_suite

SAMPLERS = ("uniform", "sgm")


# ----------------------------------------------------------------------
# Registry and resolution
# ----------------------------------------------------------------------
def test_shipped_backends_are_registered():
    assert set(backend_names()) >= {"serial", "process", "queue"}


def test_resolve_backend_accepts_names_and_instances():
    serial = resolve_backend("serial")
    assert isinstance(serial, SerialBackend) and serial.inline
    prebuilt = SerialBackend()
    assert resolve_backend(prebuilt) is prebuilt
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("threads")


def test_queue_backend_requires_a_store():
    with pytest.raises(ValueError, match="needs a run store"):
        resolve_backend("queue")


def test_custom_backends_register_and_resolve(tmp_path):
    @register_backend("recording")
    class RecordingBackend(ExecutionBackend):
        inline = True

        def __init__(self, max_workers=None):
            self.max_workers = max_workers
            self.calls = []

        def submit(self, fn, tasks, labels, verbose=False):
            self.calls.append(list(labels))
            return [fn(task) for task in tasks]

    try:
        backend = resolve_backend("recording")
        suite = run_suite("burgers", ["uniform"], backend=backend,
                          scale="smoke", steps=2)
        assert suite.backend == "recording"
        assert backend.calls == [["burgers:smoke:U32"]]
    finally:
        from repro.exec.base import BACKENDS
        BACKENDS.pop("recording", None)


# ----------------------------------------------------------------------
# Cross-backend parity (the tentpole invariant)
# ----------------------------------------------------------------------
def assert_method_parity(reference, other):
    assert reference.labels == other.labels
    for a, b in zip(reference, other):
        assert a.label == b.label and a.seed == b.seed
        assert np.array_equal(a.history.losses, b.history.losses), a.label
        assert a.history.steps == b.history.steps
        assert sorted(a.history.errors) == sorted(b.history.errors)
        for var in a.history.errors:
            np.testing.assert_array_equal(a.history.errors[var],
                                          b.history.errors[var])
        assert a.probe_points == b.probe_points
        for key in a.net_state:
            assert np.array_equal(a.net_state[key], b.net_state[key]), (
                a.label, key)


def test_suite_is_bit_identical_across_all_three_backends(tmp_path):
    config = burgers_config("smoke")
    serial = run_suite("burgers", SAMPLERS, backend="serial",
                       config=config, steps=6)
    process = run_suite("burgers", SAMPLERS, backend="process",
                        config=config, steps=6)
    queue = run_suite("burgers", SAMPLERS, backend="queue", config=config,
                      steps=6, store=tmp_path / "qstore")
    assert queue.backend == "queue"
    assert_method_parity(serial, process)
    assert_method_parity(serial, queue)


def test_matrix_is_bit_identical_across_serial_and_queue(tmp_path):
    problems = ("burgers", "poisson3d")
    serial = run_matrix(problems, SAMPLERS, backend="serial",
                        scale="smoke", steps=4)
    queue = run_matrix(problems, SAMPLERS, backend="queue",
                       scale="smoke", steps=4,
                       store=tmp_path / "qstore")
    assert queue.backend == "queue"
    for problem in problems:
        assert_method_parity(serial[problem], queue[problem])
    # every cell trained through the durable queue, not in-process
    from repro.exec import TaskQueue
    jobs = TaskQueue.for_store(tmp_path / "qstore").pending()
    assert jobs == []   # all terminal


class ExplodingValidator:
    """Picklable validator that fails its cell on first evaluation."""

    def evaluate(self, net):
        raise RuntimeError("validator exploded")


def test_queue_failure_carries_cell_label_and_cancels_siblings(tmp_path):
    backend = QueueBackend(tmp_path / "qstore", max_workers=1)
    with pytest.raises(RuntimeError) as excinfo:
        run_suite("burgers", ["uniform", "mis", "sgm"], backend=backend,
                  scale="smoke", steps=4,
                  validators=[ExplodingValidator()])
    assert "U32" in str(excinfo.value)
    assert "validator exploded" in str(excinfo.value)
    assert excinfo.value.__cause__ is not None


def test_serial_failure_carries_cell_label(tmp_path):
    with pytest.raises(RuntimeError,
                       match=r"\[burgers:smoke:U32\] validator exploded"):
        run_suite("burgers", ["uniform"], backend="serial", scale="smoke",
                  steps=4, validators=[ExplodingValidator()])

"""One run lifecycle: serial, data-parallel and suite-cell runs record,
trace and fail in the same way.

Every kind of run opens a store record, streams its history, installs a
per-run tracer, trains once, and then either finishes the record or marks
it stopped.  These tests pin what the three kinds must share.
"""

import pytest

import repro
from repro.dp import run_dp
from repro.experiments import burgers_config, run_suite
from repro.store import RunStore
from repro.training import Trainer

N_INTERIOR = 320
BATCH = 64
STEPS = 4


def _session():
    return (repro.problem("burgers", scale="smoke").sampler("sgm")
            .n_interior(N_INTERIOR).batch_size(BATCH))


def _failing_train(monkeypatch, fail_at=1):
    """Make every ``Trainer.train`` raise from a step hook at ``fail_at``."""
    original = Trainer.train

    def train(self, steps, **kwargs):
        def boom(step, **_):
            if step == fail_at:
                raise RuntimeError("rank died")
        kwargs["step_hooks"] = list(kwargs.get("step_hooks") or ()) + [boom]
        return original(self, steps, **kwargs)

    monkeypatch.setattr(Trainer, "train", train)


def _failed_dp_record(monkeypatch, root):
    _failing_train(monkeypatch)
    with pytest.raises(RuntimeError, match="rank died"):
        run_dp("burgers", burgers_config("smoke"), sampler="sgm",
               steps=STEPS, n_interior=N_INTERIOR, batch_size=BATCH,
               world_size=1, store=root, run_id="dp-failed")
    monkeypatch.undo()
    return RunStore(root).open("dp-failed")


def test_failing_dp_run_marks_its_record_failed(monkeypatch, tmp_path):
    record = _failed_dp_record(monkeypatch, tmp_path)
    assert record.status == "failed"
    assert "rank died" in record.meta["error"]
    # the steps before the failure were streamed
    assert record.history().steps == [0]


def test_traced_stored_dp_run_streams_spans_and_metrics(tmp_path):
    result = _session().trace().train(steps=STEPS, store=tmp_path,
                                      world_size=1)
    record = RunStore(tmp_path).open(result.run_id)
    assert (record.path / "spans.jsonl").stat().st_size > 0
    assert (record.path / "metrics.jsonl").stat().st_size > 0
    names = {span["name"] for span in record.spans()}
    assert "train.run" in names
    assert record.last_metrics() is not None


def test_serial_dp_and_suite_records_share_their_key_sets(tmp_path):
    store = RunStore(tmp_path)
    serial = _session().train(steps=STEPS, store=store)
    dp = _session().train(steps=STEPS, store=store, world_size=1)
    suite = _session().suite(["sgm"], steps=STEPS, store=store)
    records = [store.open(run_id) for run_id in
               (serial.run_id, dp.run_id, suite.methods[0].run_id)]
    assert all(record.status == "completed" for record in records)
    meta_keys = [set(record.meta) for record in records]
    assert meta_keys[0] == meta_keys[1] == meta_keys[2]
    sampler_keys = [set(record.sampler_stats()) for record in records]
    assert sampler_keys[0] and sampler_keys[0] == sampler_keys[1] \
        == sampler_keys[2]


def test_dp_record_carries_its_layout_and_never_checkpoints(tmp_path,
                                                            capsys):
    from repro.cli import main
    result = _session().train(steps=STEPS, store=tmp_path, world_size=1,
                              dp_shards=2)
    meta = RunStore(tmp_path).open(result.run_id).meta
    assert meta["dp_shards"] == 2 and meta["world_size"] == 1
    assert meta["checkpoint_every"] is None
    assert main(["runs", "--store", str(tmp_path), "show",
                 result.run_id]) == 0
    shown = dict(line.split(None, 1) for line in
                 capsys.readouterr().out.splitlines() if " " in line)
    assert shown["dp_shards"] == "2" and shown["world_size"] == "1"
    serial = _session().train(steps=STEPS, store=tmp_path)
    meta = RunStore(tmp_path).open(serial.run_id).meta
    assert meta["dp_shards"] is None and meta["world_size"] == 1
    assert meta["checkpoint_every"] >= 1


def test_resume_refuses_a_dp_record(monkeypatch, tmp_path):
    from repro.store import resume_run
    record = _failed_dp_record(monkeypatch, tmp_path)
    with pytest.raises(ValueError, match=r"'dp-failed'.*ROADMAP item 6"):
        resume_run(tmp_path, "dp-failed")
    # the failed record is left exactly as the dp run left it
    record = RunStore(tmp_path).open("dp-failed")
    assert record.status == "failed"
    assert record.history().steps == [0]

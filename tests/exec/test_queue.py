"""TaskQueue mechanics: refs, leases, takeover, journal tolerance."""

import json
import time

import pytest

from repro.exec import TaskQueue, function_ref
from repro.exec.queue import resolve_ref


def double(task):
    return task * 2


def explode(task):
    raise ValueError(f"boom on {task!r}")


# ----------------------------------------------------------------------
# Function references (the queue's import-by-name contract)
# ----------------------------------------------------------------------
def test_function_ref_round_trips_module_level_functions():
    ref = function_ref(double)
    assert ref.endswith(":double")
    assert resolve_ref(ref) is double


def test_function_ref_rejects_unimportable_callables():
    with pytest.raises(ValueError, match="module-level"):
        function_ref(lambda task: task)

    def local(task):
        return task

    with pytest.raises(ValueError, match="module-level"):
        function_ref(local)
    with pytest.raises(ValueError, match="module-level"):
        function_ref("hi".upper)


# ----------------------------------------------------------------------
# Enqueue / claim / complete lifecycle
# ----------------------------------------------------------------------
def make_queue(tmp_path):
    return TaskQueue.for_store(tmp_path / "store")


def test_enqueue_claim_complete_round_trip(tmp_path):
    queue = make_queue(tmp_path)
    job_ids = queue.enqueue(function_ref(double), [3, 4], ["a", "b"])
    assert len(job_ids) == 2
    assert queue.pending(job_ids) == job_ids
    assert queue.job_meta(job_ids[0])["status"] == "queued"

    lease = queue.claim("w1", lease_seconds=30.0)
    assert lease is not None and lease.job_id == job_ids[0]
    meta = queue.job_meta(lease.job_id)
    assert meta["status"] == "running"
    assert meta["attempts"] == 1 and meta["worker"] == "w1"

    fn, task = queue.load_task(lease.job_id)
    queue.complete(lease, fn(task))
    assert queue.job_meta(lease.job_id)["status"] == "done"
    assert queue.load_result(lease.job_id) == 6
    assert queue.pending(job_ids) == job_ids[1:]
    events = [e["event"] for e in queue.journal()]
    assert events.count("enqueue") == 2
    assert "claim" in events and "done" in events


def test_claim_skips_jobs_with_live_leases(tmp_path):
    queue = make_queue(tmp_path)
    (job_id,) = queue.enqueue(function_ref(double), [1], ["a"])
    first = queue.claim("w1", lease_seconds=30.0)
    assert first is not None
    # the only job is leased and unexpired: a sibling finds nothing
    assert queue.claim("w2", lease_seconds=30.0) is None
    assert queue.job_meta(job_id)["attempts"] == 1


def test_claim_from_a_stale_scan_never_reruns_a_finished_job(tmp_path):
    queue = make_queue(tmp_path)
    (job_id,) = queue.enqueue(function_ref(double), [2], ["a"])
    first = queue.claim("w1", lease_seconds=30.0)
    # a sibling scans while w1 runs, then w1 finishes and drops its lease
    stale_meta = queue.job_meta(job_id)
    queue.complete(first, 4)
    job_dir = queue.jobs_dir / job_id
    assert queue._try_claim(job_dir, stale_meta, "w2", 30.0) is None
    meta = queue.job_meta(job_id)
    assert meta["status"] == "done" and meta["attempts"] == 1
    assert not (job_dir / "lease.json").exists()
    assert "reclaim" not in [e["event"] for e in queue.journal()]


def test_expired_lease_is_taken_over_and_counted_as_reclaim(tmp_path):
    queue = make_queue(tmp_path)
    (job_id,) = queue.enqueue(function_ref(double), [5], ["a"])
    stale = queue.claim("w1", lease_seconds=0.05)
    assert stale is not None
    time.sleep(0.1)

    lease = queue.claim("w2", lease_seconds=30.0)
    assert lease is not None and lease.worker == "w2"
    meta = queue.job_meta(job_id)
    assert meta["attempts"] == 2 and meta["worker"] == "w2"
    reclaims = [e for e in queue.journal() if e["event"] == "reclaim"]
    assert len(reclaims) == 1 and reclaims[0]["attempt"] == 2

    # the original worker's lease is dead: its renewal must refuse
    assert stale.renew(30.0) is False
    # ... while the takeover's own heartbeat still works
    assert lease.renew(30.0) is True
    queue.complete(lease, 10)
    assert queue.load_result(job_id) == 10


def test_failed_task_persists_the_exception(tmp_path):
    queue = make_queue(tmp_path)
    (job_id,) = queue.enqueue(function_ref(explode), [7], ["a"])
    lease = queue.claim("w1", lease_seconds=30.0)
    fn, task = queue.load_task(job_id)
    with pytest.raises(ValueError):
        fn(task)
    queue.fail(lease, ValueError("boom on 7"))
    assert queue.job_meta(job_id)["status"] == "failed"
    error = queue.load_error(job_id)
    assert isinstance(error, ValueError) and "boom on 7" in str(error)


def test_cancel_queued_leaves_running_and_finished_jobs_alone(tmp_path):
    queue = make_queue(tmp_path)
    job_ids = queue.enqueue(function_ref(double), [1, 2, 3],
                            ["a", "b", "c"])
    lease = queue.claim("w1", lease_seconds=30.0)
    queue.complete(lease, 2)
    lease = queue.claim("w1", lease_seconds=30.0)   # job b now running
    cancelled = queue.cancel_queued(job_ids)
    assert cancelled == [job_ids[2]]
    assert queue.job_meta(job_ids[0])["status"] == "done"
    assert queue.job_meta(job_ids[1])["status"] == "running"
    assert queue.job_meta(job_ids[2])["status"] == "cancelled"
    assert queue.pending(job_ids) == [job_ids[1]]


def test_journal_tolerates_a_torn_trailing_line(tmp_path):
    queue = make_queue(tmp_path)
    queue.enqueue(function_ref(double), [1, 2], ["a", "b"])
    complete = queue.journal()
    assert len(complete) == 2
    with open(queue.journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"event": "claim", "jo')     # crash mid-append
    events = queue.journal()
    assert events == complete                      # torn tail dropped
    # a recovered writer appends normally after the torn line
    queue._journal("cancel", job="x")
    assert [e["event"] for e in queue.journal()][:2] == ["enqueue",
                                                         "enqueue"]


def test_torn_lease_file_counts_as_dead(tmp_path):
    queue = make_queue(tmp_path)
    (job_id,) = queue.enqueue(function_ref(double), [1], ["a"])
    job_dir = queue.jobs_dir / job_id
    (job_dir / "lease.json").write_text('{"worker": "w1", "exp',
                                        encoding="utf-8")
    lease = queue.claim("w2", lease_seconds=30.0)
    assert lease is not None and lease.worker == "w2"
    current = json.loads((job_dir / "lease.json").read_text())
    assert current["nonce"] == lease.nonce

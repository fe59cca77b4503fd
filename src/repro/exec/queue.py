"""Store-backed job queue: durable task records + atomic lease files.

The :class:`QueueBackend` decouples *submitting* a sweep from *executing*
it.  The submitter enqueues each picklable task as a durable job record
under ``<store>/queue/``; any number of ``repro worker <store>`` daemons
(on this machine or any machine sharing the filesystem) claim jobs via
atomic lease files, execute them through the exact same worker function
the serial and process backends call, and write the pickled result back.
The submitter polls for completion and assembles results in submission
order — identically to the other backends.

Queue layout::

    <store>/queue/
        journal.jsonl            append-only event log (claims, renewals,
                                 reclaims, completions; torn-tail tolerant)
        jobs/<job_id>/
            job.json             status, label, attempts, worker (atomic
                                 tmp + os.replace updates)
            spec.pkl             pickled (function ref, task tuple)
            lease.json           live claim: worker, nonce, expiry
            result.pkl           pickled result on success
            error.pkl            pickled exception on failure

Lease protocol — the crash-recovery story:

* a **fresh claim** materialises the lease via ``os.link`` of a fully
  written temp file onto ``lease.json`` — creation is atomic and
  all-or-nothing, so exactly one worker wins and no reader ever sees a
  half-written lease;
* the winner's heartbeat thread **renews** the expiry every third of the
  lease period;
* a worker that dies (even ``SIGKILL``) stops renewing; once the expiry
  passes, any other worker **re-claims** by atomically replacing the
  lease and reading back its own nonce to confirm it won the race.

Because every task seeds itself from its spec and results are written
atomically, the rare benign race — two workers finishing the same job
after a lease takeover — produces bit-identical results either way.
"""

from __future__ import annotations

import importlib
import json
import os
import pickle
import time
import uuid
from pathlib import Path

from .. import obs
from .base import ExecutionBackend, _with_cell_label, register_backend

__all__ = ["QueueBackend", "TaskQueue", "function_ref", "resolve_ref"]

#: job statuses a worker may still pick up
_CLAIMABLE = ("queued", "running")
#: terminal job statuses
_FINISHED = ("done", "failed", "cancelled")


def function_ref(fn):
    """``"module:qualname"`` reference to a module-level callable.

    Queue workers import the function by reference (the task tuples are
    pickled, the function is not), so anything submitted to the queue
    backend must be importable — no lambdas, closures, or methods.  The
    re-import is verified up front so a bad callable fails at submit time
    with a clear message instead of inside a worker.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise ValueError(
            f"queue backend needs a module-level function, got {fn!r}; "
            f"lambdas, closures, and methods cannot be imported by a "
            f"worker process")
    if getattr(importlib.import_module(module), qualname, None) is not fn:
        raise ValueError(
            f"{module}:{qualname} does not re-import to the submitted "
            f"function; queue workers import tasks by reference")
    return f"{module}:{qualname}"


def resolve_ref(ref):
    """Import the callable a :func:`function_ref` string names."""
    module, _, qualname = ref.partition(":")
    return getattr(importlib.import_module(module), qualname)


def _atomic_write_text(path, text):
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _atomic_write_bytes(path, data):
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _read_json(path):
    """Parse a JSON file; ``None`` when missing or torn mid-replace."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return None


class Lease:
    """A worker's live claim on one job (see the module docstring)."""

    def __init__(self, queue, job_id, worker, nonce, expires):
        self.queue = queue
        self.job_id = job_id
        self.worker = worker
        self.nonce = nonce
        self.expires = expires

    def renew(self, lease_seconds):
        """Extend the expiry; returns ``False`` when the lease was lost."""
        return self.queue.renew(self, lease_seconds)


class TaskQueue:
    """Durable job records + lease files under ``<store>/queue``.

    ``clock`` is the time source for every lease decision (enqueue stamps,
    expiries, renewals, the journal): a zero-argument callable returning
    epoch seconds, defaulting to :func:`time.time`.  Tests inject a fake
    clock so lease expiry and crash reclamation are exercised without
    real-time sleeps.
    """

    def __init__(self, root, clock=None):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.journal_path = self.root / "journal.jsonl"
        self.clock = clock if clock is not None else time.time

    @classmethod
    def for_store(cls, store_root, clock=None):
        """The queue living inside a run store's root directory."""
        return cls(Path(store_root) / "queue", clock=clock)

    # -- journal --------------------------------------------------------
    def _journal(self, event, **fields):
        line = json.dumps({"event": event, "time": self.clock(), **fields})
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def journal(self):
        """All complete journal events; a torn trailing line ends the read
        (same tolerance as the store's ``history.jsonl``)."""
        events = []
        if not self.journal_path.exists():
            return events
        with open(self.journal_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    break
        return events

    # -- submit side ----------------------------------------------------
    def enqueue(self, ref, tasks, labels):
        """Persist one job per task; returns job ids in submission order."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        batch = uuid.uuid4().hex[:8]
        job_ids = []
        for index, (task, label) in enumerate(zip(tasks, labels)):
            job_id = f"{batch}-{index:04d}"
            job_dir = self.jobs_dir / job_id
            job_dir.mkdir(parents=True)
            (job_dir / "spec.pkl").write_bytes(
                pickle.dumps((ref, task), protocol=pickle.HIGHEST_PROTOCOL))
            # job.json lands last (atomically): a job is only visible to
            # workers once its spec is fully on disk
            _atomic_write_text(job_dir / "job.json", json.dumps({
                "id": job_id, "label": label, "status": "queued",
                "attempts": 0, "worker": None, "created_at": self.clock(),
            }, indent=2) + "\n")
            self._journal("enqueue", job=job_id, label=label)
            job_ids.append(job_id)
        return job_ids

    def job_meta(self, job_id):
        """The job's current ``job.json`` dict (``None`` when missing)."""
        return _read_json(self.jobs_dir / job_id / "job.json")

    def load_result(self, job_id):
        return pickle.loads((self.jobs_dir / job_id / "result.pkl")
                            .read_bytes())

    def load_error(self, job_id):
        return pickle.loads((self.jobs_dir / job_id / "error.pkl")
                            .read_bytes())

    def cancel_queued(self, job_ids):
        """Cancel every listed job no worker has claimed yet."""
        cancelled = []
        for job_id in job_ids:
            meta = self.job_meta(job_id)
            if meta is None or meta["status"] != "queued":
                continue
            if self._live_lease(self.jobs_dir / job_id) is not None:
                continue
            meta["status"] = "cancelled"
            self._write_job(job_id, meta)
            self._journal("cancel", job=job_id)
            cancelled.append(job_id)
        return cancelled

    def pending(self, job_ids=None):
        """Job ids not yet in a terminal status (submission order kept)."""
        if job_ids is None:
            if not self.jobs_dir.is_dir():
                return []
            job_ids = sorted(p.name for p in self.jobs_dir.iterdir()
                             if p.is_dir())
        out = []
        for job_id in job_ids:
            meta = self.job_meta(job_id)
            if meta is not None and meta["status"] not in _FINISHED:
                out.append(job_id)
        return out

    # -- worker side ----------------------------------------------------
    def _write_job(self, job_id, meta):
        _atomic_write_text(self.jobs_dir / job_id / "job.json",
                           json.dumps(meta, indent=2) + "\n")

    def _live_lease(self, job_dir):
        """The current lease dict when held and unexpired, else ``None``.

        A torn or unparseable lease counts as dead: the takeover path
        resolves any race via the nonce read-back.
        """
        lease = _read_json(job_dir / "lease.json")
        if lease is None or "expires" not in lease:
            return None
        if float(lease["expires"]) <= self.clock():
            return None
        return lease

    def claim(self, worker, lease_seconds):
        """Claim one eligible job; returns a :class:`Lease` or ``None``.

        Eligible = status ``queued`` (never started) or ``running`` with a
        dead lease (the previous worker crashed).  Jobs are scanned in
        sorted order so two idle workers converge on the same frontier.
        """
        if not self.jobs_dir.is_dir():
            return None
        for job_dir in sorted(self.jobs_dir.iterdir()):
            if not job_dir.is_dir():
                continue
            meta = _read_json(job_dir / "job.json")
            if meta is None or meta["status"] not in _CLAIMABLE:
                continue
            if self._live_lease(job_dir) is not None:
                continue
            lease = self._try_claim(job_dir, meta, worker, lease_seconds)
            if lease is not None:
                return lease
        return None

    def _try_claim(self, job_dir, meta, worker, lease_seconds):
        nonce = uuid.uuid4().hex
        expires = self.clock() + float(lease_seconds)
        payload = json.dumps({"worker": worker, "nonce": nonce,
                              "expires": expires})
        lease_path = job_dir / "lease.json"
        tmp = lease_path.with_name(f".lease-{worker}-{os.getpid()}.tmp")
        tmp.write_text(payload, encoding="utf-8")
        try:
            if lease_path.exists():
                # dead-lease takeover, stage 1: atomically rename the dead
                # lease aside — exactly one renamer wins.  The caller's
                # eligibility read may be stale (a sibling can have
                # freshly claimed between the scan and here), so verify
                # the renamed lease really was dead and restore it if not;
                # blindly replacing would steal a sibling's live claim.
                grave = lease_path.with_name(
                    f".dead-{worker}-{os.getpid()}-{nonce[:8]}")
                try:
                    os.rename(lease_path, grave)
                except FileNotFoundError:
                    return None         # a sibling's takeover won
                renamed = _read_json(grave)
                if (renamed is not None and "expires" in renamed
                        and float(renamed["expires"]) > self.clock()):
                    try:
                        os.link(grave, lease_path)
                    except FileExistsError:
                        pass
                    os.unlink(grave)
                    return None
                os.unlink(grave)
            # fresh claim / takeover stage 2: hard-link the fully written
            # temp file onto the lease path — atomic create, exactly one
            # winner
            try:
                os.link(tmp, lease_path)
            except FileExistsError:
                return None
        finally:
            if tmp.exists():
                tmp.unlink()
        # the scan's status read may predate a sibling finishing the job and
        # releasing its lease; holding the lease now, re-read before running
        meta = _read_json(job_dir / "job.json")
        if meta is None or meta["status"] not in _CLAIMABLE:
            lease_path.unlink()
            return None
        reclaim = meta["status"] == "running" or meta["attempts"] > 0
        with obs.span("exec.claim", job=meta["id"], worker=worker,
                      reclaim=reclaim):
            meta["status"] = "running"
            meta["attempts"] = int(meta["attempts"]) + 1
            meta["worker"] = worker
            self._write_job(meta["id"], meta)
        if reclaim:
            obs.inc("exec.reclaims")
            self._journal("reclaim", job=meta["id"], worker=worker,
                          attempt=meta["attempts"])
        else:
            self._journal("claim", job=meta["id"], worker=worker)
        return Lease(self, meta["id"], worker, nonce, expires)

    def force_expire(self, job_id):
        """Atomically rewrite a job's lease as already expired.

        Preserves the worker/nonce (the holder's heartbeat keeps failing
        the nonce check only if someone re-claims; until then a renewal
        would legally revive the lease, exactly as with a real timeout).
        Returns ``True`` when a lease file existed.  This is the test
        hook for crash-recovery scenarios: it compresses the "stopped
        renewing, expiry passed" wait to zero without touching any clock.
        """
        lease_path = self.jobs_dir / job_id / "lease.json"
        current = _read_json(lease_path)
        if current is None:
            return False
        current["expires"] = 0.0
        _atomic_write_text(lease_path, json.dumps(current))
        self._journal("force_expire", job=job_id,
                      worker=current.get("worker"))
        return True

    def renew(self, lease, lease_seconds):
        """Heartbeat: push the lease expiry out by ``lease_seconds``.

        Returns ``False`` when the lease was lost (nonce replaced by a
        reclaiming worker) — the renewal is then a no-op.
        """
        lease_path = self.jobs_dir / lease.job_id / "lease.json"
        with obs.span("exec.lease_renew", job=lease.job_id,
                      worker=lease.worker):
            current = _read_json(lease_path)
            if current is None or current.get("nonce") != lease.nonce:
                return False
            lease.expires = self.clock() + float(lease_seconds)
            _atomic_write_text(lease_path, json.dumps(
                {"worker": lease.worker, "nonce": lease.nonce,
                 "expires": lease.expires}))
        obs.inc("exec.lease_renewals")
        self._journal("renew", job=lease.job_id, worker=lease.worker)
        return True

    def load_task(self, job_id):
        """``(callable, task)`` for one claimed job."""
        ref, task = pickle.loads(
            (self.jobs_dir / job_id / "spec.pkl").read_bytes())
        return resolve_ref(ref), task

    def complete(self, lease, result):
        """Persist the result and mark the job done (result lands first,
        atomically, so a ``done`` status always has a readable result)."""
        job_dir = self.jobs_dir / lease.job_id
        _atomic_write_bytes(job_dir / "result.pkl",
                            pickle.dumps(result,
                                         protocol=pickle.HIGHEST_PROTOCOL))
        meta = self.job_meta(lease.job_id)
        meta["status"] = "done"
        meta["worker"] = lease.worker
        self._write_job(lease.job_id, meta)
        self._release(lease)
        self._journal("done", job=lease.job_id, worker=lease.worker)

    def fail(self, lease, exc):
        """Persist the failure (exception pickled best-effort)."""
        job_dir = self.jobs_dir / lease.job_id
        try:
            payload = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            payload = pickle.dumps(
                RuntimeError(f"{type(exc).__name__}: {exc}"))
        _atomic_write_bytes(job_dir / "error.pkl", payload)
        meta = self.job_meta(lease.job_id)
        meta["status"] = "failed"
        meta["worker"] = lease.worker
        self._write_job(lease.job_id, meta)
        self._release(lease)
        self._journal("failed", job=lease.job_id, worker=lease.worker,
                      error=f"{type(exc).__name__}: {exc}")

    def _release(self, lease):
        lease_path = self.jobs_dir / lease.job_id / "lease.json"
        current = _read_json(lease_path)
        if current is not None and current.get("nonce") == lease.nonce:
            try:
                lease_path.unlink()
            except FileNotFoundError:
                pass


@register_backend("queue")
class QueueBackend(ExecutionBackend):
    """Execute tasks through the durable store-backed queue.

    By default the backend spawns its own local worker fleet (so
    ``backend="queue"`` works out of the box and parity-tests against the
    other backends); with ``workers_external=True`` it only enqueues and
    polls, and separately launched ``repro worker <store>`` daemons — on
    any machine sharing the store — do the training.
    """

    def __init__(self, store, max_workers=None, workers_external=False,
                 lease_seconds=30.0, poll=0.2, wait_timeout=None):
        from ..store import RunStore
        self.store_root = str(RunStore.coerce(store).root)
        self.queue = TaskQueue.for_store(self.store_root)
        self.max_workers = max_workers
        self.workers_external = workers_external
        self.lease_seconds = float(lease_seconds)
        self.poll = float(poll)
        self.wait_timeout = wait_timeout

    @classmethod
    def from_options(cls, *, max_workers=None, store=None,
                     workers_external=False):
        if store is None:
            raise ValueError(
                "the queue backend needs a run store for its durable job "
                "records; pass store= (or --store on the CLI)")
        return cls(store, max_workers=max_workers,
                   workers_external=workers_external)

    def _spawn_workers(self, n_tasks):
        import multiprocessing
        from .worker import run_worker
        n = self.max_workers
        if n is None:
            n = min(n_tasks, os.cpu_count() or 1)
        context = multiprocessing.get_context("fork")
        workers = []
        for index in range(n):
            proc = context.Process(
                target=run_worker, args=(self.store_root,),
                kwargs={"worker_id": f"local-{os.getpid()}-{index}",
                        "lease_seconds": self.lease_seconds,
                        "poll": self.poll, "exit_when_idle": True},
                daemon=True)
            proc.start()
            workers.append(proc)
        return workers

    def submit(self, fn, tasks, labels, verbose=False):
        ref = function_ref(fn)
        with obs.span("exec.enqueue", jobs=len(tasks)):
            job_ids = self.queue.enqueue(ref, tasks, labels)
        obs.inc("exec.tasks_enqueued", len(tasks))
        workers = [] if self.workers_external else self._spawn_workers(
            len(tasks))
        try:
            self._wait(job_ids, labels, workers, verbose)
        finally:
            for proc in workers:
                proc.join(timeout=10.0)
                if proc.is_alive():
                    proc.terminate()
        return [self.queue.load_result(job_id) for job_id in job_ids]

    def _wait(self, job_ids, labels, workers, verbose):
        deadline = (None if self.wait_timeout is None
                    else time.time() + float(self.wait_timeout))
        reported = set()
        while True:
            pending = 0
            for index, job_id in enumerate(job_ids):
                meta = self.queue.job_meta(job_id) or {}
                status = meta.get("status")
                if status == "failed":
                    self.queue.cancel_queued(job_ids)
                    exc = self.queue.load_error(job_id)
                    raise _with_cell_label(exc, labels[index]) from exc
                if status == "done":
                    if verbose and job_id not in reported:
                        reported.add(job_id)
                        result = self.queue.load_result(job_id)
                        print(f"[{labels[index]}] finished in "
                              f"{result.wall_seconds:.1f}s")
                else:
                    pending += 1
            obs.gauge("exec.queue_depth", pending)
            if pending == 0:
                return
            if workers and not any(p.is_alive() for p in workers):
                if not self.queue.pending(job_ids):
                    # the fleet drained the queue between the status read
                    # and the liveness check; pick the results up next pass
                    continue
                raise RuntimeError(
                    f"all {len(workers)} queue workers exited with "
                    f"{pending} task(s) unfinished; see "
                    f"{self.queue.journal_path}")
            if deadline is not None and time.time() > deadline:
                self.queue.cancel_queued(job_ids)
                raise TimeoutError(
                    f"queue backend timed out after {self.wait_timeout}s "
                    f"with {pending} task(s) pending; is a "
                    f"`repro worker {self.store_root}` process running?")
            time.sleep(self.poll)

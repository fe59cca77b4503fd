"""The persistent run store: durable, resumable training-run records.

Each run owns one directory under the store root::

    runs/<run_id>/
        meta.json               identity, sizes, status, summary statistics
        config.toml             every field of the resolved config dataclass
        history.jsonl           append-only loss/error stream (one record per
                                line, flushed per record, so a killed run
                                loses at most the line being written)
        sampler.json            final sampler statistics (probe overhead etc.)
        checkpoints/
            step_00000039.npz   full training state after iteration 39

A checkpoint holds the network and optimizer state (via
:mod:`repro.training.checkpoint`), the LR-schedule state, and the state of
*every* sampler in the trainer (interior importance sampler and boundary
uniform samplers alike — each owns an RNG whose stream must continue
exactly), plus the step counter, elapsed wall seconds, and the validation
errors in effect.  Restoring all of it makes a resumed run's loss/error
trajectory bit-identical to an uninterrupted one.

Workers never share file handles: every run writes only inside its own
directory and ``meta.json`` updates are atomic (tmp + ``os.replace``), so a
process pool can record many runs into one store concurrently.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from pathlib import Path

import numpy as np

from ..training.checkpoint import (apply_checkpoint, load_checkpoint_tree,
                                   save_checkpoint)
from ..training.history import History
from . import toml_compat
from .config import config_from_tables, config_to_tables

__all__ = ["RunStore", "RunRecord", "RunRecorder", "STORE_ROOT_ENV",
           "history_from_jsonl", "save_training_checkpoint",
           "load_training_checkpoint"]

#: environment variable overriding the default store root (``./runs``)
STORE_ROOT_ENV = "REPRO_RUNS_DIR"

_CKPT_PREFIX = "step_"


def _scalar(value):
    return value.item() if isinstance(value, np.ndarray) else value


def _atomic_write(path, text):
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _history_line(step, wall_time, loss, errors, probe_points):
    return json.dumps({
        "step": int(step), "wall_time": float(wall_time),
        "loss": float(loss), "probe_points": int(probe_points),
        "errors": {k: float(v) for k, v in (errors or {}).items()},
    })


def history_from_jsonl(path, label="run", max_step=None):
    """Reload a :class:`History` from a run's ``history.jsonl``.

    A torn trailing line (the process was killed mid-write) ends the read;
    ``max_step`` drops records past a checkpoint for resume truncation.
    """
    history = History(label=label)
    path = Path(path)
    if not path.exists():
        return history
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                break
            if max_step is not None and rec["step"] > max_step:
                continue
            history.record(rec["step"], rec["wall_time"], rec["loss"],
                           errors=rec.get("errors") or {},
                           probe_points=rec.get("probe_points", 0))
    return history


class _StreamingHistory(History):
    """History that mirrors every record onto an append-only JSONL file."""

    def __init__(self, label, path):
        super().__init__(label=label)
        self._path = Path(path)

    def record(self, step, wall_time, loss, errors=None, probe_points=0):
        super().record(step, wall_time, loss, errors=errors,
                       probe_points=probe_points)
        line = _history_line(step, wall_time, loss, errors, probe_points)
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def preload(self, history):
        """Adopt already-persisted records (no re-writing) before resuming."""
        for i in range(len(history.steps)):
            errors = {var: history.errors[var][i] for var in history.errors}
            History.record(self, history.steps[i], history.wall_times[i],
                           history.losses[i], errors=errors,
                           probe_points=history.probe_points[i])


# ----------------------------------------------------------------------
# Full-training-state checkpoints
# ----------------------------------------------------------------------
def save_training_checkpoint(path, trainer, step, elapsed, errors):
    """Persist everything a bit-identical resume needs after ``step``."""
    extra = {
        "step": int(step),
        "elapsed": float(elapsed),
        "errors_json": json.dumps({k: float(v)
                                   for k, v in (errors or {}).items()}),
        "samplers": {name: sampler.state_dict()
                     for name, sampler in trainer.samplers.items()},
    }
    if trainer.scheduler is not None and hasattr(trainer.scheduler,
                                                 "state_dict"):
        extra["scheduler"] = trainer.scheduler.state_dict()
    modules = getattr(trainer, "extra_modules", None)
    if modules:
        # inverse problems: the trainable PDE coefficients' state rides
        # along, keyed by module name (their optimizer moments are already
        # inside the Adam state, in net-then-extras parameter order)
        extra["modules"] = {name: module.state_dict()
                            for name, module in modules.items()}
    save_checkpoint(path, trainer.net, trainer.optimizer, extra=extra)


def load_training_checkpoint(path, trainer):
    """Restore a :func:`save_training_checkpoint`; returns
    ``(step, elapsed_seconds, last_errors)``."""
    tree = load_checkpoint_tree(path)
    extra = tree.get("extra", {})
    # validate BEFORE applying anything: a rejected checkpoint must not
    # leave the trainer half-restored (net overwritten, modules stale)
    modules = getattr(trainer, "extra_modules", {}) or {}
    stored_modules = extra.get("modules", {})
    if sorted(modules) != sorted(stored_modules):
        raise KeyError(f"checkpoint extra-module mismatch: trainer has "
                       f"{sorted(modules)}, checkpoint holds "
                       f"{sorted(stored_modules)}")
    apply_checkpoint(tree, trainer.net, trainer.optimizer)
    for name, state in stored_modules.items():
        modules[name].load_state_dict(state)
    for name, state in extra["samplers"].items():
        if name not in trainer.samplers:
            raise KeyError(f"checkpoint has sampler state for unknown "
                           f"constraint {name!r}")
        trainer.samplers[name].load_state_dict(state)
    if "scheduler" in extra and trainer.scheduler is not None:
        trainer.scheduler.load_state_dict(
            {k: _scalar(v) for k, v in extra["scheduler"].items()})
    step = int(_scalar(extra["step"]))
    elapsed = float(_scalar(extra["elapsed"]))
    errors = json.loads(str(_scalar(extra["errors_json"])))
    return step, elapsed, errors


# ----------------------------------------------------------------------
# Records and recorders
# ----------------------------------------------------------------------
class RunRecord:
    """Read-only view of one persisted run directory."""

    def __init__(self, path):
        self.path = Path(path)
        meta_path = self.path / "meta.json"
        if not meta_path.exists():
            raise KeyError(f"no run record at {self.path}")
        self.meta = json.loads(meta_path.read_text(encoding="utf-8"))

    @property
    def run_id(self):
        return self.meta["run_id"]

    @property
    def status(self):
        return self.meta.get("status", "unknown")

    @property
    def label(self):
        return self.meta.get("label", self.run_id)

    def history(self):
        """The run's full recorded :class:`History`."""
        return history_from_jsonl(self.path / "history.jsonl",
                                  label=self.label)

    def checkpoints(self):
        """``[(step, path)]`` sorted by step."""
        directory = self.path / "checkpoints"
        if not directory.is_dir():
            return []
        found = []
        for entry in sorted(directory.iterdir()):
            name = entry.name
            if name.startswith(_CKPT_PREFIX) and name.endswith(".npz"):
                found.append((int(name[len(_CKPT_PREFIX):-4]), entry))
        return sorted(found)

    def latest_checkpoint(self):
        """``(step, path)`` of the newest checkpoint, or ``None``."""
        checkpoints = self.checkpoints()
        return checkpoints[-1] if checkpoints else None

    def load_config(self):
        """Rebuild the run's exact config dataclass from ``config.toml``."""
        return config_from_tables(toml_compat.load(self.path / "config.toml"))

    def sampler_stats(self):
        path = self.path / "sampler.json"
        if not path.exists():
            return {}
        return json.loads(path.read_text(encoding="utf-8"))

    def spans(self):
        """Recorded ``spans.jsonl`` span dicts (``[]`` when not traced).

        Torn-tail tolerant like :meth:`history`: a run killed mid-flush
        still yields every complete line.
        """
        from ..obs import read_jsonl
        return read_jsonl(self.path / "spans.jsonl")

    def metrics_snapshots(self):
        """Recorded ``metrics.jsonl`` snapshots (``[]`` when not traced)."""
        from ..obs import read_jsonl
        return read_jsonl(self.path / "metrics.jsonl")

    def last_metrics(self):
        """The final metrics snapshot, or ``None`` when not traced."""
        snapshots = self.metrics_snapshots()
        return snapshots[-1] if snapshots else None

    def size_bytes(self):
        return sum(f.stat().st_size for f in self.path.rglob("*")
                   if f.is_file())

    def __repr__(self):
        return (f"RunRecord({self.run_id!r}, problem="
                f"{self.meta.get('problem')!r}, status={self.status!r})")


class RunRecorder:
    """Write-side companion: streams history, checkpoints, and status."""

    def __init__(self, store, path, meta, checkpoint_every):
        self.store = store
        self.path = Path(path)
        self.meta = meta
        #: ``None`` for records that never checkpoint (data-parallel runs)
        self.checkpoint_every = (None if checkpoint_every is None
                                 else max(1, int(checkpoint_every)))

    @property
    def run_id(self):
        return self.meta["run_id"]

    def _write_meta(self):
        self.meta["updated_at"] = time.time()
        _atomic_write(self.path / "meta.json",
                      json.dumps(self.meta, indent=2) + "\n")

    # -- history -------------------------------------------------------
    def streaming_history(self, label, resume_from_step=None):
        """A :class:`History` that also appends every record to disk.

        On resume, records up to ``resume_from_step`` (exclusive) are kept:
        the JSONL file is truncated past the checkpoint (a killed run may
        have recorded steps newer than its last checkpoint, which the
        resumed run will replay) and the survivors are preloaded.
        """
        jsonl = self.path / "history.jsonl"
        history = _StreamingHistory(label, jsonl)
        if resume_from_step is not None:
            prior = history_from_jsonl(jsonl, label=label,
                                       max_step=resume_from_step - 1)
            lines = [_history_line(prior.steps[i], prior.wall_times[i],
                                   prior.losses[i],
                                   {v: prior.errors[v][i]
                                    for v in prior.errors},
                                   prior.probe_points[i])
                     for i in range(len(prior.steps))]
            _atomic_write(jsonl, "".join(line + "\n" for line in lines))
            history.preload(prior)
        return history

    # -- checkpoints ----------------------------------------------------
    def save_checkpoint(self, trainer, step, elapsed, errors):
        directory = self.path / "checkpoints"
        directory.mkdir(exist_ok=True)
        final = directory / f"{_CKPT_PREFIX}{step:08d}.npz"
        tmp = directory / f".tmp-{os.getpid()}.npz"
        save_training_checkpoint(tmp, trainer, step, elapsed, errors)
        os.replace(tmp, final)
        self.meta["last_checkpoint_step"] = int(step)
        self._write_meta()

    def checkpoint_hook(self, trainer):
        """A trainer ``step_hook`` writing a checkpoint every N steps."""
        def hook(step, trainer=trainer, clock=None, errors=None, **_):
            if (step + 1) % self.checkpoint_every == 0:
                elapsed = clock.elapsed() if clock is not None else 0.0
                self.save_checkpoint(trainer, step, elapsed, errors)
        return hook

    def load_latest_checkpoint(self, trainer):
        """Restore the newest checkpoint into ``trainer``; returns
        ``(step, elapsed, errors)`` or ``None`` when no checkpoint exists."""
        record = RunRecord(self.path)
        latest = record.latest_checkpoint()
        if latest is None:
            return None
        return load_training_checkpoint(latest[1], trainer)

    # -- lifecycle ------------------------------------------------------
    def finish(self, history, stats):
        """Mark completed and persist summary statistics plus the run's
        :class:`~repro.api.types.SamplerStats`."""
        self.meta["status"] = "completed"
        if history.steps:
            self.meta["last_step"] = int(history.steps[-1])
            self.meta["wall_seconds"] = float(history.wall_times[-1])
            self.meta["final_loss"] = float(history.losses[-1])
            self.meta["min_errors"] = {
                var: history.min_error(var) for var in sorted(history.errors)
                if np.isfinite(history.min_error(var))}
        self._write_meta()
        record = {
            "name": stats.name,
            "probe_points": stats.probe_points,
            "refresh_count": stats.refresh_count,
            "rebuild_count": stats.rebuild_count,
            "n_clusters": (None if stats.labels is None
                           else int(len(np.unique(stats.labels)))),
        }
        _atomic_write(self.path / "sampler.json",
                      json.dumps(record, indent=2) + "\n")

    def mark_stopped(self, exc):
        """Record why training ended early (a serial run can resume)."""
        self.meta["status"] = ("interrupted"
                               if isinstance(exc, KeyboardInterrupt)
                               else "failed")
        self.meta["error"] = f"{type(exc).__name__}: {exc}"
        self._write_meta()


class RunStore:
    """A directory of persistent run records.

    Every run trained with ``store=`` persists a self-describing directory
    (``meta.json``, ``config.toml``, ``history.jsonl``, ``sampler.json``,
    ``checkpoints/``) under this root; the ``repro runs`` CLI family and
    :func:`repro.store.resume_run` read them back.

    Parameters
    ----------
    root : str or Path, optional
        Store root directory.  Defaults to ``$REPRO_RUNS_DIR`` when set,
        else ``./runs``.  Created lazily on the first recorded run.

    See Also
    --------
    repro.store.resume_run : continue a stored run from its newest
        checkpoint, bit-identically.
    RunRecord : the read-only view of one stored run.

    Examples
    --------
    >>> import tempfile
    >>> import repro
    >>> from repro.store import RunStore
    >>> store = RunStore(tempfile.mkdtemp())
    >>> result = (repro.problem("burgers", scale="smoke")
    ...           .sampler("uniform").n_interior(200).validators([])
    ...           .train(steps=2, store=store))
    >>> store.open(result.run_id).status
    'completed'
    >>> len(store)
    1
    """

    def __init__(self, root=None):
        if root is None:
            root = os.environ.get(STORE_ROOT_ENV, "runs")
        self.root = Path(root)

    @classmethod
    def coerce(cls, store):
        """Accept a :class:`RunStore`, a path, or ``None`` (default root)."""
        if isinstance(store, cls):
            return store
        return cls(store)

    # ------------------------------------------------------------------
    def _new_run_id(self, problem, sampler):
        stamp = time.strftime("%Y%m%d-%H%M%S")
        return f"{problem}-{sampler}-{stamp}-{uuid.uuid4().hex[:8]}"

    def begin_run(self, *, problem, config, sampler, seed, steps, label,
                  n_interior, batch_size, validators="default", run_id=None,
                  checkpoint_every=None, dp_shards=None, world_size=1):
        """Create a run directory and return its :class:`RunRecorder`.

        ``dp_shards`` is a data-parallel run's logical shard count
        (``None`` for serial runs).  Data-parallel records write no
        checkpoints, so their ``checkpoint_every`` is recorded as ``None``.
        """
        run_id = run_id or self._new_run_id(problem, sampler)
        path = self.root / run_id
        if path.exists():
            raise FileExistsError(f"run {run_id!r} already exists in "
                                  f"{self.root}")
        (path / "checkpoints").mkdir(parents=True)
        if dp_shards is not None:
            checkpoint_every = None
        elif checkpoint_every is None:
            checkpoint_every = int(max(config.record_every,
                                       config.validate_every))
        else:
            checkpoint_every = int(checkpoint_every)
        meta = {
            "run_id": run_id,
            "problem": problem,
            "sampler": sampler,
            "label": label,
            "scale": getattr(config, "scale", None),
            "seed": int(seed),
            "steps": int(steps),
            "n_interior": int(n_interior),
            "batch_size": int(batch_size),
            "validators": validators,
            "checkpoint_every": checkpoint_every,
            "dp_shards": None if dp_shards is None else int(dp_shards),
            "world_size": int(world_size),
            "status": "running",
            "created_at": time.time(),
            **_environment_meta(),
        }
        recorder = RunRecorder(self, path, meta, checkpoint_every)
        toml_compat.dump(config_to_tables(problem, config),
                         path / "config.toml")
        recorder._write_meta()
        return recorder

    def resume_recorder(self, run_id, steps=None, checkpoint_every=None):
        """Re-open an existing run for continued recording.

        A ``completed`` run only re-opens when ``steps`` extends past its
        recorded total (continue a finished run further); interrupted /
        failed / stale-running runs always re-open.  ``checkpoint_every``
        overrides the cadence recorded at launch.
        """
        record = self.open(run_id)
        meta = dict(record.meta)
        if meta.get("status") == "completed":
            if steps is None or int(steps) <= int(meta.get("steps", 0)):
                raise ValueError(
                    f"run {run_id!r} already completed its "
                    f"{meta.get('steps')} steps; pass a larger step count "
                    f"to extend it")
        if steps is not None:
            meta["steps"] = int(steps)
        if checkpoint_every is not None:
            meta["checkpoint_every"] = int(checkpoint_every)
        meta["status"] = "running"
        meta.pop("error", None)
        recorder = RunRecorder(self, record.path, meta,
                               meta.get("checkpoint_every", 1))
        recorder._write_meta()
        return recorder

    # ------------------------------------------------------------------
    def open(self, run_id):
        """Open one record; raises ``KeyError`` naming known runs."""
        path = self.root / run_id
        if not (path / "meta.json").exists():
            known = [r.run_id for r in self.runs()]
            raise KeyError(f"unknown run {run_id!r} in {self.root}; "
                           f"known runs: {known}")
        return RunRecord(path)

    def runs(self, problem=None, status=None):
        """All records (newest first), optionally filtered."""
        if not self.root.is_dir():
            return []
        records = []
        for entry in sorted(self.root.iterdir()):
            if not (entry / "meta.json").exists():
                continue
            try:
                record = RunRecord(entry)
            except (KeyError, json.JSONDecodeError):
                continue
            if problem is not None and record.meta.get("problem") != problem:
                continue
            if status is not None and record.status != status:
                continue
            records.append(record)
        records.sort(key=lambda r: r.meta.get("created_at", 0.0),
                     reverse=True)
        return records

    def delete(self, run_id):
        """Remove one run directory entirely."""
        record = self.open(run_id)
        shutil.rmtree(record.path)

    def __contains__(self, run_id):
        return (self.root / run_id / "meta.json").exists()

    def __len__(self):
        return len(self.runs())

    def __repr__(self):
        return f"RunStore({str(self.root)!r})"


def _environment_meta():
    """Provenance: versions + git commit (best effort, never fatal)."""
    import platform

    import repro
    meta = {
        "repro_version": repro.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
    }
    try:
        import subprocess
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__))).stdout.strip()
        if commit:
            meta["git_commit"] = commit
    except Exception:
        pass
    return meta

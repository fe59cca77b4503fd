"""Resume a stored run from its latest checkpoint.

The record carries everything a reconstruction needs — the resolved config
(``config.toml``), the run seed, dataset/batch sizes, and the sampler kind —
so :func:`resume_run` rebuilds the problem exactly as the original process
did, restores the full training state from the newest checkpoint, and
continues the loop.  The combined loss/error trajectory is bit-identical to
an uninterrupted run (wall times continue approximately, via the elapsed
seconds stored in the checkpoint).
"""

from __future__ import annotations

import numpy as np

__all__ = ["resume_run"]


def resume_run(store, run_id, steps=None, checkpoint_every=None,
               trace=False):
    """Continue ``run_id`` to its configured step count.

    Parameters
    ----------
    store:
        A :class:`~repro.store.RunStore` (or store root path).
    run_id:
        The run to continue.  Runs in any non-``completed`` status resume;
        a ``completed`` run re-opens only when ``steps`` extends past its
        recorded total.  Without a checkpoint the run restarts from step 0
        (nothing was persisted to continue from, but the record is reused).
        A data-parallel record (``dp_shards`` in its ``meta.json``) raises
        ``ValueError``: it has no checkpoints, and the serial trainer would
        not continue its trajectory.
    steps:
        Optional new total step count (e.g. extend a finished run);
        defaults to the step count recorded at launch.
    checkpoint_every:
        Optional new checkpoint cadence for the continued stretch
        (default: the cadence recorded at launch).
    trace:
        Record :mod:`repro.obs` spans/metrics for the continued stretch;
        appended to the record's existing ``spans.jsonl``/``metrics.jsonl``
        (if any), so a run profiled across interruptions accumulates one
        stream.

    Returns
    -------
    :class:`~repro.api.RunResult` with the *full* history (pre-interruption
    records plus the resumed tail).
    """
    from ..api.problems import build_problem
    from ..api.session import run_problem
    from .run_store import RunStore

    store = RunStore.coerce(store)
    record = store.open(run_id)
    meta = record.meta
    if meta.get("dp_shards") is not None:
        raise ValueError(
            f"run {run_id!r} trained data-parallel over "
            f"{meta['dp_shards']} shards, which writes no checkpoints; "
            f"resuming it would continue a different (serial) trajectory. "
            f"Data-parallel resume is ROADMAP item 6; re-run instead")
    if meta.get("validators") == "custom":
        raise ValueError(
            f"run {run_id!r} trained with caller-supplied validators, which "
            f"are not persisted; re-run instead of resuming")
    config = record.load_config()
    validators = [] if meta.get("validators") == "none" else None
    prob = build_problem(meta["problem"], config, meta["n_interior"],
                         np.random.default_rng(meta["seed"]))
    return run_problem(
        prob, config, sampler=meta["sampler"],
        batch_size=meta["batch_size"], seed=meta["seed"],
        steps=int(steps) if steps is not None else meta["steps"],
        label=meta.get("label"), validators=validators,
        store=store, run_id=run_id, resume=True,
        checkpoint_every=checkpoint_every, trace=trace)

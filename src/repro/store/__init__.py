"""Persistent run store: durable, resumable, comparable training runs.

The paper's headline claim is wall-clock speedup measured over runs that
span days; credible reproduction needs run records that survive the
process.  This package provides:

* :class:`RunStore` / :class:`RunRecord` — a directory-backed store where
  every training run persists its resolved config (TOML), seed and
  provenance metadata, an append-only JSONL loss/error stream, final
  sampler statistics, and periodic full-state checkpoints;
* :class:`RunConfig` / :func:`load_run_config` — TOML/JSON experiment files
  that resolve into the registered problem/sampler machinery
  (``repro run --config exp.toml``);
* :func:`resume_run` — continue a stored run from its newest checkpoint
  with a bit-identical loss trajectory.

Tables and figures of stored runs (``repro runs compare`` / ``repro runs
plot``) come from :mod:`repro.experiments.report`, the one reporting
module: :func:`~repro.experiments.report.stored_histories` turns records
into ``{problem: {label: History}}`` and the same table and curve
functions a live sweep uses render them.

Typical use::

    import repro
    from repro.store import RunStore, resume_run

    store = RunStore("runs")
    result = (repro.problem("burgers", scale="smoke")
              .sampler("sgm")
              .train(steps=200, store=store))
    # later — possibly from another process entirely
    resumed = resume_run(store, result.run_id, steps=400)
"""

from .config import (RunConfig, config_from_tables, config_to_tables,
                     load_run_config)
from .resume import resume_run
from .retention import keep_best_victims, run_score
from .run_store import (STORE_ROOT_ENV, RunRecord, RunRecorder, RunStore,
                        history_from_jsonl, load_training_checkpoint,
                        save_training_checkpoint)

__all__ = [
    "RunStore", "RunRecord", "RunRecorder", "STORE_ROOT_ENV",
    "RunConfig", "load_run_config", "config_to_tables", "config_from_tables",
    "resume_run", "keep_best_victims", "run_score",
    "history_from_jsonl",
    "save_training_checkpoint", "load_training_checkpoint",
]

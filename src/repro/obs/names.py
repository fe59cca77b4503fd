"""The metric-name catalog: every metric the instrumented paths may emit.

Metric names are closed-world on purpose: :meth:`MetricsRegistry.inc` and
:meth:`MetricsRegistry.set_gauge` reject names missing from this catalog, so
an instrumentation typo fails loudly in tests instead of silently forking a
new series, and ``tools/check_docs.py`` can require that every emitted name
is documented in ``docs/observability.md``.  Extensions register their own
names through :func:`register_metric` before first use.

Kinds
-----
``counter``
    Monotonic accumulator (``inc``); integers or float seconds.
``gauge``
    Last-written value (``set_gauge``); snapshots record the current level.
"""

from __future__ import annotations

__all__ = ["METRICS", "metric_catalog", "register_metric"]

#: name -> (kind, description); the single source docs/check_docs verify
METRICS = {
    # -- trainer --------------------------------------------------------
    "train.steps": (
        "counter", "optimizer steps completed"),
    "train.validations": (
        "counter", "validator sweeps executed"),
    "train.loss": (
        "gauge", "loss value at the latest history record"),
    # -- wall-clock accounting (TrainingClock) --------------------------
    "clock.raw_seconds": (
        "gauge", "raw wall seconds since training started (no credit)"),
    "clock.credited_seconds": (
        "gauge", "seconds credited back for hidden background rebuilds"),
    "clock.train_seconds": (
        "gauge", "visible training seconds (raw minus credited)"),
    # -- samplers -------------------------------------------------------
    "sampler.probe_points": (
        "gauge", "total points probed for importance refreshes (section 3.6 "
                 "overhead)"),
    "sampler.rebuild_count": (
        "counter", "kNN graph + cluster (re)builds performed"),
    "sampler.rebuild_seconds": (
        "counter", "wall seconds spent in graph/cluster (re)builds"),
    "sampler.refresh_count": (
        "counter", "importance-weight refreshes performed"),
    "sampler.refresh_seconds": (
        "counter", "wall seconds spent refreshing importance weights "
                   "(probe forward passes included)"),
    # -- replay engine --------------------------------------------------
    "replay.compile_count": (
        "counter", "tape-to-program compilations attempted and accepted"),
    "replay.compile_seconds": (
        "counter", "wall seconds spent compiling replay programs"),
    "replay.fallback_refused": (
        "counter", "permanent eager fallbacks after ReplayRefused"),
    "replay.fallback_stale": (
        "counter", "permanent eager fallbacks after ReplayStale"),
    "replay.instructions": (
        "gauge", "instructions in the compiled replay program"),
    "replay.cse_hits": (
        "gauge", "recorded tensors deduplicated by common-subexpression "
                 "elimination"),
    "replay.dead_pruned": (
        "gauge", "recorded tensors pruned as dead nodes"),
    "replay.baked_constants": (
        "gauge", "stable constants baked into the replay program"),
    # -- execution backends ---------------------------------------------
    "exec.tasks_enqueued": (
        "counter", "tasks submitted to the store-backed job queue"),
    "exec.queue_depth": (
        "gauge", "jobs not yet in a terminal status at the last poll"),
    "exec.reclaims": (
        "counter", "expired-lease takeovers (a worker crashed mid-job and "
                   "a sibling re-claimed it)"),
    "exec.lease_renewals": (
        "counter", "heartbeat renewals of live job leases"),
    # -- data-parallel training ------------------------------------------
    "dp.allreduce_rounds": (
        "counter", "allreduce rounds completed (gradient and validation)"),
    "dp.bytes_reduced": (
        "counter", "payload bytes gathered and tree-reduced across shards"),
    "dp.straggler_wait_seconds": (
        "counter", "wall seconds a rank spends blocked waiting for peer "
                   "shard frames"),
    "dp.shards": (
        "gauge", "logical shard count of the data-parallel run"),
}


def metric_catalog():
    """``[{name, kind, description}]`` for docs and ``check_docs``."""
    return [{"name": name, "kind": kind, "description": description}
            for name, (kind, description) in sorted(METRICS.items())]


def register_metric(name, kind, description):
    """Add a metric name to the catalog (extensions call this once).

    Re-registering an existing name with a different kind is rejected —
    a counter silently becoming a gauge would corrupt every consumer.
    """
    if kind not in ("counter", "gauge"):
        raise ValueError(f"metric kind must be 'counter' or 'gauge', "
                         f"got {kind!r}")
    existing = METRICS.get(name)
    if existing is not None and existing[0] != kind:
        raise ValueError(f"metric {name!r} already registered as "
                         f"{existing[0]}, cannot re-register as {kind}")
    METRICS[name] = (kind, str(description))

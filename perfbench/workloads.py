"""The benchmark's training workloads and the arithmetic that scores them.

A *rep* is one complete training run through the program's real entry
points (``build_problem`` -> ``run_problem``, or ``run_dp``).  Every rep
draws its point clouds and sampler streams from its own seed; the network
initialisation is the workload's fixed ``config.seed``, so reps differ in
their data, not in their starting weights.  The load is a closed loop:
one trainer, each optimizer step waiting for the previous one.

All wall times come from the benchmark's own clock (see ``layers.Trace``).
``History.wall_times`` is never used: ``TrainingClock`` credits mid-run
graph rebuilds back (the paper's emulated background thread), so a slower
rebuild would look free there.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["WORKLOADS", "Workload", "fastest_windows", "first_crossing",
           "layer_metrics", "loop_figures", "mean_error", "rep_layers",
           "run_rep"]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    sampler: str
    steps: int
    #: validation error that ``time_to_target_s`` waits for: the mean
    #: relative L2 over all variables, or of ``target_var`` alone
    target_err: float
    #: recorded median ``final_err`` on this workload, and the relative band
    #: a run's median must stay within
    reference_err: float
    err_tolerance: float
    #: reps whose ``final_err`` median is reported (a fixed count, so the
    #: figure is a pure function of the seed); timings use every rep
    scored_reps: int
    overrides: tuple = ()
    target_var: str = None
    compile: bool = False
    #: record the run to a ``RunStore``, checkpointing every N steps
    checkpoint_every: int = None
    world_size: int = None
    n_shards: int = None

    def config(self):
        from repro.api.registry import problem_registry
        config = problem_registry.get(self.problem).config_factory("repro")
        return dataclasses.replace(config, **dict(self.overrides))


_VALIDATE = (("validate_every", 10), ("record_every", 10))
#: the untimed warm-up rep: a small cloud, so it costs about a second
WARMUP_INTERIOR = 2000
WARMUP_STEPS = 30

WORKLOADS = {w.name: w for w in (
    Workload("burgers_sgm_replay", "burgers", "sgm", steps=300,
             target_err=0.30, reference_err=0.19, err_tolerance=0.35,
             scored_reps=16, overrides=_VALIDATE, compile=True),
    Workload("ldc_mis_eager", "ldc", "mis", steps=300,
             target_err=0.92, reference_err=0.82, err_tolerance=0.15,
             scored_reps=2, overrides=_VALIDATE + (("tau_e", 150),)),
    Workload("annular_sgm_s_durable", "annular_ring", "sgm_s", steps=200,
             target_err=0.875, target_var="u", reference_err=0.988,
             err_tolerance=0.05, scored_reps=4,
             overrides=_VALIDATE + (("tau_e", 100), ("tau_G", 150)),
             compile=True, checkpoint_every=50),
    Workload("burgers_sgm_dp2", "burgers", "sgm", steps=200,
             target_err=0.30, reference_err=0.22, err_tolerance=0.35,
             scored_reps=6, overrides=_VALIDATE, compile=True,
             world_size=2, n_shards=4),
)}


# ----------------------------------------------------------------------
# Scoring arithmetic
# ----------------------------------------------------------------------
def mean_error(errors):
    """Mean of the finite per-variable errors, or ``None``."""
    values = [float(v) for v in errors.values() if math.isfinite(float(v))]
    return sum(values) / len(values) if values else None


def first_crossing(records, target, var=None):
    """Index of the first record whose error -- the mean over variables, or
    ``var``'s alone -- is at or below ``target`` (``None`` when never
    reached).

    The first crossing counts even when the error later rises again: a
    non-monotone trace reaches the target once, at its first dip.
    """
    for index, (_clock, _step, _loss, errors) in enumerate(records):
        if var is not None:
            errors = {var: errors.get(var, math.nan)}
        err = mean_error(errors)
        if err is not None and err <= target:
            return index
    return None


def fastest_windows(reps):
    """Each loop window's fastest time across reps.

    A rep's loop splits at its history records (every ``record_every``
    steps) into windows that do the same work in every rep: the same batch
    sizes and the same refresh, rebuild, validation and checkpoint
    schedule.  Other tenants of a shared host only ever slow a window
    down, for seconds at a time, so the fastest of a window's times is a
    steady estimate of its cost.
    """
    lengths = {len(rep["windows"]) for rep in reps}
    if len(lengths) != 1:
        raise ValueError(f"reps split into different window counts {lengths}")
    return [min(times) for times in zip(*(rep["windows"] for rep in reps))]


def loop_figures(reps, steps):
    """``(steps_per_s, time_to_target_s)`` from the reps' fastest windows.

    ``steps_per_s`` is ``steps`` over the summed fastest windows;
    ``time_to_target_s`` is the median over reps of the summed fastest
    windows up to each rep's own first crossing.
    """
    fastest = fastest_windows(reps)
    to_target = [sum(fastest[:rep["crossing"] + 1]) for rep in reps]
    return steps / sum(fastest), statistics.median(to_target)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(export):
    """Per-layer figures of one process's trace export (one training run)."""
    self_s, calls = export["self_s"], export["calls"]
    counts, gauges = export["counts"], export["gauges"]

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    loop_wall = export["train_end"] - export["last_start"]
    steps = n("nn.optimizer")
    probe_points = counts.get("sampling.probe_points", 0.0)
    return {
        "api.build_problem_s": s("api.build_problem"),
        "graph.knn_s": s("graph.knn"),
        "graph.lrd_s": s("graph.lrd"),
        "graph.calls": n("graph.knn") + n("graph.lrd"),
        "graph.clusters": gauges.get("graph.clusters", 0),
        "stability.spade_s": s("stability.spade"),
        "stability.spade_calls": n("stability.spade"),
        "sampling.batch_s": s("sampling.batch"),
        "sampling.refresh_s": s("sampling.refresh"),
        "sampling.refreshes": n("sampling.refresh"),
        "sampling.probe_s": s("sampling.probe"),
        "sampling.probe_points": probe_points,
        "sampling.probe_points_per_s": _ratio(probe_points,
                                              s("sampling.probe")),
        "sampling.probe_per_sample": _ratio(
            probe_points, counts.get("sampling.samples", 0.0)),
        "autodiff.forward_s": s("autodiff.forward"),
        "autodiff.backward_s": s("autodiff.backward"),
        "autodiff.replay_s": s("autodiff.replay"),
        "autodiff.replay_calls": n("autodiff.replay"),
        "autodiff.compile_s": s("autodiff.compile"),
        "nn.optimizer_s": s("nn.optimizer"),
        "nn.optimizer_steps": steps,
        "training.validate_s": s("training.validate"),
        "training.validations": counts.get("training.validations", 0.0),
        "training.loop_self_s": s("training.loop"),
        "training.credited_s": counts.get("training.credited_s", 0.0),
        "training.coverage": 1.0 - _ratio(s("training.loop"), loop_wall),
        "store.record_s": s("store.record"),
        "store.checkpoint_s": s("store.checkpoint"),
        "store.checkpoints": n("store.checkpoint"),
        "dp.exchange_s": s("dp.exchange"),
        "dp.reduce_s": s("dp.reduce"),
        "dp.rounds": counts.get("dp.rounds", 0.0),
        "dp.bytes_per_step": _ratio(counts.get("dp.bytes", 0.0), steps),
    }


# ----------------------------------------------------------------------
# One training run
# ----------------------------------------------------------------------
def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def run_rep(workload, seed, trace, scratch, steps=None, n_interior=None):
    """Train once; return ``(figures, failures)``.

    ``figures`` holds the rep's end-to-end quantities plus its per-process
    trace exports; ``failures`` lists every correctness check that failed.
    ``steps=0`` measures set-up alone.
    """
    from repro.api import problems
    from repro.api.session import run_problem
    from repro.dp import run_dp

    steps = workload.steps if steps is None else steps
    config = workload.config()
    trace.reset()
    store_dir = None
    t0 = trace.clock()
    if workload.world_size:
        result = run_dp(workload.problem, config, sampler=workload.sampler,
                        seed=seed, steps=steps, n_interior=n_interior,
                        world_size=workload.world_size,
                        n_shards=workload.n_shards, backend="process",
                        compile=workload.compile)
        exports = [rank.pop("perfbench") for rank in result.rank_results]
    else:
        prob = problems.build_problem(workload.problem, config, n_interior,
                                      np.random.default_rng(seed))
        if workload.checkpoint_every is not None:
            store_dir = tempfile.mkdtemp(prefix="store-", dir=scratch)
        try:
            result = run_problem(prob, config, sampler=workload.sampler,
                                 seed=seed, steps=steps, store=store_dir,
                                 checkpoint_every=workload.checkpoint_every,
                                 compile=workload.compile)
        finally:
            bytes_written = 0 if store_dir is None else _dir_bytes(store_dir)
            if store_dir is not None:
                shutil.rmtree(store_dir, ignore_errors=True)
        exports = [trace.export()]
        exports[0]["bytes_written"] = bytes_written

    head = exports[0]
    last_start = max(e["last_start"] for e in exports)
    train_end = max(e["train_end"] for e in exports)
    figures = {
        "setup_s": last_start - t0,
        "loop_s": train_end - last_start,
        "rss_mb": max(e["rss_mb"] for e in exports),
        "exports": exports,
    }
    failures = []
    if steps == 0:
        return figures, failures

    records = head["records"]
    clocks = [last_start] + [clock for clock, *_ in records] + [train_end]
    figures["windows"] = [b - a for a, b in zip(clocks, clocks[1:])]
    crossed = first_crossing(records, workload.target_err,
                             workload.target_var)
    # a rep that never reaches the target counts its whole loop
    figures["crossing"] = len(records) - 1 if crossed is None else crossed
    figures["steps_per_s"] = steps / figures["loop_s"]
    figures["time_to_target_s"] = sum(
        figures["windows"][:figures["crossing"] + 1])
    last = records[-1] if records else None
    final = None if last is None else mean_error(last[3])
    figures["final_err"] = math.nan if final is None else final

    losses = result.history.losses
    if not losses or not all(math.isfinite(v) for v in losses):
        failures.append("non-finite or missing loss")
    if last is None or last[1] != steps - 1:
        failures.append("training did not reach its last step")
    if not math.isfinite(figures["final_err"]):
        failures.append("non-finite final validation error")
    if workload.compile:
        modes = [mode for e in exports for mode in e["modes"]]
        if not modes or any(mode != "replay" for mode in modes):
            failures.append(f"compiled run ended in modes {modes}")
    if workload.world_size:
        states = [rank["net_state"] for rank in result.rank_results]
        if any(sorted(s) != sorted(states[0])
               or any(not np.array_equal(s[k], states[0][k]) for k in s)
               for s in states[1:]):
            failures.append("final weights differ across dp ranks")
    return figures, failures


def rep_layers(figures, compile):
    """Per-layer figures of one rep, averaged over its processes."""
    per_process = []
    for export in figures["exports"]:
        layers = layer_metrics(export)
        layers["store.bytes_written"] = export.get("bytes_written", 0)
        layers["autodiff.replay_fallbacks"] = (
            sum(mode != "replay" for mode in export["modes"])
            if compile else 0)
        per_process.append(layers)
    return {name: statistics.fmean(p[name] for p in per_process)
            for name in per_process[0]}

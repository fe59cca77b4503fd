"""Data-parallel training: lockstep replicas over sharded collocation clouds.

The model is **lockstep replication over logical shards**.  A run fixes a
logical shard count ``S`` (``n_shards``, default 4) and partitions every
constraint's cloud, batch budget, and validator rows into ``S`` disjoint
shards.  ``world_size`` (``W``) chooses *placement only*: rank ``r`` hosts
shards ``{s : s % W == r}``.  Each step, every rank

1. computes the ``1/S``-scaled loss and gradient of each shard it hosts,
2. exchanges payloads so it holds **all** ``S`` shard contributions
   (over Unix-domain sockets between the ranks of this host,
   :class:`~repro.dp.exchange.StoreExchange`),
3. tree-reduces them in ascending shard order
   (:func:`repro.dp.reduce.tree_reduce`), and
4. applies the identical reduced gradient to its identical optimizer.

Because every rank wires the same network/optimizer/scheduler from
``(problem, config, seed)`` and folds the same reduced float32 gradient,
the replicas never drift — no broadcast is needed — and the trajectory is a
pure function of ``S``, never of ``W``, the execution backend, or payload
arrival order.  ``world_size=1`` runs all ``S`` shards in-process through
the very same reduction, which is the equivalence the parity tests pin.

The per-shard loss is scaled by ``1/S`` *inside* the recorded region, so
the allreduce is a pure fixed-order sum and ``--compile`` replays carry the
scale in the tape.  Note the dp trajectory is its own canon: it matches
``world_size=1`` bitwise, not the non-dp serial trainer (whose single
full-batch loss sums residuals in a different order).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile

import numpy as np

from ..api.problems import build_problem
from ..api.registry import problem_registry
from ..api.session import _wire_replica, train_run
from ..exec import resolve_backend
from ..sampling import ClusterPlan
from ..training import Trainer
from .exchange import LocalExchange, StoreExchange, socket_path
from .samplers import SUPPORTED_KINDS, make_shard_sampler

__all__ = ["DEFAULT_SHARDS", "DataParallelContext", "run_dp"]

#: default logical shard count; independent of world_size on purpose, so
#: the trajectory does not change when a run is spread over more workers
DEFAULT_SHARDS = 4


class DataParallelContext:
    """Everything the trainer's shard-aware step needs for one rank."""

    def __init__(self, *, n_shards, world_size, rank, shard_samplers,
                 exchange, validator_rows):
        self.n_shards = int(n_shards)
        self.world_size = int(world_size)
        self.rank = int(rank)
        #: logical shards this rank hosts (round-robin placement)
        self.owned = [s for s in range(self.n_shards)
                      if s % self.world_size == self.rank]
        #: ``(constraint_name, shard) -> sampler`` for owned shards
        self.shard_samplers = dict(shard_samplers)
        self.exchange = exchange
        #: per-shard loss scale making the allreduce a pure sum
        self.loss_scale = 1.0 / self.n_shards
        #: ``validator_index -> [row indices per shard]`` for validators
        #: that support partial evaluation
        self.validator_rows = dict(validator_rows)


class _ThreadBackend:
    """In-process thread placement for the dp test matrix.

    Ranks run concurrently in daemon threads of the calling process —
    cheap enough to fan a parity matrix across world sizes inside tier-1.
    Eager mode only: ``record_tape`` (compile) patches autodiff module
    globals and is not thread-safe.  The first error raised is re-raised:
    a failing rank closes its sockets, so its peers fail right after it.
    """

    inline = True

    def submit(self, fn, tasks, labels, verbose=False):
        import threading
        results = [None] * len(tasks)
        errors = []

        def run(index, task):
            try:
                results[index] = fn(task)
            except BaseException as exc:   # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i, task), daemon=True)
                   for i, task in enumerate(tasks)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results


def _wire_dp_rank(prob, config, sampler, batch_size, seed, validators_mode,
                  *, n_shards, world_size, rank, exchange):
    """Assemble one rank's lockstep trainer replica.

    The network / optimizer / scheduler / validators come from the same
    :func:`repro.api.session._wire_replica` serial training uses — every
    rank derives the identical replica from ``(prob, config)`` — plus the
    shard-local samplers and partitions for the shards this rank hosts.
    """
    net, optimizer, scheduler, validators = _wire_replica(
        prob, config, batch_size,
        None if validators_mode == "default" else [])

    owned = [s for s in range(n_shards) if s % world_size == rank]
    plan = None
    if sampler == "sgm":
        plan = ClusterPlan(prob.interior_cloud.features(), n_shards,
                           k=config.knn_k, level=config.lrd_level,
                           seed=seed)
    shard_samplers = {}
    for ci, constraint in enumerate(prob.constraints):
        kind = sampler if constraint.name == "interior" else "uniform"
        for shard in owned:
            # the cell seed is a pure function of (run seed, constraint,
            # shard) — never of the rank layout — so shard s's RNG stream
            # is identical wherever it runs
            seed_seq = np.random.SeedSequence([int(seed), ci, shard])
            shard_samplers[(constraint.name, shard)] = make_shard_sampler(
                kind, config, constraint, n_shards=n_shards, shard=shard,
                seed_seq=seed_seq,
                plan=plan if constraint.name == "interior" else None)

    validator_rows = {}
    for vi, validator in enumerate(validators):
        if hasattr(validator, "evaluate_partial"):
            rows = np.arange(len(validator.features))
            validator_rows[vi] = [rows[s::n_shards] for s in range(n_shards)]

    dp = DataParallelContext(
        n_shards=n_shards, world_size=world_size, rank=rank,
        shard_samplers=shard_samplers, exchange=exchange,
        validator_rows=validator_rows)
    trainer = Trainer(net, prob.constraints, optimizer, scheduler=scheduler,
                      validators=validators,
                      extra_modules=prob.extra_modules, seed=seed, dp=dp)
    return trainer


def _train_dp_rank(spec):
    """Module-level rank worker: build one replica and train it.

    Every execution backend (thread, process, queue) runs exactly this
    function; the backend decides placement only.  Training goes through
    :func:`repro.api.session.train_run`, the lifecycle serial runs use;
    rank 0 additionally owns the durable run record when a store root is
    in the spec, and traces when the spec asks for it.  Returns a
    picklable dict: the rank's :class:`~repro.api.RunResult` and its
    final ``net_state``.
    """
    config = spec["config"]
    seed = spec["seed"]
    prob = build_problem(spec["problem"], config, spec["n_interior"],
                         np.random.default_rng(seed))

    world_size = spec["world_size"]
    n_shards = spec["n_shards"]
    rank = spec["rank"]
    if spec["exchange_root"] is None:
        exchange = LocalExchange(n_shards)
    else:
        exchange = StoreExchange(
            spec["exchange_root"], n_shards=n_shards,
            world_size=world_size, rank=rank,
            timeout=spec.get("exchange_timeout", 120.0))

    trainer = _wire_dp_rank(
        prob, config, spec["sampler"], spec["batch_size"], seed,
        spec["validators_mode"], n_shards=n_shards,
        world_size=world_size, rank=rank, exchange=exchange)
    try:
        result = train_run(
            trainer, prob, config, sampler=spec["sampler"], seed=seed,
            steps=spec["steps"], label=spec["label"],
            batch_size=spec["batch_size"],
            validators=spec["validators_mode"],
            store=spec.get("store_root") if rank == 0 else None,
            run_id=spec.get("run_id"), compile=spec["compile"],
            trace=bool(spec.get("trace")) and rank == 0)
    finally:
        close = getattr(exchange, "close", None)
        if close is not None:
            close()
    return {"rank": rank, "result": result,
            "net_state": result.net.state_dict()}


def run_dp(problem, config, *, sampler="sgm", batch_size=None, seed=None,
           steps=None, label=None, n_interior=None, validators=None,
           store=None, run_id=None, world_size=1, n_shards=None,
           backend="process", compile=False, trace=False,
           exchange_timeout=120.0):
    """Train ``problem`` data-parallel over ``n_shards`` logical shards.

    Parameters mirror :func:`repro.api.session.run_problem` where they
    overlap.  ``world_size`` picks how many worker ranks host the shards
    (placement only — the trajectory depends on ``n_shards`` alone);
    ``backend`` is an :mod:`repro.exec` backend name (``process`` /
    ``queue``) or ``"thread"`` for in-process ranks (eager only), and is
    ignored for ``world_size=1`` which runs inline.  ``validators``
    accepts only ``None`` (the problem's defaults) or ``[]``.
    ``exchange_timeout`` is the longest a rank waits for a peer to connect
    or send; a peer that dies fails the run at once instead.

    Returns rank 0's :class:`~repro.api.RunResult`; ``result.rank_results``
    lists every rank's ``{"rank", "result", "net_state"}`` dict.
    """
    config = (config if config is not None
              else problem_registry.get(problem).config_factory())
    seed = config.seed if seed is None else int(seed)
    batch_size = config.batch_small if batch_size is None else int(batch_size)
    steps = config.steps if steps is None else int(steps)
    label = label if label is not None else f"{problem}:{sampler}"
    if sampler not in SUPPORTED_KINDS:
        raise ValueError(f"data-parallel training supports sampler kinds "
                         f"{SUPPORTED_KINDS}, got {sampler!r}")
    if validators is not None and len(validators) > 0:
        raise ValueError("run_dp accepts validators=None (problem defaults) "
                         "or [] (skip validation); custom validator lists "
                         "cannot be shipped to worker ranks")
    validators_mode = "default" if validators is None else "none"

    n_shards = int(n_shards) if n_shards is not None else DEFAULT_SHARDS
    world_size = int(world_size)
    if n_shards < 1 or world_size < 1:
        raise ValueError("n_shards and world_size must be positive")
    if world_size > n_shards:
        raise ValueError(
            f"world_size {world_size} exceeds the {n_shards} logical "
            f"shards; pass dp_shards >= world_size (the shard count is "
            f"fixed per run so the trajectory never depends on the worker "
            f"count)")
    if compile and world_size > 1 and backend == "thread":
        raise ValueError("compile=True needs process isolation per rank "
                         "(tape recording patches autodiff module state); "
                         "use the process or queue backend")

    store_root = None
    if store is not None:
        from ..store import RunStore
        store = RunStore.coerce(store)
        store_root = str(store.root)

    def rank_spec(rank, exchange_root):
        return {
            "problem": problem, "config": config, "sampler": sampler,
            "batch_size": batch_size, "seed": seed, "steps": steps,
            "label": label, "n_interior": n_interior,
            "world_size": world_size, "n_shards": n_shards, "rank": rank,
            "exchange_root": exchange_root,
            "exchange_timeout": float(exchange_timeout),
            "validators_mode": validators_mode, "compile": bool(compile),
            "trace": bool(trace),
            "store_root": store_root if rank == 0 else None,
            "run_id": run_id if rank == 0 else None,
        }

    if world_size == 1:
        rank_results = [_train_dp_rank(rank_spec(0, None))]
    else:
        labels = [f"{label}[rank{rank}]" for rank in range(world_size)]
        if backend == "thread":
            backend_obj = _ThreadBackend()
        else:
            # every rank must hold a live worker for the rendezvous to
            # complete, so the worker count is pinned to world_size
            backend_obj = resolve_backend(backend, max_workers=world_size,
                                          store=store)
        exchange_root = _exchange_root(world_size)
        specs = [rank_spec(rank, exchange_root)
                 for rank in range(world_size)]
        try:
            rank_results = backend_obj.submit(_train_dp_rank, specs, labels)
        finally:
            shutil.rmtree(exchange_root, ignore_errors=True)

    # a copy: the head's own result stays inside rank_results, so the
    # returned one can hold the list without a reference cycle
    result = dataclasses.replace(rank_results[0]["result"])
    result.rank_results = rank_results
    return result


def _exchange_root(world_size):
    """A fresh private (0700) directory for the ranks' sockets.

    Every placement runs all ranks on this host, so the temp directory is
    reachable by all of them.  When ``TMPDIR`` is too deep for AF_UNIX
    socket paths the directory moves to ``/tmp``.
    """
    root = tempfile.mkdtemp(prefix="repro-dp-")
    try:
        socket_path(root, world_size - 1)
    except ValueError:
        os.rmdir(root)
        root = tempfile.mkdtemp(prefix="repro-dp-", dir="/tmp")
    return root

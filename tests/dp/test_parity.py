"""World-size parity matrix: the trajectory is a function of the shard
count, never of the worker count, the backend, or the execution mode.

``world_size=1`` computes all logical shards inline; every other cell —
more ranks, thread/process/queue placement, compiled replay — must
reproduce its history (steps, losses, errors, probe points) and final
network weights bit-for-bit.  Wall times are physical and excluded by
construction (they are not compared anywhere here).
"""

import numpy as np
import pytest

from repro.dp import run_dp
from repro.experiments import (
    advection_diffusion_config, annular_ring_config, burgers_config,
    inverse_burgers_config, ldc_config, ns3d_config, poisson3d_config,
)

#: every registered problem, smoke-sized for the tier-1 budget
PROBLEMS = {
    "ldc": ldc_config,
    "annular_ring": annular_ring_config,
    "burgers": burgers_config,
    "poisson3d": poisson3d_config,
    "advection_diffusion": advection_diffusion_config,
    "inverse_burgers": inverse_burgers_config,
    "ns3d": ns3d_config,
}
STEPS = 4
N_INTERIOR = 320
BATCH = 64


def _run(problem, *, world_size, backend="thread", compile=False,
         sampler="sgm", store=None):
    config = PROBLEMS[problem]("smoke")
    return run_dp(problem, config, sampler=sampler, steps=STEPS,
                  n_interior=N_INTERIOR, batch_size=BATCH,
                  world_size=world_size, backend=backend, compile=compile,
                  store=store)


def _assert_bit_identical(a, b):
    assert a.history.steps == b.history.steps
    assert a.history.losses == b.history.losses
    assert a.history.probe_points == b.history.probe_points
    assert set(a.history.errors) == set(b.history.errors)
    for var in a.history.errors:
        np.testing.assert_array_equal(a.history.errors[var],
                                      b.history.errors[var])
    a_state, b_state = a.net.state_dict(), b.net.state_dict()
    assert set(a_state) == set(b_state)
    for key in a_state:
        assert a_state[key].tobytes() == b_state[key].tobytes(), key


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_world_size_parity_across_every_problem(problem):
    """W in {1, 2, 4} on in-process thread ranks, sgm sharding."""
    serial = _run(problem, world_size=1)
    assert serial.history.losses, "trajectory must not be empty"
    for world_size in (2, 4):
        distributed = _run(problem, world_size=world_size)
        _assert_bit_identical(serial, distributed)
        # every rank's replica folded the same reduced gradients
        head = distributed.rank_results[0]["net_state"]
        for rank_result in distributed.rank_results[1:]:
            for key in head:
                assert np.array_equal(rank_result["net_state"][key],
                                      head[key]), (world_size, key)


@pytest.mark.parametrize("kind", ["uniform", "mis"])
def test_world_size_parity_for_other_sampler_kinds(kind):
    serial = _run("burgers", world_size=1, sampler=kind)
    distributed = _run("burgers", world_size=4, sampler=kind)
    _assert_bit_identical(serial, distributed)


def test_compiled_replay_matches_eager_shard_step():
    eager = _run("burgers", world_size=1)
    compiled = _run("burgers", world_size=1, compile=True)
    _assert_bit_identical(eager, compiled)


def test_process_backend_matches_inline(tmp_path):
    serial = _run("burgers", world_size=1)
    distributed = _run("burgers", world_size=2, backend="process")
    _assert_bit_identical(serial, distributed)


def test_compile_under_process_backend_matches_eager_inline(tmp_path):
    serial = _run("burgers", world_size=1)
    compiled = _run("burgers", world_size=2, backend="process",
                    compile=True)
    _assert_bit_identical(serial, compiled)


def test_queue_backend_matches_inline(tmp_path):
    serial = _run("burgers", world_size=1)
    distributed = _run("burgers", world_size=2, backend="queue",
                       store=tmp_path / "store")
    _assert_bit_identical(serial, distributed)
    assert distributed.run_id is not None   # rank 0 recorded durably


def test_recorded_histories_match_across_world_sizes(tmp_path):
    """The durable history.jsonl rows agree bitwise (wall_time aside), and
    sampler.json records the global cluster count."""
    import json
    rows, n_clusters = {}, {}
    for world_size in (1, 4):
        result = _run("burgers", world_size=world_size,
                      backend="thread" if world_size > 1 else "process",
                      store=tmp_path / f"w{world_size}")
        run_dir = tmp_path / f"w{world_size}" / result.run_id
        rows[world_size] = []
        for line in (run_dir / "history.jsonl").read_text().splitlines():
            record = json.loads(line)
            record.pop("wall_time")
            rows[world_size].append(record)
        stats = json.loads((run_dir / "sampler.json").read_text())
        n_clusters[world_size] = stats["n_clusters"]
    assert rows[1] == rows[4]
    assert isinstance(n_clusters[1], int) and n_clusters[1] >= 4
    assert n_clusters[1] == n_clusters[4]


def test_world_size_above_shard_count_is_rejected():
    with pytest.raises(ValueError, match="logical"):
        _run("burgers", world_size=5)


def test_compile_on_thread_ranks_is_rejected():
    with pytest.raises(ValueError, match="isolation"):
        _run("burgers", world_size=2, backend="thread", compile=True)


def test_custom_validator_lists_are_rejected():
    config = burgers_config("smoke")
    with pytest.raises(ValueError, match="validators"):
        run_dp("burgers", config, steps=2, n_interior=N_INTERIOR,
               batch_size=BATCH, validators=[object()])


def test_session_and_cli_surface_reach_run_dp(tmp_path):
    import repro
    serial = _run("burgers", world_size=1)
    result = (repro.problem("burgers", scale="smoke")
              .sampler("sgm").n_interior(N_INTERIOR).batch_size(BATCH)
              .train(steps=STEPS, world_size=2, backend="thread"))
    _assert_bit_identical(serial, result)

    from repro.cli import main
    rc = main(["run", "burgers", "--sampler", "sgm", "--scale", "smoke",
               "--steps", str(STEPS), "--n-interior", str(N_INTERIOR),
               "--batch-size", str(BATCH), "--world-size", "2",
               "--backend", "thread", "--store", str(tmp_path / "cli")])
    assert rc == 0


def test_compiled_dp_run_reports_replay_program_gauges():
    result = run_dp("burgers", burgers_config("smoke"), sampler="sgm",
                    steps=STEPS, n_interior=N_INTERIOR, batch_size=BATCH,
                    world_size=1, compile=True, trace=True)
    gauges = dict(result.obs["gauges"])
    for name in ("replay.instructions", "replay.cse_hits",
                 "replay.dead_pruned", "replay.baked_constants"):
        assert name in gauges, name
    assert gauges["replay.instructions"] > 0

"""StoreExchange socket rendezvous: gather, timeouts, dead peers, large
frames, and the straggler-wait metric."""

import os
import signal
import stat
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.dp import StoreExchange
from repro.dp.exchange import MAX_SOCKET_PATH, socket_path
from repro.dp.runner import _exchange_root


def _payload(value, size=4):
    return {"loss": np.float32(value),
            "grads": [np.full(size, value, dtype=np.float32)]}


def _run_ranks(root, world_size, n_shards, rounds, local, timeout=30.0,
               before=None):
    """Run ``world_size`` thread ranks for ``rounds`` rounds; returns each
    rank's last gather.  ``before(rank, step)`` runs ahead of each round."""
    exchanges = [StoreExchange(root, n_shards=n_shards,
                               world_size=world_size, rank=rank,
                               timeout=timeout)
                 for rank in range(world_size)]
    results, errors = {}, []

    def run(rank):
        try:
            for step in range(rounds):
                if before is not None:
                    before(rank, step)
                results[rank] = exchanges[rank].exchange(
                    step, "grad", local(rank))
        except BaseException as exc:   # noqa: BLE001 — re-raised below
            errors.append(exc)
        finally:
            exchanges[rank].close()

    threads = [threading.Thread(target=run, args=(rank,))
               for rank in range(world_size)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    if errors:
        raise errors[0]
    return results


def test_two_ranks_rendezvous_and_see_identical_bits(tmp_path):
    def local(rank):
        return {s: _payload(float(s)) for s in range(4) if s % 2 == rank}

    results = _run_ranks(tmp_path / "dp", 2, 4, 3, local)

    assert sorted(results[0]) == sorted(results[1]) == [0, 1, 2, 3]
    for shard in range(4):
        left = results[0][shard]["grads"][0]
        right = results[1][shard]["grads"][0]
        assert left.tobytes() == right.tobytes()
        assert left[0] == np.float32(shard)


@pytest.mark.parametrize("world_size", [2, 3])
def test_frames_beyond_the_socket_buffer_do_not_deadlock(tmp_path,
                                                         world_size):
    # several MB per rank: both ranks send before they receive, so a
    # blocking send would stall on a full socket buffer
    rng = np.random.default_rng(world_size)
    grads = {s: rng.standard_normal(600_000).astype(np.float32)
             for s in range(world_size)}

    def local(rank):
        return {rank: {"loss": np.float32(rank), "grads": [grads[rank]]}}

    results = _run_ranks(tmp_path / "dp", world_size, world_size, 2, local)

    for rank in range(world_size):
        for shard in range(world_size):
            got = results[rank][shard]["grads"][0]
            assert got.tobytes() == grads[shard].tobytes()
            assert got.tobytes() == results[0][shard]["grads"][0].tobytes()


def test_missing_rank_raises_a_named_timeout(tmp_path):
    exchange = StoreExchange(tmp_path / "dp", n_shards=2, world_size=2,
                             rank=0, timeout=0.1)
    try:
        with pytest.raises(TimeoutError, match="rank 1 to connect"):
            exchange.exchange(0, "grad", {0: _payload(0.0)})
    finally:
        exchange.close()


def test_absent_lower_rank_raises_a_named_timeout(tmp_path):
    exchange = StoreExchange(tmp_path / "dp", n_shards=2, world_size=2,
                             rank=1, timeout=0.1)
    try:
        start = time.monotonic()
        with pytest.raises(TimeoutError, match="rank 0 to accept"):
            exchange.exchange(0, "grad", {1: _payload(1.0)})
        assert time.monotonic() - start < 5.0
    finally:
        exchange.close()


def test_silent_peer_times_out_naming_rank_and_step(tmp_path):
    def before(rank, step):
        if rank == 1 and step == 1:
            time.sleep(0.6)

    def local(rank):
        return {rank: _payload(float(rank))}

    with pytest.raises(TimeoutError, match=r"step 1 \(grad\).*rank 1"):
        _run_ranks(tmp_path / "dp", 2, 2, 2, local, timeout=0.3,
                   before=before)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("death", ["exit", "sigkill"])
def test_dead_peer_fails_the_survivor_at_once(tmp_path, death):
    root = tmp_path / "dp"
    root.mkdir()
    pid = os.fork()
    if pid == 0:   # the doomed rank: three good rounds, then gone
        try:
            peer = StoreExchange(root, n_shards=2, world_size=2, rank=1,
                                 timeout=30.0)
            for step in range(3):
                peer.exchange(step, "grad", {1: _payload(1.0)})
            if death == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
        finally:
            os._exit(0)

    survivor = StoreExchange(root, n_shards=2, world_size=2, rank=0,
                             timeout=30.0)
    try:
        for step in range(3):
            survivor.exchange(step, "grad", {0: _payload(0.0)})
        start = time.monotonic()
        with pytest.raises(ConnectionError, match="rank 1.*step 3"):
            survivor.exchange(3, "grad", {0: _payload(0.0)})
        assert time.monotonic() - start < 1.0
    finally:
        survivor.close()
        os.waitpid(pid, 0)


def test_raising_peer_fails_the_survivor_at_once(tmp_path):
    def before(rank, step):
        if rank == 1 and step == 3:
            raise RuntimeError("rank 1 crashed")

    def local(rank):
        return {rank: _payload(float(rank))}

    start = time.monotonic()
    # the crashing rank closes its exchange; without fail-fast the survivor
    # would sit out its 30 s timeout before the threads could be joined
    with pytest.raises(RuntimeError, match="rank 1 crashed"):
        _run_ranks(tmp_path / "dp", 2, 2, 4, local, timeout=30.0,
                   before=before)
    assert time.monotonic() - start < 5.0


def test_out_of_lockstep_peer_is_reported(tmp_path):
    def local(rank):
        return {rank: _payload(float(rank))}

    exchanges = [StoreExchange(tmp_path / "dp", n_shards=2, world_size=2,
                               rank=rank, timeout=10.0) for rank in (0, 1)]
    thread = threading.Thread(
        target=lambda: _swallow(exchanges[1].exchange, 5, "grad", local(1)))
    thread.start()
    try:
        with pytest.raises(RuntimeError, match="out of lockstep"):
            exchanges[0].exchange(4, "grad", local(0))
    finally:
        thread.join(timeout=10.0)
        for exchange in exchanges:
            exchange.close()


def _swallow(fn, *args):
    try:
        fn(*args)
    except Exception:   # noqa: BLE001 — only the other rank is checked
        pass


@pytest.mark.parametrize("delay", [0.2, 0.0])
def test_straggler_wait_is_measured(tmp_path, delay):
    def before(rank, step):
        if rank == 1 and step == 1:   # round 0 connects, round 1 is timed
            time.sleep(delay)

    def local(rank):
        return {rank: _payload(float(rank))}

    with obs.tracing() as tracer:
        _run_ranks(tmp_path / "dp", 2, 2, 2, local, before=before)
    waited = tracer.metrics.counter("dp.straggler_wait_seconds")
    if delay:
        assert waited >= 0.15
    else:
        assert waited < 0.1


def test_socket_paths_beyond_the_sun_path_limit_are_named(tmp_path):
    deep = tmp_path / ("d" * (MAX_SOCKET_PATH - len(str(tmp_path))))
    with pytest.raises(ValueError, match="rank-0.sock"):
        socket_path(deep, 0)
    with pytest.raises(ValueError, match="AF_UNIX"):
        StoreExchange(deep, n_shards=2, world_size=2, rank=0)


def test_run_dp_exchange_root_is_private_and_fits_sun_path(monkeypatch,
                                                           tmp_path):
    root = _exchange_root(4)
    try:
        assert stat.S_IMODE(os.stat(root).st_mode) == 0o700
        socket_path(root, 3)
    finally:
        os.rmdir(root)
    # a TMPDIR too deep for AF_UNIX paths falls back to /tmp
    deep = tmp_path / ("d" * (MAX_SOCKET_PATH - len(str(tmp_path))))
    deep.mkdir()
    monkeypatch.setattr("tempfile.tempdir", str(deep))
    root = _exchange_root(2)
    try:
        assert os.path.dirname(root) == "/tmp"
        socket_path(root, 1)
    finally:
        os.rmdir(root)

"""Property battery for the data-parallel primitives.

Hypothesis drives the two invariants the whole design rests on:

* the fixed-order pairwise tree reduction is a pure function of the
  ordered shard contributions — gather order, worker count, and payload
  routing (in-process vs through the socket wire frame) never change a
  bit;
* every partition helper produces an exact disjoint cover, for every
  sampler kind the dp mode supports.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.dp import (
    LocalExchange, check_disjoint_cover, decode_payload, encode_payload,
    make_shard_sampler, payload_nbytes, shard_batch_sizes, shard_cover,
    stride_shards, tree_add, tree_reduce,
)
from repro.dp.exchange import decode_frame, encode_frame
from repro.experiments import burgers_config
from repro.graph import assign_clusters
from repro.sampling import ClusterPlan, SGMSampler

finite32 = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
                     allow_infinity=False, width=32)
grad_array = arrays(np.float32,
                    array_shapes(min_dims=1, max_dims=2, min_side=1,
                                 max_side=6),
                    elements=finite32)


@st.composite
def gradient_pytrees(draw, n_contributions):
    """``n`` same-structure pytrees of float32 arrays (a gradient list
    plus scalar bookkeeping), mimicking real shard payloads."""
    n_grads = draw(st.integers(min_value=1, max_value=4))
    shapes = [draw(array_shapes(min_dims=1, max_dims=2, min_side=1,
                                max_side=6)) for _ in range(n_grads)]
    trees = []
    for _ in range(n_contributions):
        trees.append({
            "loss": np.float32(draw(finite32)),
            "grads": [draw(arrays(np.float32, shape, elements=finite32))
                      for shape in shapes],
        })
    return trees


# ----------------------------------------------------------------------
# tree reduction
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_tree_reduce_is_bit_invariant_to_gather_order(n, data):
    trees = data.draw(gradient_pytrees(n))
    reduced = tree_reduce(trees)

    # contributions may *arrive* in any order; the reducer consumes them
    # in ascending shard order, so a permuted gather changes nothing
    order = data.draw(st.permutations(list(range(n))))
    gathered = {shard: trees[shard] for shard in order}
    again = tree_reduce([gathered[s] for s in range(n)])

    assert np.float32(again["loss"]) == np.float32(reduced["loss"])
    for a, b in zip(again["grads"], reduced["grads"]):
        assert a.dtype == np.float32
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_tree_reduce_is_bit_invariant_to_worker_placement(n, data):
    """Routing shards to W workers (any W) must not change the sum: the
    schedule depends only on the logical shard count."""
    trees = data.draw(gradient_pytrees(n))
    reference = tree_reduce(trees)
    for world_size in range(1, n + 1):
        # rank r hosts shards {s : s % W == r}; the gather reassembles
        # the full ascending-shard-order list regardless of placement
        hosted = {r: [s for s in range(n) if s % world_size == r]
                  for r in range(world_size)}
        gathered = {}
        for r in range(world_size):
            for s in hosted[r]:
                gathered[s] = trees[s]
        reduced = tree_reduce([gathered[s] for s in range(n)])
        assert np.float32(reduced["loss"]) == np.float32(reference["loss"])
        for a, b in zip(reduced["grads"], reference["grads"]):
            assert a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_tree_reduce_matches_explicit_pairwise_schedule(n, data):
    trees = data.draw(gradient_pytrees(n))
    reduced = tree_reduce(trees)

    def pairwise(items):
        if len(items) == 1:
            return items[0]
        folded = [tree_add(items[i], items[i + 1])
                  for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            folded.append(items[-1])
        return pairwise(folded)

    manual = pairwise(trees)
    assert np.float32(manual["loss"]) == np.float32(reduced["loss"])
    for a, b in zip(manual["grads"], reduced["grads"]):
        assert a.tobytes() == b.tobytes()


def test_tree_reduce_differs_from_left_fold_showing_order_matters():
    """The guard rail is real: float32 addition is order-sensitive, so a
    left fold and the pairwise tree genuinely disagree on some inputs —
    which is exactly why the schedule must be pinned."""
    rng = np.random.default_rng(7)
    trees = [{"g": rng.standard_normal(256).astype(np.float32) * 10 ** k}
             for k in range(-3, 5)]
    tree = tree_reduce(trees)["g"]
    fold = trees[0]["g"].copy()
    for t in trees[1:]:
        fold = fold + t["g"]
    assert tree.shape == fold.shape
    assert not np.array_equal(tree, fold)


def test_tree_add_rejects_mismatched_structures():
    with pytest.raises(ValueError):
        tree_add({"a": np.float32(1)}, {"b": np.float32(1)})
    with pytest.raises(ValueError):
        tree_add([np.float32(1)], [np.float32(1), np.float32(2)])
    with pytest.raises(ValueError):
        tree_reduce([])


# ----------------------------------------------------------------------
# payload codec (the socket rendezvous must be bit-transparent)
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(gradient_pytrees(1))
def test_payload_codec_round_trips_bit_exactly(trees):
    payload = {
        "loss": np.asarray(trees[0]["loss"]),
        "grads": trees[0]["grads"],
        "probe_points": 123,
        "validators": {0: {"u": (1.5, 2.5)}, 2: {"v": (0.0, 1.0)}},
    }
    # through the bytes that cross the socket, as a peer receives them
    wire = bytearray(bytes(encode_frame(7, "grad", {3: payload})))
    step, phase, decoded = decode_frame(wire)
    assert (step, phase, sorted(decoded)) == (7, "grad", [3])
    decoded = decoded[3]
    assert np.asarray(decoded["loss"]).tobytes() == \
        np.asarray(payload["loss"]).tobytes()
    assert len(decoded["grads"]) == len(payload["grads"])
    for a, b in zip(decoded["grads"], payload["grads"]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert decoded["probe_points"] == 123
    assert decoded["validators"] == payload["validators"]


def test_payload_codec_rejects_unknown_and_gapped_keys():
    with pytest.raises(ValueError):
        decode_payload({"mystery": np.float32(1)})
    with pytest.raises(ValueError):
        decode_payload({"grad0000": np.float32(1),
                        "grad0002": np.float32(1)})
    with pytest.raises(ValueError):
        encode_payload({"validators": {0: {"u|v": (1.0, 2.0)}}})


def test_wire_frame_rejects_truncation_and_object_arrays():
    frame = encode_frame(0, "grad", {0: {"grads": [np.ones(3, np.float32)]}})
    with pytest.raises(ValueError):
        decode_frame(frame[:-4])
    with pytest.raises(ValueError):
        encode_frame(0, "grad", {0: {"grads": [np.array([None])]}})


def test_local_exchange_requires_every_shard():
    exchange = LocalExchange(4)
    with pytest.raises(ValueError):
        exchange.exchange(0, "grad", {0: {}, 1: {}})


def test_payload_nbytes_counts_arrays():
    payload = {"loss": np.zeros((), np.float32),
               "grads": [np.zeros(8, np.float32), np.zeros(4, np.float64)],
               "validators": {0: {"u": (1.0, 2.0)}}}
    assert payload_nbytes(payload) >= 4 + 32 + 32


# ----------------------------------------------------------------------
# partitions: exact disjoint cover, always
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1,
                                                            max_value=16))
def test_stride_shards_disjoint_cover(n_points, n_shards):
    if n_points < n_shards:
        with pytest.raises(ValueError):
            stride_shards(n_points, n_shards)
        return
    shards = stride_shards(n_points, n_shards)
    check_disjoint_cover(shards, n_points)
    assert all(len(s) > 0 for s in shards)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4096), st.integers(min_value=1,
                                                             max_value=16))
def test_shard_batch_sizes_sum_and_balance(batch_size, n_shards):
    if batch_size < n_shards:
        with pytest.raises(ValueError):
            shard_batch_sizes(batch_size, n_shards)
        return
    sizes = shard_batch_sizes(batch_size, n_shards)
    assert sum(sizes) == batch_size
    assert max(sizes) - min(sizes) <= 1
    assert all(s >= 1 for s in sizes)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=200), min_size=1,
                max_size=40),
       st.integers(min_value=1, max_value=8))
def test_assign_clusters_covers_and_balances(sizes, n_shards):
    if len(sizes) < n_shards:
        with pytest.raises(ValueError):
            assign_clusters(sizes, n_shards)
        return
    shard_of_cluster = assign_clusters(sizes, n_shards)
    assert len(shard_of_cluster) == len(sizes)
    assert set(shard_of_cluster) == set(range(n_shards))   # no empty shard
    # LPT guarantee: no shard exceeds the mean load by more than the
    # largest cluster
    loads = np.zeros(n_shards)
    np.add.at(loads, shard_of_cluster, sizes)
    assert loads.max() - loads.min() <= max(sizes)


def test_check_disjoint_cover_flags_duplicates_and_holes():
    with pytest.raises(ValueError, match="more than one"):
        check_disjoint_cover([[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError, match="missing"):
        check_disjoint_cover([[0], [2]], 3)
    with pytest.raises(ValueError, match="out of range"):
        check_disjoint_cover([[0, 3]], 3)


# ----------------------------------------------------------------------
# shard samplers: disjoint cover per sampler kind, rank-independence
# ----------------------------------------------------------------------
def _interior_constraint(n_interior=256):
    import repro
    prob = repro.problem("burgers", scale="smoke").n_interior(
        n_interior).build()
    return prob, prob.constraints[0]


@pytest.mark.parametrize("kind", ["uniform", "mis", "sgm"])
def test_every_sampler_kind_yields_exact_disjoint_cover(kind):
    config = burgers_config("smoke")
    prob, interior = _interior_constraint()
    n_shards = 4
    plan = None
    if kind == "sgm":
        plan = ClusterPlan(prob.interior_cloud.features(), n_shards,
                           k=config.knn_k, level=config.lrd_level, seed=0)
    samplers = []
    for shard in range(n_shards):
        seed_seq = np.random.SeedSequence([0, 0, shard])
        samplers.append(make_shard_sampler(
            kind, config, interior, n_shards=n_shards, shard=shard,
            seed_seq=seed_seq, plan=plan))
    for sampler in samplers:
        sampler.start()
    cover = shard_cover(samplers, interior.n_points)
    check_disjoint_cover(cover, interior.n_points)


def test_sgm_plan_is_identical_across_independent_builders():
    """Two ranks each building the plan must derive identical clusters
    and identical shard assignment — the lockstep precondition."""
    config = burgers_config("smoke")
    prob, _ = _interior_constraint()
    features = prob.interior_cloud.features()
    plans = [ClusterPlan(features, 4, k=config.knn_k,
                         level=config.lrd_level, seed=0) for _ in range(2)]
    for shard in range(4):
        a, b = (SGMSampler(plan, shard) for plan in plans)
        a.start()
        b.start()
        assert len(a.clusters) == len(b.clusters)
        for x, y in zip(a.clusters, b.clusters):
            np.testing.assert_array_equal(x, y)


def test_shard_sampler_batches_live_inside_the_shard():
    config = burgers_config("smoke")
    _, interior = _interior_constraint()
    sampler = make_shard_sampler(
        "uniform", config, interior, n_shards=4, shard=1,
        seed_seq=np.random.SeedSequence([0, 0, 1]))
    sampler.start()
    owned = set(sampler.indices.tolist())
    for step in range(5):
        batch = sampler.batch_indices(step, 16)
        assert set(batch.tolist()) <= owned


def test_shard_sgm_sampler_state_round_trips(tmp_path):
    config = burgers_config("smoke")
    prob, interior = _interior_constraint()
    plan = ClusterPlan(prob.interior_cloud.features(), 2,
                       k=config.knn_k, level=config.lrd_level, seed=0)
    sampler = SGMSampler(plan, 0, tau_e=3, tau_G=0,
                         probe_ratio=0.2,
                         seed=np.random.SeedSequence([0, 0, 0]))
    sampler.bind_probes(probe_loss=lambda idx: np.ones(len(idx)))
    sampler.start()
    drawn = [sampler.batch_indices(step, 8) for step in range(4)]

    twin = SGMSampler(plan, 0, tau_e=3, tau_G=0, probe_ratio=0.2,
                      seed=np.random.SeedSequence([0, 0, 0]))
    twin.bind_probes(probe_loss=lambda idx: np.ones(len(idx)))
    twin.start()
    for step in range(2):
        twin.batch_indices(step, 8)
    state = twin.state_dict()

    resumed = SGMSampler(plan, 0, tau_e=3, tau_G=0, probe_ratio=0.2,
                         seed=np.random.SeedSequence([0, 0, 0]))
    resumed.bind_probes(probe_loss=lambda idx: np.ones(len(idx)))
    resumed.load_state_dict(state)
    for step in range(2, 4):
        np.testing.assert_array_equal(resumed.batch_indices(step, 8),
                                      drawn[step])


def test_shard_sampler_state_with_retired_rebuild_seconds_resumes():
    # dp shard states written before the rebuild-seconds key was retired
    # carry ``inner.rebuild_seconds``; loading ignores it
    config = dataclasses.replace(burgers_config("smoke"), tau_e=3)
    _, interior = _interior_constraint()

    def build():
        sampler = make_shard_sampler(
            "mis", config, interior, n_shards=2, shard=1,
            seed_seq=np.random.SeedSequence([0, 0, 1]))
        sampler.bind_probes(
            probe_grad_norm=lambda idx: 1.0 + np.asarray(idx) % 7)
        return sampler

    uninterrupted = build()
    uninterrupted.start()
    drawn = [uninterrupted.batch_indices(step, 8) for step in range(8)]

    interrupted = build()
    interrupted.start()
    for step in range(4):
        interrupted.batch_indices(step, 8)
    state = interrupted.state_dict()
    state["inner.rebuild_seconds"] = 0.0

    resumed = build()
    resumed.load_state_dict(state)
    for step in range(4, 8):
        np.testing.assert_array_equal(resumed.batch_indices(step, 8),
                                      drawn[step])


def test_dp_unsupported_sampler_kind_raises():
    config = burgers_config("smoke")
    _, interior = _interior_constraint()
    with pytest.raises(ValueError, match="sampler kinds"):
        make_shard_sampler("sgm_s", config, interior, n_shards=2, shard=0,
                           seed_seq=np.random.SeedSequence([0]))


def test_validator_partial_sums_merge_to_the_relative_l2():
    from repro.training.validators import merge_partial_l2
    rng = np.random.default_rng(0)
    pred = rng.standard_normal(101)
    ref = rng.standard_normal(101)
    num = float(((pred - ref) ** 2).sum())
    den = float((ref ** 2).sum())
    merged = merge_partial_l2(num, den)
    expected = np.linalg.norm(pred - ref) / np.linalg.norm(ref)
    assert merged == pytest.approx(float(expected), rel=1e-12)
    assert merge_partial_l2(4.0, 0.0) == 2.0

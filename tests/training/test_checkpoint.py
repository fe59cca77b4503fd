"""Checkpoint save/restore roundtrips."""

import numpy as np

from repro.autodiff import Tensor, gradients
from repro.nn import Adam, FullyConnected
from repro.training.checkpoint import load_checkpoint, save_checkpoint


def train_a_bit(net, opt, steps=5, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=(32, 2))
    for _ in range(steps):
        loss = (net(Tensor(xs)) ** 2.0).mean()
        opt.step(gradients(loss, net.parameters()))
    return xs


def test_net_roundtrip(tmp_path):
    net = FullyConnected(2, 1, width=6, depth=2,
                         rng=np.random.default_rng(0))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, net)
    xs = np.random.default_rng(1).uniform(size=(8, 2))
    before = net(Tensor(xs)).numpy().copy()
    for p in net.parameters():
        p.data += 1.0
    load_checkpoint(path, net)
    assert np.allclose(net(Tensor(xs)).numpy(), before)


def test_adam_state_resumes_identically(tmp_path):
    def fresh():
        net = FullyConnected(2, 1, width=6, depth=1,
                             rng=np.random.default_rng(0))
        return net, Adam(net.parameters(), lr=1e-2)

    # train 5 steps, checkpoint, train 5 more
    net_a, opt_a = fresh()
    train_a_bit(net_a, opt_a, steps=5)
    path = tmp_path / "mid.npz"
    save_checkpoint(path, net_a, opt_a, extra={"step": 5})
    train_a_bit(net_a, opt_a, steps=5, seed=9)
    reference = net_a.state_dict()

    # restore into a fresh trainer and repeat the last 5 steps
    net_b, opt_b = fresh()
    extra = load_checkpoint(path, net_b, opt_b)
    assert int(extra["step"]) == 5
    assert opt_b.step_count == 5
    train_a_bit(net_b, opt_b, steps=5, seed=9)
    for key, value in net_b.state_dict().items():
        assert np.allclose(value, reference[key], atol=1e-12), key


def test_optimizer_state_roundtrip(tmp_path):
    net = FullyConnected(2, 1, width=4, depth=1,
                         rng=np.random.default_rng(2))
    opt = Adam(net.parameters(), lr=1e-2)
    train_a_bit(net, opt, steps=3)
    path = tmp_path / "adam.npz"
    save_checkpoint(path, net, opt)

    net2 = FullyConnected(2, 1, width=4, depth=1,
                          rng=np.random.default_rng(3))
    opt2 = Adam(net2.parameters(), lr=999.0)
    load_checkpoint(path, net2, opt2)
    assert np.isclose(opt2.lr, 1e-2)
    for m1, m2 in zip(opt._m + opt._v, opt2._m + opt2._v):
        assert np.allclose(m1, m2)


def test_missing_optimizer_state_raises(tmp_path):
    import pytest
    net = FullyConnected(2, 1, width=4, depth=1,
                         rng=np.random.default_rng(0))
    path = tmp_path / "no_opt.npz"
    save_checkpoint(path, net)
    with pytest.raises(KeyError):
        load_checkpoint(path, net, Adam(net.parameters()))

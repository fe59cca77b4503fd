"""Optimizer and scheduler correctness."""

import numpy as np
import pytest

from repro.autodiff import gradients
from repro.nn import Adam, ExponentialDecayLR, FullyConnected, Parameter
from repro.autodiff import Tensor


def quadratic_loss(p, target):
    diff = p - target
    return (diff * diff).sum()


def test_adam_first_step_is_lr_sized():
    p = Parameter(np.array([5.0]))
    opt = Adam([p], lr=0.01)
    opt.step([np.array([123.0])])
    # bias-corrected Adam's first update is ~lr * sign(grad)
    assert np.allclose(p.data, 5.0 - 0.01, atol=1e-6)


def test_adam_converges_on_quadratic():
    p = Parameter(np.array([3.0, -4.0]))
    target = np.array([1.0, 2.0])
    opt = Adam([p], lr=0.05)
    for _ in range(500):
        loss = quadratic_loss(p, target)
        grads = gradients(loss, [p])
        opt.step(grads)
    assert np.allclose(p.data, target, atol=1e-3)


def test_adam_trains_small_regression_net():
    rng = np.random.default_rng(0)
    net = FullyConnected(1, 1, width=16, depth=2, activation="tanh", rng=rng)
    xs = np.linspace(-1.0, 1.0, 64).reshape(-1, 1)
    ys = np.sin(np.pi * xs)
    opt = Adam(net.parameters(), lr=5e-3)
    x_t, y_t = Tensor(xs), Tensor(ys)
    first_loss = None
    for step in range(400):
        pred = net(x_t)
        loss = ((pred - y_t) ** 2.0).mean()
        if first_loss is None:
            first_loss = loss.item()
        opt.step(gradients(loss, net.parameters()))
    assert loss.item() < 0.05 * first_loss


def test_optimizer_rejects_empty_params():
    with pytest.raises(ValueError):
        Adam([], lr=0.1)


def test_optimizer_rejects_wrong_grad_count():
    p = Parameter(np.zeros(2))
    opt = Adam([p], lr=0.1)
    with pytest.raises(ValueError):
        opt.step([])


def test_exponential_decay_schedule():
    p = Parameter(np.zeros(1))
    opt = Adam([p], lr=1.0)
    sched = ExponentialDecayLR(opt, decay_rate=0.5, decay_steps=10)
    for _ in range(10):
        sched.step()
    assert np.isclose(opt.lr, 0.5)
    for _ in range(10):
        sched.step()
    assert np.isclose(opt.lr, 0.25)

"""Tests for the MLP container."""

import numpy as np
import pytest

from repro.nn.losses import bounded_elbo_loss
from repro.nn.mlp import MLP


def test_forward_shapes():
    net = MLP([4, 8, 2], np.random.default_rng(0))
    assert net.forward(np.zeros(4)).shape == (1, 2)
    assert net.forward(np.zeros((7, 4))).shape == (7, 2)


def test_rejects_wrong_feature_count():
    net = MLP([4, 8, 2], np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward(np.zeros((1, 3)))


def test_rejects_tiny_architectures_and_bad_activations():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MLP([4], rng)
    with pytest.raises(ValueError):
        MLP([4, 2], rng, activation="swish")


def test_fits_linear_function():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(400, 3))
    y = (x @ np.array([[1.0], [-2.0], [0.5]])) + 0.3
    net = MLP([3, 16, 1], rng)
    trace = net.fit(x, y, epochs=150, lr=5e-3, rng=rng)
    assert trace[-1] < 0.01
    assert trace[-1] < trace[0] / 20


def test_fits_xor_nonlinearity():
    rng = np.random.default_rng(2)
    x = rng.choice([0.0, 1.0], size=(600, 2))
    y = np.logical_xor(x[:, 0] > 0.5, x[:, 1] > 0.5).astype(float)[:, None]
    net = MLP([2, 12, 1], rng, activation="tanh")
    net.fit(x, y, epochs=400, lr=1e-2, rng=rng)
    pred = net.forward(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float))
    assert pred[0, 0] < 0.3 and pred[3, 0] < 0.3
    assert pred[1, 0] > 0.7 and pred[2, 0] > 0.7


def test_fit_rejects_mismatched_rows():
    net = MLP([2, 4, 1], np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.fit(np.zeros((5, 2)), np.zeros((4, 1)))


def test_unsupervised_step_raises_elbo():
    rng = np.random.default_rng(3)
    net = MLP([5, 16, 7], rng)
    opt = net.make_optimizer("adam", lr=1e-2)
    x = rng.normal(size=(8, 5))
    before = float(net.forward(x)[:, :7].sum())
    for _ in range(50):
        net.train_step_unsupervised(x, opt, bounded_elbo_loss)
    after = float(net.forward(x)[:, :7].sum())
    assert after > before


def test_make_optimizer_variants():
    net = MLP([2, 3, 1], np.random.default_rng(0))
    assert net.make_optimizer("adam") is not None
    assert net.make_optimizer("sgd") is not None
    with pytest.raises(ValueError):
        net.make_optimizer("lbfgs")


def test_deterministic_given_seed():
    a = MLP([3, 4, 2], np.random.default_rng(9)).forward(np.ones(3))
    b = MLP([3, 4, 2], np.random.default_rng(9)).forward(np.ones(3))
    assert np.array_equal(a, b)

import numpy as np
import pytest

from stgan_nd.errors import ShapeError, SpecError, StateError
from stgan_nd.nn import INFER, TRAIN, NetworkSpec, init_network
from stgan_nd.nn.layers import BatchNorm, Dropout, GaussianNoise, Sigmoid, Softmax
from stgan_nd.nn.specs import (
    LayerSpec,
    batch_norm,
    dense,
    dropout,
    gaussian_noise,
    linear,
    relu,
    sigmoid,
    softmax,
)


def test_layer_spec_validation():
    with pytest.raises(SpecError):
        LayerSpec("dense")  # missing out_width
    with pytest.raises(SpecError):
        dense(0)
    with pytest.raises(SpecError):
        dropout(1.0)
    with pytest.raises(SpecError):
        dropout(-0.1)
    with pytest.raises(SpecError):
        gaussian_noise(-0.5)
    with pytest.raises(SpecError):
        LayerSpec("conv2d")
    assert dropout(0.0).rate == 0.0
    assert gaussian_noise(0.0).stddev == 0.0


def test_softmax_rows_sum_to_one():
    layer = Softmax(6)
    x = np.random.default_rng(3).standard_normal((40, 6)) * 30.0
    y = layer.infer(x)
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(y > 0)


def test_sigmoid_open_interval_and_stability():
    layer = Sigmoid(1)
    x = np.array([[-500.0], [-5.0], [0.0], [5.0], [500.0]])
    y = layer.infer(x)
    assert np.all(y >= 0) and np.all(y <= 1)  # no overflow at extremes
    assert y[2, 0] == 0.5
    moderate = np.linspace(-30, 30, 101)[None, :]
    ym = Sigmoid(101).infer(moderate)
    assert np.all(ym > 0) and np.all(ym < 1)


def test_gaussian_noise_identity_at_infer():
    layer = GaussianNoise(4, 0.5)
    x = np.random.default_rng(0).standard_normal((8, 4))
    np.testing.assert_array_equal(layer.infer(x), x)


def test_gaussian_noise_train_statistics():
    layer = GaussianNoise(100, 0.3)
    rng = np.random.default_rng(11)
    x = np.zeros((1000, 100))
    y, _ = layer.forward(x, rng=rng)
    noise = y - x
    assert abs(noise.mean()) < 0.01
    assert abs(noise.std() - 0.3) < 0.01


def test_gaussian_noise_requires_rng_in_train():
    layer = GaussianNoise(4, 0.5)
    with pytest.raises(StateError):
        layer.forward(np.zeros((2, 4)), rng=None)


def test_dropout_kept_fraction_and_scaling():
    # 1e5 units at rate 0.3: kept fraction close to 0.7, survivors scaled 1/0.7
    layer = Dropout(100000, 0.3)
    rng = np.random.default_rng(5)
    x = np.ones((1, 100000))
    y, _ = layer.forward(x, rng=rng)
    kept = y != 0.0
    assert 0.69 <= kept.mean() <= 0.71
    np.testing.assert_allclose(y[kept], 1.0 / 0.7)


def test_dropout_identity_at_infer_and_rate_zero():
    x = np.random.default_rng(1).standard_normal((5, 7))
    np.testing.assert_array_equal(Dropout(7, 0.3).infer(x), x)
    y, _ = Dropout(7, 0.0).forward(x, rng=np.random.default_rng(0))
    np.testing.assert_array_equal(x, y)


def test_batch_norm_train_normalizes_and_tracks_stats():
    layer = BatchNorm(3)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((64, 3)) * 4.0 + 10.0
    y, _ = layer.forward(x)
    assert np.allclose(y.mean(axis=0), 0.0, atol=1e-9)
    # eps in the denominator keeps batch variance slightly under 1
    assert np.allclose(y.var(axis=0), 1.0, atol=1e-3)
    assert np.all(layer.running_var > 0)
    assert np.all(layer.running_mean != 0)


def test_batch_norm_update_stats_flag():
    layer = BatchNorm(3)
    x = np.random.default_rng(2).standard_normal((16, 3)) + 5.0
    mean_before = layer.running_mean.copy()
    var_before = layer.running_var.copy()
    layer.forward(x, update_stats=False)
    np.testing.assert_array_equal(layer.running_mean, mean_before)
    np.testing.assert_array_equal(layer.running_var, var_before)
    layer.forward(x, update_stats=True)
    assert not np.array_equal(layer.running_mean, mean_before)


def test_batch_norm_infer_uses_running_stats():
    layer = BatchNorm(2)
    rng = np.random.default_rng(4)
    for _ in range(200):
        layer.forward(rng.standard_normal((32, 2)) * 2.0 + 3.0)
    x = rng.standard_normal((10, 2)) * 2.0 + 3.0
    y = layer.infer(x)
    expected = (x - layer.running_mean) / np.sqrt(layer.running_var + layer.eps)
    np.testing.assert_allclose(y, expected)


def test_infer_mode_is_pure():
    spec = NetworkSpec(
        input_widths=(5,),
        layers=(dense(8), gaussian_noise(0.2), relu(), batch_norm(), dropout(0.4)),
        output_heads=((3, "softmax"),),
    )
    net = init_network(spec, seed=0)
    # give the running stats something non-trivial first
    rng = np.random.default_rng(0)
    net.forward([rng.standard_normal((16, 5))], TRAIN, rng=rng)

    x = rng.standard_normal((6, 5))
    before = [p.copy() for p in net.parameters()]
    stats_before = [(bn.running_mean.copy(), bn.running_var.copy())
                    for bn in net.batch_norm_layers()]
    (y1,), _ = net.forward([x], INFER)
    (y2,), _ = net.forward([x], INFER)
    np.testing.assert_array_equal(y1, y2)
    for p, q in zip(net.parameters(), before):
        np.testing.assert_array_equal(p, q)
    for bn, (mean, var) in zip(net.batch_norm_layers(), stats_before):
        np.testing.assert_array_equal(bn.running_mean, mean)
        np.testing.assert_array_equal(bn.running_var, var)


def test_width_mismatch_raises():
    spec = NetworkSpec((4,), (dense(3),), ((2, "linear"),))
    net = init_network(spec, seed=1)
    with pytest.raises(ShapeError):
        net.forward([np.zeros((2, 5))], TRAIN)
    with pytest.raises(ShapeError):
        net.forward([np.zeros((2, 4)), np.zeros((2, 1))], TRAIN)

import numpy as np
import pytest
from conftest import central_difference, relative_error
from hypothesis import given, settings, strategies as st

from stgan_nd.errors import ShapeError, SpecError, StateError
from stgan_nd.gan import GENERATOR_HIDDEN, build_generator
from stgan_nd.nn import (
    INFER,
    INFER_BLOCK_ROWS,
    TRAIN,
    Network,
    NetworkSpec,
    binary_cross_entropy,
    categorical_cross_entropy,
    clone_network,
    composite_loss,
    init_network,
)
from stgan_nd.nn.layers import BatchNorm, Dense
from stgan_nd.nn.specs import (
    HEAD_ACTIVATIONS,
    LAYER_KINDS,
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

SMALL_SPEC = NetworkSpec(
    input_widths=(4,),
    layers=(dense(3), relu()),
    output_heads=((2, "softmax"),),
)


def test_init_is_deterministic():
    a = init_network(SMALL_SPEC, seed=7)
    b = init_network(SMALL_SPEC, seed=7)
    for p, q in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(p, q)


def test_init_seeds_differ():
    a = init_network(SMALL_SPEC, seed=7)
    b = init_network(SMALL_SPEC, seed=8)
    assert any(not np.array_equal(p, q) for p, q in zip(a.parameters(), b.parameters()))


def test_glorot_bound_and_zero_bias():
    spec = NetworkSpec((4,), (dense(3),), ((3, "linear"),))
    net = init_network(spec, seed=0)
    weight, bias = net.trunk[0].weight, net.trunk[0].bias
    assert np.all(np.abs(weight) <= np.sqrt(6.0 / (4 + 3)))
    np.testing.assert_array_equal(bias, 0.0)


def test_network_spec_validation():
    with pytest.raises(SpecError):
        NetworkSpec((), (dense(3),), ((2, "linear"),))
    with pytest.raises(SpecError):
        NetworkSpec((4,), (), ())
    with pytest.raises(SpecError):
        NetworkSpec((4,), (), ((2, "swish"),))
    with pytest.raises(SpecError):
        NetworkSpec((0,), (), ((2, "linear"),))


def test_flat_buffer_aliases_layer_arrays():
    net = init_network(SMALL_SPEC, seed=3)
    flat = net.flat_parameters()
    assert flat.size == sum(p.size for p in net.parameters())
    flat += 1.0
    assert np.all(net.trunk[0].weight >= 1.0 - np.sqrt(6.0 / 7))


def _two_input_net():
    spec = NetworkSpec(
        input_widths=(3, 2),
        layers=(dense(6), gaussian_noise(0.15), relu(), batch_norm(),
                dense(5), dropout(0.25), sigmoid(), linear()),
        output_heads=((1, "sigmoid"), (4, "softmax")),
    )
    return init_network(spec, seed=11)


def _loss_through(net, x1, x2, seed=99):
    """Composite loss with the layer randomness pinned to one stream."""
    rng = np.random.default_rng(seed)
    (v, y), cache = net.forward([x1, x2], TRAIN, rng=rng)
    s = np.ones((x1.shape[0], 1))
    t = np.zeros((x1.shape[0], 4))
    t[:, 1] = 1.0
    comp = composite_loss(
        binary_cross_entropy(v, s), categorical_cross_entropy(y, t), 1.3, 0.8
    )
    return comp, cache


def test_gradients_match_finite_differences_all_layer_kinds():
    net = _two_input_net()
    rng = np.random.default_rng(21)
    x1 = rng.standard_normal((5, 3))
    x2 = rng.standard_normal((5, 2))
    comp, cache = _loss_through(net, x1, x2)
    grads = net.backward(cache, comp.gradient)

    for analytic, param in zip(grads.params, net.parameters()):
        numeric = central_difference(lambda: _loss_through(net, x1, x2)[0].scalar, param)
        assert relative_error(analytic, numeric).max() < 1e-4

    for analytic, inp in zip(grads.inputs, (x1, x2)):
        numeric = central_difference(lambda: _loss_through(net, x1, x2)[0].scalar, inp)
        assert relative_error(analytic, numeric).max() < 1e-4


def test_multi_head_backward_is_additive():
    net = _two_input_net()
    rng = np.random.default_rng(2)
    x1 = rng.standard_normal((4, 3))
    x2 = rng.standard_normal((4, 2))
    _, cache = _loss_through(net, x1, x2)
    g1 = rng.standard_normal((4, 1))
    g2 = rng.standard_normal((4, 4))
    zero1, zero2 = np.zeros_like(g1), np.zeros_like(g2)

    only_first = net.backward(cache, [g1, zero2])
    only_second = net.backward(cache, [zero1, g2])
    joint = net.backward(cache, [g1, g2])
    for a, b, c in zip(only_first.params, only_second.params, joint.params):
        np.testing.assert_allclose(a + b, c, atol=1e-12)


def test_zero_loss_gradient_gives_zero_param_gradients():
    net = _two_input_net()
    rng = np.random.default_rng(8)
    _, cache = _loss_through(net, rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    grads = net.backward(cache, [np.zeros((4, 1)), np.zeros((4, 4))])
    for g in grads.params:
        np.testing.assert_array_equal(g, 0.0)


def test_backward_rejects_foreign_or_infer_cache():
    net = _two_input_net()
    other = _two_input_net()
    rng = np.random.default_rng(1)
    x1, x2 = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
    _, cache = _loss_through(net, x1, x2)
    with pytest.raises(StateError):
        other.backward(cache, [np.zeros((3, 1)), np.zeros((3, 4))])
    _, infer_cache = net.forward([x1, x2], INFER)
    with pytest.raises(StateError):
        net.backward(infer_cache, [np.zeros((3, 1)), np.zeros((3, 4))])


def test_backward_rejects_wrong_grad_shapes():
    net = _two_input_net()
    rng = np.random.default_rng(1)
    _, cache = _loss_through(net, rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
    with pytest.raises(ShapeError):
        net.backward(cache, [np.zeros((3, 1))])
    with pytest.raises(ShapeError):
        net.backward(cache, [np.zeros((3, 2)), np.zeros((3, 4))])


def test_train_forward_is_reproducible_with_same_stream():
    net = _two_input_net()
    rng = np.random.default_rng(4)
    x1, x2 = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
    (a1, a2), _ = net.forward([x1, x2], TRAIN, rng=np.random.default_rng(123),
                              update_stats=False)
    (b1, b2), _ = net.forward([x1, x2], TRAIN, rng=np.random.default_rng(123),
                              update_stats=False)
    np.testing.assert_array_equal(a1, b1)
    np.testing.assert_array_equal(a2, b2)


def test_input_only_backward_matches_full_input_gradients():
    net = _two_input_net()
    rng = np.random.default_rng(5)
    x1, x2 = rng.standard_normal((6, 3)), rng.standard_normal((6, 2))
    comp, cache = _loss_through(net, x1, x2)
    full = net.backward(cache, comp.gradient)
    lean = net.backward(cache, comp.gradient, input_only=True)
    assert lean.params == []
    for a, b in zip(full.inputs, lean.inputs):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(StateError):
        lean.flat()


def test_gradient_views_share_the_flat_buffer_and_calls_do_not_alias():
    net = _two_input_net()
    rng = np.random.default_rng(6)
    comp, cache = _loss_through(net, rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
    first = net.backward(cache, comp.gradient)
    second = net.backward(cache, comp.gradient)
    flat = first.flat()
    assert flat.size == net.flat_parameters().size
    offset = 0
    for grad, param in zip(first.params, net.parameters()):
        assert grad.shape == param.shape
        assert np.shares_memory(grad, flat)
        np.testing.assert_array_equal(grad.ravel(), flat[offset:offset + grad.size])
        offset += grad.size
    assert offset == flat.size
    assert not np.shares_memory(flat, second.flat())
    np.testing.assert_array_equal(flat, second.flat())


def _reference_infer(net, inputs):
    """INFER forward written with one out-of-place expression per layer."""
    x = np.concatenate(inputs, axis=1)
    for layer in net.trunk:
        if isinstance(layer, Dense):
            x = x @ layer.weight + layer.bias
        elif isinstance(layer, BatchNorm):
            x_hat = (x - layer.running_mean) / np.sqrt(layer.running_var + layer.eps)
            x = layer.gamma * x_hat + layer.beta
        else:
            x = x * (x > 0.0)
    return [activation.forward(x @ dense_layer.weight + dense_layer.bias)[0]
            for dense_layer, activation in net.heads]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    inputs=st.lists(st.integers(1, 6), min_size=1, max_size=2),
    layers=st.lists(st.sampled_from(["dense", "batch_norm", "relu"]), max_size=6),
    widths=st.lists(st.integers(1, 12), min_size=6, max_size=6),
    heads=st.lists(st.tuples(st.integers(1, 5), st.sampled_from(["linear", "softmax"])),
                   min_size=1, max_size=2),
    # small batches, and batches around the row-block size
    batch=st.one_of(st.integers(1, 40), st.sampled_from(
        [INFER_BLOCK_ROWS + d for d in (-1, 0, 1)]
        + [2 * INFER_BLOCK_ROWS + 1, 3 * INFER_BLOCK_ROWS + 7])),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_infer_forward_equals_the_out_of_place_reference_bit_for_bit(
        inputs, layers, widths, heads, batch, seed):
    specs = tuple(dense(w) if kind == "dense" else batch_norm() if kind == "batch_norm"
                  else relu() for kind, w in zip(layers, widths))
    net = init_network(NetworkSpec(tuple(inputs), specs, tuple(heads)), seed)
    rng = np.random.default_rng(seed)
    net.flat_parameters()[...] = rng.normal(size=net.flat_parameters().size)
    for bn in net.batch_norm_layers():  # running statistics away from 0 and 1
        bn.running_mean = rng.normal(size=bn.in_width) * 3.0
        bn.running_var = rng.uniform(0.01, 5.0, size=bn.in_width)
    x = [rng.normal(size=(batch, w)) * 2.0 for w in inputs]
    before = [a.copy() for a in x]

    outputs, _ = net.forward(x, INFER)
    expected = _reference_infer(net, x)
    for got, want in zip(outputs, expected):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    for a, b in zip(x, before):  # the caller's inputs are left as they were
        np.testing.assert_array_equal(a, b)


def test_infer_forward_allocates_no_full_batch_hidden_array():
    import tracemalloc

    n, hidden = 20_000, GENERATOR_HIDDEN
    gen = build_generator(n_features=16, n_classes=8, latent_size=8, seed=0)
    rng = np.random.default_rng(0)
    z, targets = rng.standard_normal((n, 8)), rng.random((n, 8))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        (out,), _ = gen.forward([z, targets], INFER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (n, 16)
    # the output plus a few block-sized buffers; one (n, 256) array is 41 MB
    block = INFER_BLOCK_ROWS * hidden * 8
    assert peak - before < out.nbytes + 4 * block < n * hidden * 8


def _every_kind() -> Network:
    """A network with one trunk layer of every kind and a head of every activation."""
    settings = {"dense": dense(5), "gaussian_noise": gaussian_noise(0.1),
                "dropout": dropout(0.2)}
    layers = tuple(settings.get(kind) or LayerSpec(kind) for kind in LAYER_KINDS)
    return init_network(NetworkSpec((3,), layers, tuple((2, a) for a in HEAD_ACTIVATIONS)),
                        seed=0)


def test_every_array_a_layer_holds_is_a_parameter_or_saved_state():
    # the checkpoint and clone_network carry param_names + state_names and
    # nothing else, so a layer keeping another array would lose it in both
    net = _every_kind()
    assert [layer.kind for layer in net.trunk] == list(LAYER_KINDS)
    assert [activation.kind for _, activation in net.heads] == list(HEAD_ACTIVATIONS)
    rng = np.random.default_rng(0)
    outputs, cache = net.forward([rng.standard_normal((6, 3))], TRAIN, rng=rng)
    net.backward(cache, [rng.standard_normal(y.shape) for y in outputs])
    for layer in net.layers():
        arrays = {name for name, value in vars(layer).items() if isinstance(value, np.ndarray)}
        assert arrays == set(layer.param_names + layer.state_names), layer.kind


def test_clone_network_copies_every_array_and_shares_none():
    spec = NetworkSpec((3, 2), (dense(6), batch_norm(), relu(), dense(4), batch_norm()),
                       ((1, "sigmoid"), (3, "softmax")))
    net = init_network(spec, seed=3)
    rng = np.random.default_rng(3)
    probe = [rng.standard_normal((16, 3)), rng.standard_normal((16, 2))]

    def train_step():
        batch = [rng.standard_normal((8, 3)), rng.standard_normal((8, 2))]
        outputs, cache = net.forward(batch, TRAIN, rng=rng, update_stats=True)
        grads = net.backward(cache, [rng.standard_normal(y.shape) for y in outputs])
        net.flat_parameters()[...] -= 0.1 * grads.flat()

    def bits(network):
        return [y.view(np.uint64).copy() for y in network.forward(probe, INFER)[0]]

    for _ in range(3):  # moves the parameters and the running statistics
        train_step()
    dup = clone_network(net)
    expected = bits(net)
    for got, want in zip(bits(dup), expected):
        np.testing.assert_array_equal(got, want)
    assert not np.shares_memory(dup.flat_parameters(), net.flat_parameters())
    for original, copy in zip(net.layers(), dup.layers()):
        for name in original.param_names + original.state_names:
            assert not np.shares_memory(getattr(copy, name), getattr(original, name)), name

    train_step()
    assert any((a != b).any() for a, b in zip(bits(net), expected))
    for got, want in zip(bits(dup), expected):
        np.testing.assert_array_equal(got, want)

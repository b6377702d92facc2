import base64
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stgan_nd.errors import DataError
from stgan_nd.nn import (
    AdamState,
    INFER,
    NetworkSpec,
    TRAIN,
    adam_step,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from stgan_nd.nn import checkpoint
from stgan_nd.nn.checkpoint import FORMAT_V1, FORMAT_V2, _CHUNK, _decode_array, _document
from stgan_nd.nn.specs import (
    HEAD_ACTIVATIONS,
    batch_norm,
    dense,
    dropout,
    gaussian_noise,
    linear,
    relu,
    sigmoid,
    softmax,
)


def _trained_net():
    spec = NetworkSpec(
        input_widths=(4,),
        layers=(dense(6), gaussian_noise(0.1), relu(), batch_norm(), dropout(0.2)),
        output_heads=((1, "sigmoid"), (3, "softmax")),
    )
    net = init_network(spec, seed=5)
    rng = np.random.default_rng(1)
    # push some batches through so running stats are non-trivial
    for _ in range(3):
        net.forward([rng.standard_normal((8, 4))], TRAIN, rng=rng)
    return net


def test_round_trip_is_bit_identical(tmp_path):
    net = _trained_net()
    # awkward values that expose any lossy float formatting
    net.trunk[0].weight[0, 0] = 0.1 + 0.2
    net.trunk[0].weight[0, 1] = 1e-300
    net.trunk[0].weight[0, 2] = -1.5e16
    net.trunk[0].weight[0, 3] = -0.0
    net.trunk[0].bias[0] = 2.0 ** -1074  # smallest subnormal

    state = AdamState.for_params(net.flat_parameters(), 0.001, beta1=0.5, decay=1e-6)
    g = np.random.default_rng(2).standard_normal(net.flat_parameters().shape)
    adam_step(state, net.flat_parameters(), g)

    path = tmp_path / "net.json"
    save_checkpoint(path, net, state, rng_seed=42)
    loaded, loaded_state, seed = load_checkpoint(path)

    # optimizer state makes a v2 file, and the bits go through base64
    assert json.loads(path.read_text())["format"] == FORMAT_V2
    assert seed == 42
    for p, q in zip(net.parameters(), loaded.parameters()):
        np.testing.assert_array_equal(_bits(p), _bits(q))
    for a, b in zip(net.batch_norm_layers(), loaded.batch_norm_layers()):
        np.testing.assert_array_equal(_bits(a.running_mean), _bits(b.running_mean))
        np.testing.assert_array_equal(_bits(a.running_var), _bits(b.running_var))
    assert loaded_state.step_count == 1
    assert loaded_state.learning_rate == 0.001
    assert loaded_state.beta1 == 0.5
    assert loaded_state.decay == 1e-6
    np.testing.assert_array_equal(_bits(loaded_state.first_moment), _bits(state.first_moment))
    np.testing.assert_array_equal(_bits(loaded_state.second_moment), _bits(state.second_moment))
    # moments are updated in place, so they load writable and native
    assert loaded_state.first_moment.flags.writeable
    assert loaded_state.second_moment.dtype == np.dtype(float)

    # without optimizer state the same network makes a v1 file
    save_checkpoint(path, net, rng_seed=42)
    assert json.loads(path.read_text())["format"] == FORMAT_V1
    loaded, _, _ = load_checkpoint(path)
    np.testing.assert_array_equal(_bits(loaded.flat_parameters()), _bits(net.flat_parameters()))


def test_loaded_network_predicts_identically(tmp_path):
    net = _trained_net()
    path = tmp_path / "net.json"
    save_checkpoint(path, net)
    loaded, state, seed = load_checkpoint(path)
    assert state is None and seed is None
    x = np.random.default_rng(3).standard_normal((10, 4))
    (v1, y1), _ = net.forward([x], INFER)
    (v2, y2), _ = loaded.forward([x], INFER)
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(y1, y2)


def test_loaded_network_keeps_flat_buffer_aliasing(tmp_path):
    net = _trained_net()
    path = tmp_path / "net.json"
    save_checkpoint(path, net)
    loaded, _, _ = load_checkpoint(path)
    loaded.flat_parameters()[...] = 0.0
    for p in loaded.parameters():
        np.testing.assert_array_equal(p, 0.0)


def test_rejects_non_checkpoint_files(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text("{\"format\": \"something-else\"}")
    with pytest.raises(DataError):
        load_checkpoint(path)
    path.write_text("not json at all")
    with pytest.raises(DataError):
        load_checkpoint(path)
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "missing.json")


def _set(path, value):
    def corrupt(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return corrupt


def _delete(key):
    return lambda doc: doc.pop(key)


# malformed documents: (corruption, expected message)
_MALFORMED = {
    "no-layers": (_delete("layers"), "'layers'"),
    "no-spec": (_delete("spec"), "'spec'"),
    "no-heads": (_delete("heads"), "'heads'"),
    "no-optimizer": (_delete("optimizer"), "'optimizer'"),
    "no-rng-seed": (_delete("rng_seed"), "'rng_seed'"),
    "spec-layers-int": (_set(["spec", "layers"], 5), "not iterable"),
    "out-width-string": (_set(["spec", "layers", 0, "out_width"], "x"), "invalid literal"),
    "stddev-string": (_set(["spec", "layers", 1, "stddev"], "x"), "TypeError"),
    "arrays-null": (_set(["layers", 0, "arrays"], None), "TypeError"),
    "arrays-empty": (_set(["layers", 0, "arrays"], {}), "holds"),
    "layer-entry-list": (_set(["layers", 0], []), "TypeError"),
    "head-activation": (_set(["heads", 0, "activation"], "relu"), "activation"),
    "optimizer-list": (_set(["optimizer"], []), "TypeError"),
    "rng-seed-string": (_set(["rng_seed"], "x"), "rng_seed"),
    "beta1-string": (_set(["optimizer", "beta1"], "x"), "could not convert"),
    "step-count-null": (_set(["optimizer", "step_count"], None), "TypeError"),
    "no-running-var": (lambda doc: doc["layers"][3]["arrays"].pop("running_var"),
                       "holds"),
}


@pytest.mark.parametrize("corrupt,match", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_structure_raises_data_error_naming_the_file(tmp_path, corrupt, match):
    path = tmp_path / "net.json"
    net = _trained_net()
    save_checkpoint(path, net, AdamState.for_params(net.flat_parameters(), 0.001), rng_seed=3)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match) as caught:
        load_checkpoint(path)
    assert str(path) in str(caught.value)
    # a top-level list instead of an object
    path.write_text(json.dumps([doc]))
    with pytest.raises(DataError, match=str(path)):
        load_checkpoint(path)


def test_moment_lists_of_other_lengths_are_rejected(tmp_path):
    net = _trained_net()
    path = tmp_path / "net.json"
    save_checkpoint(path, net, AdamState.for_params(net.flat_parameters(), 0.001))
    doc = json.loads(path.read_text())
    moment = doc["optimizer"]["first_moment"]
    assert len(moment) == 1  # one flat vector, in a list as in earlier files
    for entries in ([], moment * 2):
        doc["optimizer"]["first_moment"] = entries
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="moment"):
            load_checkpoint(path)


# every trunk layer kind
_LAYERS = st.one_of(
    st.integers(1, 5).map(dense),
    st.sampled_from([relu(), sigmoid(), softmax(), linear(), batch_norm()]),
    st.floats(0.0, 0.5).map(gaussian_noise),
    st.floats(0.0, 0.9).map(dropout),
)


@st.composite
def _network_specs(draw):
    inputs = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    layers = draw(st.lists(_LAYERS, max_size=5))
    heads = draw(st.lists(st.tuples(st.integers(1, 4), st.sampled_from(HEAD_ACTIVATIONS)),
                          min_size=1, max_size=2))
    return NetworkSpec(tuple(inputs), tuple(layers), tuple(heads))


def _bits(array):
    return np.asarray(array, dtype=float).view(np.uint64)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(spec=_network_specs(), seed=st.integers(0, 2 ** 32 - 1), steps=st.integers(1, 3))
def test_random_spec_round_trip_is_bit_identical(tmp_path_factory, spec, seed, steps):
    net = init_network(spec, seed)
    rng = np.random.default_rng(seed)
    state = AdamState.for_params(net.flat_parameters(), 0.001, beta1=0.5, decay=1e-6)
    for _ in range(steps):  # moves the parameters, the moments and the running stats
        inputs = [rng.standard_normal((4, w)) for w in spec.input_widths]
        outputs, cache = net.forward(inputs, TRAIN, rng=rng)
        grads = net.backward(cache, [rng.standard_normal(y.shape) for y in outputs])
        adam_step(state, net.flat_parameters(), grads.flat())

    directory = tmp_path_factory.mktemp("checkpoint")
    path = directory / "net.json"
    save_checkpoint(path, net, state, rng_seed=seed)
    loaded, loaded_state, loaded_seed = load_checkpoint(path)

    assert loaded.spec == spec and loaded_seed == seed
    np.testing.assert_array_equal(_bits(loaded.flat_parameters()), _bits(net.flat_parameters()))
    for a, b in zip(net.batch_norm_layers(), loaded.batch_norm_layers()):
        np.testing.assert_array_equal(_bits(b.running_mean), _bits(a.running_mean))
        np.testing.assert_array_equal(_bits(b.running_var), _bits(a.running_var))
    np.testing.assert_array_equal(_bits(loaded_state.first_moment), _bits(state.first_moment))
    np.testing.assert_array_equal(_bits(loaded_state.second_moment),
                                  _bits(state.second_moment))
    for name in ("learning_rate", "beta1", "beta2", "epsilon", "decay", "step_count"):
        assert getattr(loaded_state, name) == getattr(state, name)

    again = directory / "again.json"
    save_checkpoint(again, loaded, loaded_state, rng_seed=loaded_seed)
    assert again.read_bytes() == path.read_bytes()


def _earlier_layout(path, net, state, seed) -> None:
    """Rewrite a checkpoint the way earlier versions wrote it: v1, every
    value a repr string, the optimizer's scalars too, under ``indent=1``."""
    save_checkpoint(path, net, state, rng_seed=seed)
    doc = json.loads(path.read_text())
    assert doc["format"] == FORMAT_V2
    doc["format"] = FORMAT_V1

    def as_strings(entry):
        values = np.frombuffer(base64.b64decode(entry.pop("base64")), dtype="<f8")
        entry["values"] = [repr(float(x)) for x in values]

    for layer in doc["layers"] + doc["heads"]:
        for entry in layer["arrays"].values():
            as_strings(entry)
    for name in ("learning_rate", "beta1", "beta2", "epsilon", "decay"):
        doc["optimizer"][name] = repr(float(doc["optimizer"][name]))
    for name in ("first_moment", "second_moment"):
        as_strings(doc["optimizer"][name][0])
    path.write_text(json.dumps(doc, indent=1))


def test_checkpoint_of_the_earlier_string_layout_loads_bit_identically(tmp_path):
    net = _trained_net()
    state = AdamState.for_params(net.flat_parameters(), 0.001, beta1=0.5, decay=1e-6)
    adam_step(state, net.flat_parameters(),
              np.random.default_rng(2).standard_normal(net.flat_parameters().shape))
    net.trunk[0].weight[0, 0] = 0.1 + 0.2
    net.trunk[0].weight[0, 1] = -0.0
    net.trunk[0].bias[0] = 2.0 ** -1074
    earlier = tmp_path / "earlier.json"
    _earlier_layout(earlier, net, state, 11)
    assert '"values": [\n' in earlier.read_text() and '"0.30000000000000004"' in earlier.read_text()

    loaded, loaded_state, seed = load_checkpoint(earlier)
    assert seed == 11
    np.testing.assert_array_equal(_bits(loaded.flat_parameters()), _bits(net.flat_parameters()))
    for a, b in zip(net.batch_norm_layers(), loaded.batch_norm_layers()):
        np.testing.assert_array_equal(_bits(b.running_mean), _bits(a.running_mean))
        np.testing.assert_array_equal(_bits(b.running_var), _bits(a.running_var))
    np.testing.assert_array_equal(_bits(loaded_state.first_moment), _bits(state.first_moment))
    np.testing.assert_array_equal(_bits(loaded_state.second_moment), _bits(state.second_moment))
    for name in ("learning_rate", "beta1", "beta2", "epsilon", "decay", "step_count"):
        assert getattr(loaded_state, name) == getattr(state, name)
    # saved again, it is the file a fresh save of the same state writes
    again, fresh = tmp_path / "again.json", tmp_path / "fresh.json"
    save_checkpoint(again, loaded, loaded_state, rng_seed=seed)
    save_checkpoint(fresh, net, state, rng_seed=11)
    assert again.read_bytes() == fresh.read_bytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_decimal_strings_and_numbers_decode_to_the_same_bits(values):
    expected = _bits(np.array(values))
    shape = [len(values)]
    for stored in ([repr(v) for v in values], values):
        doc = json.loads(json.dumps({"shape": shape, "values": stored}))
        np.testing.assert_array_equal(_bits(_decode_array(doc, "values")), expected)


def test_values_are_compact_json_numbers(tmp_path):
    path = tmp_path / "net.json"
    save_checkpoint(path, _trained_net())
    text = path.read_text()
    assert "\n" not in text and ", " not in text and ": " not in text
    doc = json.loads(text)
    for layer in doc["layers"] + doc["heads"]:
        for entry in layer["arrays"].values():
            assert all(type(v) is float for v in entry["values"])


def _b64(*values) -> str:
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode()


# bad head-bias entries of a v1 file, with what the error says
_BAD_V1_ENTRIES = [
    ({"shape": [2], "values": ["0.5", "abc"]}, "bad checkpoint array"),
    ({"shape": [2], "values": [0.5, None]}, "finite"),
    ({"shape": [2], "values": [0.5, "nan"]}, "finite"),
    ({"shape": [2], "values": [[0.5], [1.0]]}, "flat list"),
    ({"shape": [2], "values": [0.5, 1.0, 2.0]}, "does not fit shape"),
    ({"shape": "ab", "values": [0.5, 1.0]}, "does not fit shape"),
    ({"shape": [1], "values": {"0": 0.5}}, "bad checkpoint array"),
    ({"shape": [1]}, "bad checkpoint array"),
]
# more of them, each with the format of the file it goes into
_BAD_TAGGED_ENTRIES = {
    "v1-base64": (FORMAT_V1, {"shape": [1], "base64": _b64(0.5)},
                  "bad checkpoint array: 'values'"),
    "v2-values": (FORMAT_V2, {"shape": [1], "values": [0.5]},
                  "bad checkpoint array: 'base64'"),
    "v2-outside-alphabet": (FORMAT_V2, {"shape": [1], "base64": _b64(0.5)[:-2] + "!="},
                            "bad checkpoint array"),
    "v2-non-ascii": (FORMAT_V2, {"shape": [1], "base64": "\u00e9" * 12},
                     "bad checkpoint array"),
    "v2-list": (FORMAT_V2, {"shape": [1], "base64": [0.5]}, "bad checkpoint array"),
    "v2-number": (FORMAT_V2, {"shape": [1], "base64": 0.5}, "bad checkpoint array"),
    "v2-12-bytes": (FORMAT_V2, {"shape": [1], "base64": base64.b64encode(bytes(12)).decode()},
                    "bad checkpoint array"),
    "v2-too-few-values": (FORMAT_V2, {"shape": [2], "base64": _b64(0.5)},
                          "does not fit shape"),
    "v2-too-many-values": (FORMAT_V2, {"shape": [1], "base64": _b64(0.5, 1.0)},
                           "does not fit shape"),
    "v2-nan": (FORMAT_V2, {"shape": [2], "base64": _b64(0.5, float("nan"))}, "finite"),
    "v2-inf": (FORMAT_V2, {"shape": [1], "base64": _b64(float("-inf"))}, "finite"),
}


@pytest.mark.parametrize("tag,entry,match", [
    *(pytest.param(FORMAT_V1, entry, match, id=f"entry{i}-{match}")
      for i, (entry, match) in enumerate(_BAD_V1_ENTRIES)),
    *(pytest.param(*case, id=name) for name, case in _BAD_TAGGED_ENTRIES.items()),
])
def test_bad_array_entries_raise_data_error(tmp_path, tag, entry, match):
    path = tmp_path / "net.json"
    net = _trained_net()
    # optimizer state makes the file v2
    state = AdamState.for_params(net.flat_parameters(), 0.001) if tag == FORMAT_V2 else None
    save_checkpoint(path, net, state)
    doc = json.loads(path.read_text())
    assert doc["format"] == tag
    doc["heads"][0]["arrays"]["bias"] = entry
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match):
        load_checkpoint(path)


# ------------------------------------------------------------- streamed writer

def _plain(node):
    """The document as ``json.dumps`` takes it: each array a list under
    ``values``, and the base64 string of its little-endian float64 bytes
    under ``base64``."""
    if isinstance(node, np.ndarray):
        return node.tolist()
    if isinstance(node, dict):
        return {k: base64.b64encode(v.astype("<f8").tobytes()).decode() if k == "base64"
                else _plain(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_plain(v) for v in node]
    return node


def _chunk_edge_spec(width):
    # arrays of `width` values and a head whose bias holds one value
    return NetworkSpec((1,), (dense(width),), ((1, "sigmoid"),))


_EDGES = [_CHUNK - 1, _CHUNK, _CHUNK + 1]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(spec=st.one_of(_network_specs(), st.sampled_from(_EDGES).map(_chunk_edge_spec)),
       seed=st.integers(0, 2 ** 32 - 1), with_optimizer=st.booleans(),
       first=st.sampled_from([0.5, 0.1 + 0.2, -0.0, 2.0 ** -1074, -1.5e16, 1e300,
                              float("nan"), float("inf"), float("-inf")]))
@example(spec=_chunk_edge_spec(_CHUNK - 1), seed=1, with_optimizer=True, first=0.5)
@example(spec=_chunk_edge_spec(_CHUNK), seed=2, with_optimizer=False, first=0.5)
@example(spec=_chunk_edge_spec(_CHUNK + 1), seed=3, with_optimizer=True, first=0.5)
@example(spec=_chunk_edge_spec(2 * _CHUNK + 1), seed=4, with_optimizer=True, first=0.5)
@example(spec=_chunk_edge_spec(2 * _CHUNK + 1), seed=5, with_optimizer=False, first=0.5)
@example(spec=_chunk_edge_spec(_CHUNK), seed=6, with_optimizer=True, first=float("nan"))
@example(spec=_chunk_edge_spec(_CHUNK), seed=7, with_optimizer=False, first=float("inf"))
def test_streamed_file_is_the_json_dump_of_the_document(tmp_path_factory, spec, seed,
                                                        with_optimizer, first):
    net = init_network(spec, seed)
    net.flat_parameters()[0] = first
    state = None
    if with_optimizer:
        state = AdamState.for_params(net.flat_parameters(), 0.001, beta1=0.5, decay=1e-6)
        state.first_moment[:] = np.random.default_rng(seed).standard_normal(
            state.first_moment.shape)
    directory = tmp_path_factory.mktemp("stream")
    path = directory / "net.json"
    save_checkpoint(path, net, state, rng_seed=seed)

    doc = _document(net, state, seed)
    assert doc["format"] == (FORMAT_V2 if with_optimizer else FORMAT_V1)
    expected = json.dumps(_plain(doc), separators=(",", ":"))
    assert path.read_bytes() == expected.encode()
    assert [p.name for p in directory.iterdir()] == ["net.json"]
    # a NaN or an infinity is written as it is, and the loader refuses it
    if not np.isfinite(first):
        with pytest.raises(DataError, match="finite"):
            load_checkpoint(path)


@pytest.mark.parametrize("failure", [OSError(28, "No space left on device"),
                                     KeyboardInterrupt()])
@pytest.mark.parametrize("previous", [None, b"previous bytes"])
def test_a_failed_save_keeps_the_previous_file_and_leaves_no_temporary(
        tmp_path, monkeypatch, failure, previous):
    net = _trained_net()
    state = AdamState.for_params(net.flat_parameters(), 0.001)
    # a v1 save encodes JSON numbers, a v2 save (with optimizer state) base64
    for encoder, optimizer in (("_encode_chunk", None), ("_encode_base64_chunk", state)):
        path = tmp_path / "net.json"
        if previous is not None:
            path.write_bytes(previous)
        encoded = []
        real_encode = getattr(checkpoint, encoder)

        def encode_once(values):
            if encoded:
                raise failure
            encoded.append(values.size)
            return real_encode(values)

        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, encoder, encode_once)
            with pytest.raises(type(failure)):
                save_checkpoint(path, net, optimizer)
        assert encoded  # the failure came after a chunk was written
        if previous is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [path]
            assert path.read_bytes() == previous


def test_saving_a_discriminator_with_moments_stays_within_a_few_chunks(tmp_path):
    import tracemalloc

    spec = NetworkSpec((16,), (dense(300), relu(), dense(300), relu()),
                       ((1, "sigmoid"), (7, "softmax")))
    net = init_network(spec, seed=3)
    rng = np.random.default_rng(4)
    state = AdamState.for_params(net.flat_parameters(), 0.001)
    state.first_moment[:] = rng.standard_normal(state.first_moment.shape)
    state.second_moment[:] = rng.random(state.second_moment.shape)
    values = 3 * net.flat_parameters().size
    assert values > 290_000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        save_checkpoint(tmp_path / "d.json", net, state, rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-document save holds every value as a Python float and the
    # encoded text twice: 22 MB here
    assert peak - before < 2_000_000
    # a v2 file: 3 x 97808 float64 values are 3129864 bytes of base64,
    # and the spec, keys and optimizer scalars 931 more
    assert (tmp_path / "d.json").stat().st_size == 3_130_795

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stgan_nd.data import (
    Dataset,
    TEST,
    TRAIN,
    VAL,
    extract_features,
    fit_standardizer,
    hold_out_novel,
    load_dataset,
    one_hot_batch,
    save_dataset,
    split_dataset,
    stochastic_target_batch,
)
from stgan_nd.errors import DataError, SpecError
from stgan_nd.synth import SynthSpec, make_synthetic_dataset


# ---------------------------------------------------------------- loading

def test_load_small_feature_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("ch0,ch1,label\n1.0,2.0,0\n3.5,4.5,1\n0.5,0.25,0\n")
    ds = load_dataset(path)
    assert ds.n_samples == 3
    assert ds.n_features == 2
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])


def test_load_rejects_non_numeric_cell_with_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ch0,ch1,label\n1.0,oops,0\n")
    with pytest.raises(DataError, match="row 1, column 1"):
        load_dataset(path)


@pytest.mark.parametrize("files,read,holder,cell", [
    ({"features.csv": "ch0,ch1,label\n1,x,0\n"}, "features.csv", "features.csv", "x"),
    ({"manifest.csv": "path,label\ns0.csv,0\n", "s0.csv": "1.0,2.0\n3.0,y\n"},
     "manifest.csv", "s0.csv", "y"),
    ({"manifest.csv": "path,label\ns0.csv,z\n", "s0.csv": "1.0,2.0\n3.0,4.0\n"},
     "manifest.csv", "manifest.csv", "z"),
], ids=["feature-csv", "raw-recording", "manifest-label"])
def test_a_bad_cell_error_names_its_file(tmp_path, files, read, holder, cell):
    root = tmp_path.resolve()  # a recording's path is resolved
    for name, text in files.items():
        (root / name).write_text(text)
    message = f"{root / holder}: row 1, column 1: {cell!r} is not numeric"
    with pytest.raises(DataError, match=re.escape(message)):
        load_dataset(root / read)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_rejects_non_finite_feature_cell(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"ch0,ch1,label\n1.0,2.0,0\n3.0,{cell},1\n")
    with pytest.raises(DataError, match="row 2, column 1"):
        load_dataset(path)


def test_load_rejects_non_finite_raw_sample_cell(tmp_path):
    sample = np.random.default_rng(0).standard_normal((20, 3))
    sample[4, 2] = np.nan
    np.savetxt(tmp_path / "s0.csv", sample, delimiter=",")
    np.savetxt(tmp_path / "s1.csv", sample[::-1] + 1.0, delimiter=",")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\ns0.csv,0\ns1.csv,1\n")
    with pytest.raises(DataError, match="row 4, column 2"):
        load_dataset(manifest)


def test_raw_sample_with_one_time_step_names_its_file_and_manifest_row(tmp_path):
    rng = np.random.default_rng(0)
    np.savetxt(tmp_path / "s0.csv", rng.standard_normal((20, 3)), delimiter=",")
    np.savetxt(tmp_path / "s1.csv", rng.standard_normal((1, 3)), delimiter=",")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\ns0.csv,0\ns1.csv,1\n")
    message = f"{manifest}: row 2 (s1.csv): raw sample must be a (t, d) matrix with t >= 2"
    with pytest.raises(DataError, match=re.escape(message)):
        load_dataset(manifest)


def test_load_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("ch0,ch1,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(DataError, match="columns"):
        load_dataset(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_dataset(tmp_path / "nope.csv")


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("a,b,c\n1,2,0\n")
    with pytest.raises(DataError, match="header"):
        load_dataset(path)


def test_dualmyo_shaped_round_trip(tmp_path):
    ds = make_synthetic_dataset(SynthSpec(seed=3))
    path = tmp_path / "dualmyo_like.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded.n_samples == 880
    assert loaded.n_features == 16
    values, counts = np.unique(loaded.labels, return_counts=True)
    np.testing.assert_array_equal(values, np.arange(8))
    np.testing.assert_array_equal(counts, np.full(8, 110))
    np.testing.assert_array_equal(loaded.features, ds.features)


def test_raw_manifest_loading(tmp_path):
    rng = np.random.default_rng(0)
    rows, samples = [], []
    for i in range(4):
        sample = rng.standard_normal((int(rng.integers(5, 30)), 3))
        np.savetxt(tmp_path / f"s{i}.csv", sample, delimiter=",")
        samples.append(np.loadtxt(tmp_path / f"s{i}.csv", delimiter=","))
        rows.append(f"s{i}.csv,{i % 2}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label\n" + "\n".join(rows) + "\n")
    for channels in (None, [0, 2], [2, 2, 1]):
        ds = load_dataset(manifest, channels=channels)
        selected = [s if channels is None else s[:, channels] for s in samples]
        expected = np.stack([extract_features(s) for s in selected])
        assert ds.features.tobytes() == expected.tobytes()
        assert ds.features.shape == expected.shape
        np.testing.assert_array_equal(ds.labels, [0, 1, 0, 1])

    np.savetxt(tmp_path / "wide.csv", rng.standard_normal((20, 4)), delimiter=",")
    manifest.write_text("path,label\n" + "\n".join(rows) + "\nwide.csv,0\n")
    with pytest.raises(DataError, match="row 5 sample has 4 channels, the first has 3"):
        load_dataset(manifest)
    assert load_dataset(manifest, channels=[0, 1]).n_features == 2

    manifest.write_text("path,label\nmissing.csv,0\n")
    with pytest.raises(DataError, match="missing"):
        load_dataset(manifest)


# ---------------------------------------------------------------- splits

def _toy_dataset(per_class, n_classes=3, width=4, seed=0):
    rng = np.random.default_rng(seed)
    n = per_class * n_classes
    features = rng.standard_normal((n, width))
    labels = np.repeat(np.arange(n_classes), per_class)
    return Dataset(features, labels)


def test_split_110_gives_66_22_22():
    ds = _toy_dataset(110)
    tags = split_dataset(ds, seed=1)
    for cls in range(3):
        tags_of_class = tags[ds.labels == cls]
        assert (tags_of_class == TRAIN).sum() == 66
        assert (tags_of_class == VAL).sum() == 22
        assert (tags_of_class == TEST).sum() == 22


def test_split_100_gives_60_20_20():
    ds = _toy_dataset(100)
    tags = split_dataset(ds, seed=9)[ds.labels == 0]
    assert [(tags == t).sum() for t in (TRAIN, VAL, TEST)] == [60, 20, 20]


def test_split_is_deterministic_and_seed_sensitive():
    ds = _toy_dataset(50)
    a = split_dataset(ds, seed=4)
    b = split_dataset(ds, seed=4)
    c = split_dataset(ds, seed=5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_split_proportions_within_one_sample():
    for per_class in (5, 7, 11, 13, 23, 110):
        ds = _toy_dataset(per_class, n_classes=2, seed=per_class)
        tags = split_dataset(ds, seed=2)[ds.labels == 0]
        assert abs((tags == TRAIN).sum() - 0.6 * per_class) <= 1.0
        assert abs((tags == VAL).sum() - 0.2 * per_class) <= 1.0
        assert abs((tags == TEST).sum() - 0.2 * per_class) <= 1.0
        assert len(tags) == per_class


def test_split_rejects_tiny_classes():
    ds = _toy_dataset(4)
    with pytest.raises(DataError, match="at least 5"):
        split_dataset(ds, seed=0)


# ---------------------------------------------------------------- features

def test_extract_features_constant_channel_is_zero():
    sample = np.ones((50, 3))
    np.testing.assert_array_equal(extract_features(sample), 0.0)


def test_extract_features_analytic_value():
    sample = np.array([[0.0], [2.0]])
    assert extract_features(sample)[0] == 1.0  # population divisor


def test_extract_features_matches_two_pass_oracle():
    rng = np.random.default_rng(8)
    sample = rng.standard_normal((200, 16))
    got = extract_features(sample)
    # independent two-pass computation
    mean = sample.sum(axis=0) / 200.0
    var = ((sample - mean) ** 2).sum(axis=0) / 200.0
    np.testing.assert_allclose(got, np.sqrt(var), atol=1e-12)


def test_extract_features_requires_two_steps():
    with pytest.raises(DataError):
        extract_features(np.ones((1, 3)))


# ---------------------------------------------------------------- scaling

def test_standardizer_simple_column():
    train = np.array([[2.0], [4.0]])
    std = fit_standardizer(train)
    np.testing.assert_allclose(std.transform(train), [[-1.0], [1.0]])


def test_standardized_train_has_zero_mean_unit_std():
    rng = np.random.default_rng(12)
    train = rng.standard_normal((200, 6)) * 3.0 + 5.0
    std = fit_standardizer(train)
    z = std.transform(train)
    assert np.abs(z.mean(axis=0)).max() < 1e-9
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-9


def test_validation_keeps_its_own_shift():
    rng = np.random.default_rng(13)
    train = rng.standard_normal((100, 3))
    val = rng.standard_normal((100, 3)) + 2.0
    std = fit_standardizer(train)
    assert np.abs(std.transform(val).mean(axis=0)).min() > 0.5


def test_standardizer_round_trip():
    rng = np.random.default_rng(14)
    train = rng.standard_normal((50, 4)) * 2.0 + 1.0
    std = fit_standardizer(train)
    x = rng.standard_normal((20, 4))
    np.testing.assert_allclose(std.inverse(std.transform(x)), x, atol=1e-12)


def test_standardizer_rejects_constant_features():
    train = np.ones((30, 3))
    train[:, 0] = np.arange(30)
    with pytest.raises(DataError, match=r"\[1, 2\]"):
        fit_standardizer(train)


# ---------------------------------------------------------------- targets

def test_one_hot_basics():
    (vec,) = one_hot_batch([3], 8)
    assert vec[3] == 1.0
    assert vec.sum() == 1.0
    assert vec.shape == (8,)
    with pytest.raises(SpecError):
        one_hot_batch([8], 8)
    with pytest.raises(SpecError):
        one_hot_batch([-1], 8)


def test_stochastic_target_spreads_remainder():
    (vec,) = stochastic_target_batch([3], 8, [0.9])
    assert vec[3] == 0.9
    others = np.delete(vec, 3)
    np.testing.assert_allclose(others, 0.1 / 7.0)
    assert abs(vec.sum() - 1.0) < 1e-12


def test_stochastic_target_with_p_one_is_one_hot():
    np.testing.assert_array_equal(stochastic_target_batch([2], 5, [1.0]),
                                  one_hot_batch([2], 5))


def test_stochastic_target_rejects_out_of_range_p():
    with pytest.raises(SpecError):
        stochastic_target_batch([0], 8, [1.0 / 8.0])  # argmax would not be preserved
    with pytest.raises(SpecError):
        stochastic_target_batch([0], 8, [1.1])
    with pytest.raises(SpecError):
        stochastic_target_batch([0, 1], 8, [0.9, 0.05])


def test_stochastic_target_batch_law():
    rng = np.random.default_rng(99)
    n = 10 ** 4
    labels = rng.integers(0, 8, n)
    p = rng.uniform(0.9, 1.0, n)
    targets = stochastic_target_batch(labels, 8, p)
    assert np.abs(targets.sum(axis=1) - 1.0).max() < 1e-9
    np.testing.assert_array_equal(targets.argmax(axis=1), labels)


@st.composite
def _target_batches(draw):
    n_classes = draw(st.integers(2, 30))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=1, max_size=20))
    peaks = draw(st.lists(st.floats(1.0 / n_classes, 1.0, exclude_min=True),
                          min_size=len(labels), max_size=len(labels)))
    return n_classes, np.array(labels), np.array(peaks)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_target_batches())
def test_stochastic_target_batch_law_over_random_batches(batch):
    n_classes, labels, peaks = batch
    try:
        targets = stochastic_target_batch(labels, n_classes, peaks)
    except SpecError:
        # only a peak within rounding of 1/n_classes, which cannot stay the
        # strict argmax, is refused
        assert peaks.min() - 1.0 / n_classes < 1e-12
        return
    rows = np.arange(labels.size)
    assert targets.shape == (labels.size, n_classes)
    np.testing.assert_allclose(targets.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(targets.argmax(axis=1), labels)
    np.testing.assert_array_equal(targets[rows, labels], peaks)
    off_peak = targets[np.arange(n_classes)[None, :] != labels[:, None]]
    off_peak = off_peak.reshape(labels.size, n_classes - 1)
    np.testing.assert_array_equal(off_peak, off_peak[:, :1].repeat(n_classes - 1, axis=1))


def test_one_hot_batch():
    out = one_hot_batch([1, 0, 2], 3)
    np.testing.assert_array_equal(out, np.eye(3)[[1, 0, 2]])


# ---------------------------------------------------------------- hold-out

def test_hold_out_dualmyo_shape():
    ds = make_synthetic_dataset(SynthSpec(seed=1))
    hold = hold_out_novel(ds, {7})
    assert hold.trained.n_classes == 7
    assert hold.novel.n_samples == 110
    assert hold.class_map == {i: i for i in range(7)}


def test_hold_out_relabels_densely():
    ds = _toy_dataset(10, n_classes=5)
    hold = hold_out_novel(ds, {1, 3})
    assert sorted(set(hold.trained.labels.tolist())) == [0, 1, 2]
    assert hold.class_map == {0: 0, 2: 1, 4: 2}
    assert hold.novel.n_samples == 20
    assert sorted(set(hold.novel.labels.tolist())) == [1, 3]


def test_hold_out_uc2017_shape():
    ds = _toy_dataset(100, n_classes=24, seed=5)
    hold = hold_out_novel(ds, {19, 20, 21, 22, 23})
    assert hold.trained.n_classes == 19
    assert hold.novel.n_samples == 500


def test_hold_out_rejects_degenerate_sets():
    ds = _toy_dataset(10, n_classes=3)
    with pytest.raises(SpecError):
        hold_out_novel(ds, {0, 1, 2})
    with pytest.raises(SpecError):
        hold_out_novel(ds, set())
    with pytest.raises(SpecError):
        hold_out_novel(ds, {5})

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicp import dataio
from semicp._g17 import format_rows
from semicp.dataio import (RESULT_FIELDS, check_writable, load_dataset,
                           load_threshold, save_dataset, save_threshold,
                           write_prediction_sets, write_results)
from semicp.datagen import SyntheticConfig, generate_synthetic
from semicp.dataset import ProbabilityDataset
from semicp.calibration import conformal_quantile
from semicp.errors import DataError, InputError


def toy_dataset():
    return ProbabilityDataset(
        probs=[[0.25, 0.5, 0.25], [0.125, 0.125, 0.75]],
        labels=[1, -1],
        logits=[[np.log(0.25), np.log(0.5), np.log(0.25)],
                [np.log(0.125), np.log(0.125), np.log(0.75)]],
        features=[[1.5, -2.0], [0.0, 3.25]],
    )


def test_roundtrip_bit_identical(tmp_path):
    ds = toy_dataset()
    path = tmp_path / "toy.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.probs, ds.probs)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.logits, ds.logits)
    assert np.array_equal(back.features, ds.features)


def test_roundtrip_synthetic_exact(tmp_path):
    ds = generate_synthetic(SyntheticConfig(n_classes=4, n_samples=50, seed=8))
    path = tmp_path / "synth.csv"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.probs, ds.probs)
    assert np.array_equal(back.logits, ds.logits)
    assert np.array_equal(back.features, ds.features)


def test_bad_probability_row_reports_index(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("#semicp,v1,K=2,features=0\n"
                    "label,p_0,p_1\n"
                    "0,0.5,0.5\n"
                    "1,0.4,0.5\n")
    with pytest.raises(DataError, match="row 2"):
        load_dataset(path)


def test_header_and_row_validation(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("not a header\n")
    with pytest.raises(DataError, match="magic"):
        load_dataset(path)

    path.write_text("#semicp,v1,K=2,features=0\nlabel,p_0\n0,1.0\n")
    with pytest.raises(DataError, match="header"):
        load_dataset(path)

    path.write_text("#semicp,v1,K=2,features=0\nlabel,p_0,p_1\n0,0.5\n")
    with pytest.raises(DataError, match="columns"):
        load_dataset(path)

    path.write_text("#semicp,v1,K=2,features=0\nlabel,p_0,p_1\n0,nan,1.0\n")
    with pytest.raises(DataError, match="non-finite"):
        load_dataset(path)

    path.write_text("#semicp,v1,K=2,features=0\nlabel,p_0,p_1\n2,0.5,0.5\n")
    with pytest.raises(DataError, match="label"):
        load_dataset(path)

    path.write_text("#semicp,v1,K=2,features=0\nlabel,p_0,p_1\n")
    with pytest.raises(DataError, match="no data rows"):
        load_dataset(path)


def test_logits_only_softmax(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("#semicp,v1,K=3,features=0\n"
                    "label,z_0,z_1,z_2\n"
                    "0,1.0,2.0,3.0\n"
                    "-1,0.0,0.0,0.0\n")
    ds = load_dataset(path)
    z = np.array([1.0, 2.0, 3.0])
    expected = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
    assert np.allclose(ds.probs[0], expected, atol=1e-15)
    assert np.allclose(ds.probs[1], [1 / 3] * 3)


def test_unlabeled_rows_roundtrip(tmp_path):
    ds = ProbabilityDataset(probs=[[0.5, 0.5]], labels=[-1])
    path = tmp_path / "u.csv"
    save_dataset(ds, path)
    assert load_dataset(path).labels[0] == -1


def test_write_results_json_and_csv(tmp_path):
    record = {
        "method": "semicp", "score": "thr", "n": 20, "N": 4000, "alpha": 0.1,
        "trials": 10, "cov_gap": 1.25, "over_cov_gap": 1.0,
        "under_cov_gap": 0.25, "avg_size": 2.5, "improvement": None,
        "histogram": [0, 10], "mean_coverage": 0.9,
    }
    jpath = tmp_path / "r.json"
    write_results([record], jpath, "json")
    loaded = json.loads(jpath.read_text())
    assert loaded["schema"] == "semicp-results-v1"
    assert list(loaded["results"][0].keys()) == [
        "method", "score", "n", "N", "alpha", "trials", "cov_gap",
        "over_cov_gap", "under_cov_gap", "avg_size", "improvement",
        "histogram", "mean_coverage"]
    assert loaded["results"][0]["cov_gap"] == 1.25

    cpath = tmp_path / "r.csv"
    write_results([record], cpath, "csv")
    lines = cpath.read_text().splitlines()
    assert lines[0] == ",".join(RESULT_FIELDS)
    cells = lines[1].split(",")
    assert cells[0] == "semicp"
    assert cells[RESULT_FIELDS.index("improvement")] == ""
    assert cells[RESULT_FIELDS.index("histogram")] == "0|10"

    # empty results still produce a valid file
    write_results([], tmp_path / "empty.csv", "csv")
    assert (tmp_path / "empty.csv").read_text().splitlines() == [
        ",".join(RESULT_FIELDS)]
    write_results([], tmp_path / "empty.json", "json")
    assert json.loads((tmp_path / "empty.json").read_text())["results"] == []


def test_threshold_file_roundtrip(tmp_path):
    t = conformal_quantile([0.3, 0.9, 0.5], 0.25)
    path = tmp_path / "t.json"
    save_threshold(t, path, extra={"n": 3, "N": 0, "epsilon": 0.0})
    assert load_threshold(path) == t
    t_all = conformal_quantile([0.3], 0.25)
    save_threshold(t_all, path)
    assert load_threshold(path) == t_all


def test_missing_file_is_data_error():
    with pytest.raises(DataError):
        load_dataset("/nonexistent/nope.csv")


def reference_csv(ds) -> str:
    """The dataset CSV written one field at a time with format(v, ".17g")."""
    k = ds.n_classes
    feat_dim = 0 if ds.features is None else ds.features.shape[1]
    cols = ["label"] + [f"p_{j}" for j in range(k)]
    if ds.logits is not None:
        cols += [f"z_{j}" for j in range(k)]
    cols += [f"f_{j}" for j in range(feat_dim)]
    out = [f"#semicp,v1,K={k},features={feat_dim}\n", ",".join(cols) + "\n"]
    for i in range(len(ds)):
        parts = [str(int(ds.labels[i]))]
        for channel in (ds.probs, ds.logits, ds.features):
            if channel is not None:
                parts += [format(float(v), ".17g") for v in channel[i]]
        out.append(",".join(parts) + "\n")
    return "".join(out)


EDGE_VALUES = (0.0, -0.0, 1e-300, 1e300, -1e300, 5e-324, 0.1, 1 / 3)
real_values = st.one_of(st.sampled_from(EDGE_VALUES),
                        st.floats(allow_nan=False, allow_infinity=False))
prob_weights = st.one_of(st.sampled_from((0.0, -0.0, 1e-300, 1.0)),
                         st.floats(min_value=0.0, max_value=1e6))


@st.composite
def datasets(draw):
    k = draw(st.integers(2, 6))
    rows = draw(st.integers(1, 40))
    weights = np.array(draw(st.lists(prob_weights, min_size=rows * k,
                                     max_size=rows * k))).reshape(rows, k)
    weights[:, 0] = np.where(weights.sum(axis=1) > 0, weights[:, 0], 1.0)
    probs = weights / weights.sum(axis=1, keepdims=True)

    def channel(width):
        return np.array(draw(st.lists(real_values, min_size=rows * width,
                                      max_size=rows * width))).reshape(rows, width)

    return ProbabilityDataset(
        probs=probs,
        labels=draw(st.lists(st.integers(-1, k - 1), min_size=rows,
                             max_size=rows)),
        logits=channel(k) if draw(st.booleans()) else None,
        features=channel(draw(st.integers(1, 3))) if draw(st.booleans()) else None,
    )


@settings(max_examples=150, deadline=None)
@given(ds=datasets())
def test_save_matches_reference_writer_and_loads_back_exactly(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("prop") / "d.csv"
    save_dataset(ds, path)
    assert path.read_bytes() == reference_csv(ds).encode()
    back = load_dataset(path)
    for name in ("probs", "labels", "logits", "features"):
        want, got = getattr(ds, name), getattr(back, name)
        assert (want is None) == (got is None)
        if want is not None:
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_blocks_and_chunks_round_trip_exactly(tmp_path, monkeypatch):
    # more rows than one write block, and a last block that is not full
    ds = generate_synthetic(SyntheticConfig(n_classes=3, n_samples=2500, seed=4))
    path = tmp_path / "big.csv"
    save_dataset(ds, path)
    assert path.read_text() == reference_csv(ds)
    whole = load_dataset(path)
    monkeypatch.setattr(dataio, "READ_CHUNK", 5000)  # about 50 rows a chunk
    chunked = load_dataset(path)
    for name in ("probs", "labels", "logits", "features"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name))
        assert np.array_equal(getattr(chunked, name), getattr(ds, name))



def test_aliased_features_write_like_a_copy(tmp_path):
    # features *is* logits for synthetic data; the writer formats that
    # channel once, and must give the bytes of a dataset holding a copy
    ds = generate_synthetic(SyntheticConfig(n_classes=4, n_samples=2100, seed=6))
    ds.logits[3] = [-0.0, 5e-324, 1e300, -1e300]
    ds.logits[1500, :2] = [-5e-324, 0.0]
    assert ds.features is ds.logits
    copied = ProbabilityDataset(probs=ds.probs, labels=ds.labels,
                                logits=ds.logits, features=ds.logits.copy())
    aliased_path, copied_path = tmp_path / "a.csv", tmp_path / "c.csv"
    save_dataset(ds, aliased_path)
    save_dataset(copied, copied_path)
    assert aliased_path.read_bytes() == copied_path.read_bytes()
    assert aliased_path.read_text() == reference_csv(ds)
    assert len(aliased_path.read_text().splitlines()) == 2 + len(ds)


def test_features_equal_to_logits_but_not_the_same_array(tmp_path):
    # equal is not enough to share the formatted text: -0.0 == 0.0
    ds = generate_synthetic(SyntheticConfig(n_classes=3, n_samples=20, seed=2))
    ds.logits[0] = [-0.0, 1.0, 2.0]
    features = ds.logits.copy()
    features[0, 0] = 0.0
    assert np.array_equal(features, ds.logits)
    equal = ProbabilityDataset(probs=ds.probs, labels=ds.labels,
                               logits=ds.logits, features=features)
    wider = ProbabilityDataset(probs=ds.probs, labels=ds.labels,
                               logits=ds.logits,
                               features=np.hstack([features, features[:, :2]]))
    for other in (equal, wider):
        path = tmp_path / "d.csv"
        save_dataset(other, path)
        assert path.read_text() == reference_csv(other)


def percent_g17_rows(values, columns) -> bytes:
    """Rows of values[:, columns] written one cell at a time with '%.17g'."""
    return "".join(",".join("%.17g" % values[r, c] for c in columns) + "\n"
                   for r in range(values.shape[0])).encode()


POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-330, 308)])
G17_CASES = {
    "half_even_ties": ([1e15 + 0.25, 1e15 + 0.75],
                       "1000000000000000.2,1000000000000000.8"),
    "fixed_to_scientific": ([9.9999999999999995e-05, 1e-4, 1e-5],
                            "9.9999999999999991e-05,0.0001,"
                            "1.0000000000000001e-05"),
    "near_1e17": ([1e16, np.nextafter(1e17, 0), 1e17],
                  "10000000000000000,99999999999999984,1e+17"),
    "extremes": ([5e-324, 1e300, -1e300],
                 "4.9406564584124654e-324,1.0000000000000001e+300,"
                 "-1.0000000000000001e+300"),
}


@pytest.mark.parametrize("case", sorted(G17_CASES))
def test_format_rows_fixed_cases(case):
    values, text = G17_CASES[case]
    row, columns = np.array([values]), range(len(values))
    assert format_rows(row, columns) == (text + "\n").encode()
    assert format_rows(row, columns) == percent_g17_rows(row, columns)


def test_format_rows_powers_of_ten_and_neighbours():
    values = np.stack([POWERS_OF_TEN, np.nextafter(POWERS_OF_TEN, 0),
                       np.nextafter(POWERS_OF_TEN, np.inf), -POWERS_OF_TEN],
                      axis=1)
    assert format_rows(values, range(4)) == percent_g17_rows(values, range(4))


finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    # uniform over bit patterns: every exponent, subnormals included
    st.integers(0, 2**64 - 1).map(
        lambda b: float(np.uint64(b).view(np.float64))).filter(np.isfinite))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), cols=st.integers(1, 4))
def test_format_rows_matches_percent_g17(data, cols):
    cells = data.draw(st.lists(finite_doubles, min_size=cols,
                               max_size=40 * cols))
    values = np.array(cells[:len(cells) // cols * cols]).reshape(-1, cols)
    # a column may be written more than once, as aliased features are
    columns = data.draw(st.lists(st.integers(0, cols - 1), min_size=1,
                                 max_size=2 * cols))
    assert format_rows(values, columns) == percent_g17_rows(values, columns)


def test_blocks_with_fallback_cells_at_their_edges(tmp_path):
    # several save blocks and a partial last one; the cells of each block's
    # first and last rows take the one-cell-at-a-time fallback
    ds = generate_synthetic(SyntheticConfig(n_classes=3, n_samples=10, seed=5))
    rows = dataio.SAVE_CELLS // (1 + 3 * ds.n_classes)
    n = 3 * rows + 17
    ds = generate_synthetic(SyntheticConfig(n_classes=3, n_samples=n, seed=5))
    edges = sorted({0, n - 1} | {b + i for b in range(rows, n, rows)
                                 for i in (-1, 0)})
    fallback = [0.0, -0.0, 5e-324, -1e-300, 1e16, -1e300, 2.5e-12]
    for i, row in enumerate(edges):
        ds.logits[row] = [fallback[(i + j) % len(fallback)] for j in range(3)]
        ds.probs[row] = [1.0, 0.0, 0.0]
    assert ds.features is ds.logits
    path = tmp_path / "edges.csv"
    save_dataset(ds, path)
    assert path.read_text() == reference_csv(ds)
    back = load_dataset(path)
    assert np.array_equal(np.signbit(back.logits), np.signbit(ds.logits))
    assert np.array_equal(back.logits, ds.logits)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("channel", ["logits", "features"])
def test_non_finite_channel_is_refused_before_the_file_opens(tmp_path, channel,
                                                             value):
    ds = toy_dataset()
    getattr(ds, channel)[1, 0] = value
    path = tmp_path / "d.csv"
    with pytest.raises(InputError, match=r"^row 1: non-finite value$"):
        save_dataset(ds, path)
    assert not path.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("channel", ["logits", "features"])
def test_non_finite_channel_is_refused_in_memory(channel, value):
    ds = toy_dataset()
    channels = {"logits": ds.logits.copy(), "features": ds.features.copy()}
    channels[channel][1, 0] = value
    with pytest.raises(InputError, match=r"^row 1: non-finite value$"):
        ProbabilityDataset(probs=ds.probs, labels=ds.labels, **channels)


def test_first_bad_row_names_non_finite_logits_and_features():
    probs = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(InputError, match=r"^row 0: non-finite value$"):
        ProbabilityDataset(probs=probs, logits=[[np.nan, 0], [1, np.inf]],
                           features=[[np.nan], [1]])
    # an earlier non-finite feature comes before a later bad label
    with pytest.raises(InputError, match=r"^row 0: non-finite value$"):
        ProbabilityDataset(probs=probs, labels=[0, 7], features=[[np.inf], [0]])
    with pytest.raises(InputError, match=r"^row 0: label 7.0 outside"):
        ProbabilityDataset(probs=probs, labels=[7, 0], features=[[0], [np.inf]])
    logits = np.array([[0.0, 1.0], [-np.inf, 0.0]])  # features aliasing logits
    with pytest.raises(InputError, match=r"^row 1: non-finite value$"):
        ProbabilityDataset(probs=probs, logits=logits, features=logits)


@pytest.mark.parametrize("channels, message", [
    # logits of K + 1 columns: saved, they made a file the loader refused
    ({"logits": np.zeros((2, 3))}, r"^logits must be \(n, K\) = \(2, 2\)"),
    ({"logits": np.zeros(2)}, r"^logits must be \(n, K\)"),
    ({"features": [1.0, 2.0]}, r"^features must be \(n, d\)$"),
    ({"features": np.zeros((2, 1, 1))}, r"^features must be \(n, d\)$"),
    ({"features": np.float64(1.0)}, r"^features length does not match"),
], ids=["logits_k_plus_1", "logits_1d", "features_1d", "features_3d",
        "features_scalar"])
def test_channel_shapes_are_checked(channels, message):
    with pytest.raises(InputError, match=message):
        ProbabilityDataset(probs=[[0.5, 0.5], [0.5, 0.5]], labels=[0, 1],
                           **channels)


def test_write_dataset_removes_the_file_when_a_later_block_fails(tmp_path):
    ds = toy_dataset()
    path = tmp_path / "d.csv"

    def blocks():
        yield ds.labels, ds.probs, ds.logits, ds.features
        raise InputError("row 9: non-finite value")

    with pytest.raises(InputError, match="^row 9"):
        dataio.write_dataset(path, blocks())
    assert not path.exists()


def test_write_dataset_in_blocks_equals_save_dataset(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "SAVE_CELLS", 20)  # sub-blocks inside blocks
    ds = generate_synthetic(SyntheticConfig(n_classes=3, n_samples=50,
                                            seed=8))
    save_dataset(ds, tmp_path / "whole.csv")

    def blocks():
        for a, b in [(0, 1), (1, 17), (17, 50)]:
            logits = ds.logits[a:b]  # the features are the logits
            yield ds.labels[a:b], ds.probs[a:b], logits, logits

    dataio.write_dataset(tmp_path / "blocks.csv", blocks())
    assert (tmp_path / "blocks.csv").read_bytes() == \
        (tmp_path / "whole.csv").read_bytes()


def reference_prediction_sets(mask, labels) -> str:
    """The prediction-set file written one row at a time."""
    out = ["index,label,set_size,covered,classes\n"]
    for i in range(len(labels)):
        classes = np.nonzero(mask[i])[0]
        label = int(labels[i])
        covered = "" if label < 0 else str(int(mask[i, label]))
        out.append(f"{i},{label},{classes.size},{covered},"
                   f"{'|'.join(str(c) for c in classes)}\n")
    return "".join(out)


def test_prediction_sets_match_row_by_row_writer(tmp_path):
    rs = np.random.RandomState(3)
    n, k = 2 * dataio.WRITE_BLOCK + 37, 12
    mask = rs.rand(n, k) < 0.3
    mask[:50] = False  # empty sets
    mask[50:100] = True  # full sets
    labels = rs.randint(-1, k, size=n)
    labels[:10] = -1
    labels[50:60] = -1
    path = tmp_path / "sets.csv"
    write_prediction_sets(mask, labels, path)
    assert path.read_text() == reference_prediction_sets(mask, labels)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_prediction_sets_match_row_by_row_writer_property(tmp_path_factory, data):
    k = data.draw(st.integers(2, 12))
    n = data.draw(st.integers(0, 60))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n * k,
                                       max_size=n * k)), dtype=bool).reshape(n, k)
    labels = np.array(data.draw(st.lists(st.integers(-1, k - 1), min_size=n,
                                         max_size=n)), dtype=np.int64)
    path = tmp_path_factory.mktemp("sets") / "sets.csv"
    write_prediction_sets(mask, labels, path)
    assert path.read_text() == reference_prediction_sets(mask, labels)


K2_HEADER = "#semicp,v1,K=2,features=0\nlabel,p_0,p_1\n"
BAD_ROWS = {
    "columns": ("0,0.5", "expected 3 columns, got 2"),
    "not_a_number": ("0,0.5,abc", "could not convert"),
    "non_finite": ("0,inf,0.5", "non-finite value"),
    "label_range": ("2,0.5,0.5", "label 2.0 outside"),
    "label_fraction": ("0.5,0.5,0.5", "label 0.5 outside"),
    "negative_prob": ("0,-0.5,1.5", "invalid probability row"),
    "prob_sum": ("1,0.4,0.5", r"invalid probability row \(sum=0.90000000\)"),
    "hash_in_field": ("0,0.5#note,0.5", "could not convert"),
}


@pytest.mark.parametrize("chunk", [None, 1, 12])
@pytest.mark.parametrize("blank", ["", " \t"])
@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_bad_row_names_its_line_counting_blank_lines(tmp_path, monkeypatch,
                                                     kind, blank, chunk):
    if chunk is not None:  # the bad row in a later chunk than the first
        monkeypatch.setattr(dataio, "READ_CHUNK", chunk)
    row, message = BAD_ROWS[kind]
    path = tmp_path / "bad.csv"
    # a later bad row must not be reported before the first one
    path.write_text(K2_HEADER + f"0,0.5,0.5\n{blank}\n{row}\n1,nan,0.5\n")
    with pytest.raises(DataError, match=rf"row 3: {message}"):
        load_dataset(path)


@pytest.mark.parametrize("kind", ["label_fraction", "label_range",
                                  "negative_prob", "non_finite", "prob_sum"])
def test_bad_row_built_in_memory_breaks_the_same_contract(kind):
    label, *probs = (float(v) for v in BAD_ROWS[kind][0].split(","))
    # as from a file, a later bad row must not be reported before the first
    with pytest.raises(InputError, match=rf"row 1: {BAD_ROWS[kind][1]}"):
        ProbabilityDataset(probs=[[0.5, 0.5], probs, [np.nan, 0.5]],
                           labels=[0, label, 1])


@pytest.mark.parametrize("label", [np.nan, 1e30, -np.inf])
def test_label_is_checked_before_the_integer_cast(label):
    # a cast first would raise a bare ValueError or OverflowError
    with pytest.raises(InputError, match=r"row 0: label .* outside"):
        ProbabilityDataset(probs=[[0.5, 0.5], [0.3, 0.7]], labels=[label, 0])


def test_row_of_inf_and_minus_inf_is_non_finite_without_warning(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text(K2_HEADER + "0,inf,-inf\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no nan-sum warning first
        with pytest.raises(DataError, match="row 1: non-finite value"):
            load_dataset(path)
        with pytest.raises(InputError, match="row 0: non-finite value"):
            ProbabilityDataset([[np.inf, -np.inf]])


def test_hash_ends_no_row_early(tmp_path):
    path = tmp_path / "hash.csv"
    path.write_text(K2_HEADER + "0,0.5,0.5 # a comment\n")
    with pytest.raises(DataError, match="row 1"):
        load_dataset(path)
    path.write_text(K2_HEADER + "# a comment line\n")
    with pytest.raises(DataError, match="row 1"):
        load_dataset(path)


@pytest.mark.parametrize("chunk", [None, 1])
def test_blank_lines_are_skipped(tmp_path, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(dataio, "READ_CHUNK", chunk)
    path = tmp_path / "blank.csv"
    path.write_text(K2_HEADER + "\n 0,0.25,0.75 \n\t\n\u00a0\n-1,0.5,0.5\n\n")
    ds = load_dataset(path)
    assert ds.labels.tolist() == [0, -1]
    assert ds.probs.tolist() == [[0.25, 0.75], [0.5, 0.5]]
    path.write_text(K2_HEADER + "\n  \n")
    with pytest.raises(DataError, match="no data rows"):
        load_dataset(path)


def test_underscore_digits_are_rejected(tmp_path):
    # float() reads "0.2_5", np.loadtxt does not; the loader follows loadtxt
    path = tmp_path / "underscore.csv"
    path.write_text(K2_HEADER + "0,0.2_5,0.75\n")
    with pytest.raises(DataError, match="unreadable data rows"):
        load_dataset(path)


@pytest.mark.parametrize("magic", ["#semicp,v1,K=abc,features=0",
                                   "#semicp,v1,K=3,features=x",
                                   "#semicp,v1,K=1,features=0"])
def test_malformed_magic_line(tmp_path, magic):
    path = tmp_path / "m.csv"
    path.write_text(magic + "\nlabel,p_0,p_1\n0,0.5,0.5\n")
    with pytest.raises(DataError, match="malformed magic line"):
        load_dataset(path)


def test_non_utf8_dataset_is_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(K2_HEADER.encode() + b"0,0.5,0.5\xff\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_dataset(path)


@pytest.mark.parametrize("content, message", [
    (None, "cannot read threshold file"),
    ("{not json", "invalid threshold file"),
    (b"\xff", "invalid threshold file"),
    ('{"value": 0.5}', "lacks the field 'include_all'"),
    ("[1, 2]", "invalid threshold file"),
    ('{"value": "x", "include_all": false, "level_index": 1, '
     '"pool_size": 2, "alpha": 0.1}', "invalid threshold file"),
    ('{"value": NaN, "include_all": false, "level_index": 1, '
     '"pool_size": 2, "alpha": 0.1}', "must be finite"),
])
def test_bad_threshold_file_is_data_error(tmp_path, content, message):
    path = tmp_path / "t.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    with pytest.raises(DataError, match=message):
        load_threshold(path)


def test_unwritable_outputs_are_data_errors(tmp_path):
    missing_dir = tmp_path / "missing" / "out"
    with pytest.raises(DataError, match="cannot write output"):
        check_writable(missing_dir)
    with pytest.raises(DataError, match="cannot write output"):
        save_dataset(toy_dataset(), missing_dir)
    with pytest.raises(DataError, match="cannot write output"):
        write_results([], missing_dir, "csv")
    with pytest.raises(DataError, match="cannot write output"):
        save_threshold(conformal_quantile([0.3], 0.25), missing_dir)


def test_check_writable_leaves_files_as_they_were(tmp_path):
    new = tmp_path / "new.csv"
    check_writable(new)
    assert not new.exists()
    old = tmp_path / "old.csv"
    old.write_text("keep me\n")
    check_writable(old)
    assert old.read_text() == "keep me\n"

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicp import datagen, rng
from semicp.datagen import (SyntheticConfig, calibrate_signal_for_accuracy,
                            generate_synthetic, measure_top1_accuracy,
                            tune_signal, write_synthetic)
from semicp.dataio import save_dataset
from semicp.dataset import ProbabilityDataset
from semicp.errors import ConfigurationError, ConvergenceError, InputError
from semicp.unlabeled import pseudo_labels


def test_same_seed_bit_identical():
    cfg = SyntheticConfig(n_classes=5, n_samples=2000, signal=1.5, seed=99)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.logits, b.logits)


def test_chunked_rows_equal_full_generation(monkeypatch):
    # per-sample streams: any blocking of the index range gives the same rows
    cfg = SyntheticConfig(n_classes=4, n_samples=500, signal=2.0, seed=5)
    full = generate_synthetic(cfg)
    for cells in (1, 28, 400):  # blocks of 1, 7 and 100 rows
        monkeypatch.setattr(datagen, "BLOCK_CELLS", cells)
        blocked = generate_synthetic(cfg)
        for name in ("labels", "logits", "probs"):
            assert getattr(blocked, name).tobytes() == \
                getattr(full, name).tobytes()
    for start, stop in [(0, 100), (100, 500), (250, 251)]:
        labels, logits, probs = one_step_rows(cfg, start, stop)
        assert np.array_equal(labels, full.labels[start:stop])
        assert np.array_equal(logits, full.logits[start:stop])
        assert np.array_equal(probs, full.probs[start:stop])


def test_rows_are_valid_probability_vectors():
    cfg = SyntheticConfig(n_classes=7, n_samples=3000, signal=3.0,
                          temperature=0.5, seed=1)
    ds = generate_synthetic(cfg)
    assert np.all(ds.probs >= 0)
    assert np.allclose(ds.probs.sum(axis=1), 1.0, atol=1e-9)
    ProbabilityDataset(probs=ds.probs, labels=ds.labels)  # revalidates


def test_zero_signal_accuracy_is_chance():
    cfg = SyntheticConfig(n_classes=2, n_samples=100_000, signal=0.0, seed=2)
    assert measure_top1_accuracy(generate_synthetic(cfg)) == \
        pytest.approx(0.5, abs=0.01)
    cfg = SyntheticConfig(n_classes=10, n_samples=10_000, signal=0.0, seed=3)
    assert measure_top1_accuracy(generate_synthetic(cfg)) == \
        pytest.approx(0.1, abs=0.02)


def test_accuracy_trivial_cases():
    ds = ProbabilityDataset(probs=[[0.9, 0.1], [0.2, 0.8]], labels=[0, 1])
    assert measure_top1_accuracy(ds) == 1.0
    ds = ProbabilityDataset(probs=[[0.9, 0.1]], labels=[1])
    assert measure_top1_accuracy(ds) == 0.0
    with pytest.raises(InputError):
        measure_top1_accuracy(ProbabilityDataset(probs=[[0.9, 0.1]], labels=[-1]))


def test_accuracy_pinned_regression():
    cfg = SyntheticConfig(n_classes=10, n_samples=50_000, signal=5.0,
                          noise_sigma=1.0, seed=123)
    assert measure_top1_accuracy(generate_synthetic(cfg)) == 0.99818


def test_accuracy_monotone_in_signal():
    accs = []
    for signal in [0.0, 1.0, 2.0, 3.5, 6.0]:
        cfg = SyntheticConfig(n_classes=10, n_samples=20_000, signal=signal,
                              seed=11)
        accs.append(measure_top1_accuracy(generate_synthetic(cfg)))
    assert all(b >= a for a, b in zip(accs, accs[1:]))


def test_prior_controls_label_frequencies():
    prior = (0.7, 0.2, 0.1)
    cfg = SyntheticConfig(n_classes=3, n_samples=50_000, signal=1.0,
                          prior=prior, seed=4)
    ds = generate_synthetic(cfg)
    freq = np.bincount(ds.labels, minlength=3) / len(ds)
    assert np.allclose(freq, prior, atol=0.01)
    with pytest.raises(InputError):
        SyntheticConfig(n_classes=3, n_samples=10, prior=(0.5, 0.5))
    with pytest.raises(InputError):
        SyntheticConfig(n_classes=2, n_samples=10, prior=(0.7, 0.7))
    with pytest.raises(InputError):  # a NaN sum passes the tolerance check
        SyntheticConfig(n_classes=2, n_samples=10, prior=(0.5, float("nan")))


def test_calibrate_signal():
    template = SyntheticConfig(n_classes=10, n_samples=100, signal=1.0, seed=21)
    with pytest.raises(ConfigurationError):
        calibrate_signal_for_accuracy(0.1, template)  # 1/K boundary
    with pytest.raises(ConfigurationError):
        calibrate_signal_for_accuracy(1.0, template)
    # no probe: these raised ZeroDivisionError and TypeError
    with pytest.raises(ConfigurationError):
        calibrate_signal_for_accuracy(0.6, template, probe_samples=0)
    with pytest.raises(ConfigurationError):
        calibrate_signal_for_accuracy(0.6, template, max_iters=0)

    sig_low, acc_low = calibrate_signal_for_accuracy(0.6, template,
                                                     probe_samples=20_000)
    sig_high, acc_high = calibrate_signal_for_accuracy(0.9, template,
                                                       probe_samples=20_000)
    assert sig_high > sig_low
    assert abs(acc_low - 0.6) <= 0.01
    assert abs(acc_high - 0.9) <= 0.01


def test_config_validation():
    with pytest.raises(InputError):
        SyntheticConfig(n_classes=1, n_samples=10)
    with pytest.raises(InputError):
        SyntheticConfig(n_classes=3, n_samples=10, noise_sigma=0.0)
    with pytest.raises(InputError):
        SyntheticConfig(n_classes=3, n_samples=10, temperature=-1.0)


@pytest.mark.parametrize("samples", [50_000, 3000])
def test_write_at_tuned_signal_equals_saved_generation(tmp_path, samples):
    # 50,000 rows are the bisection's probe rows, whose draw is reused
    template = SyntheticConfig(n_classes=6, n_samples=samples,
                               temperature=0.5, seed=23)
    signal, achieved, draw = tune_signal(0.7, template)
    assert (signal, achieved) == calibrate_signal_for_accuracy(0.7, template)
    assert (draw is None) == (samples != 50_000)
    cfg = replace(template, signal=signal)
    want = generate_synthetic(cfg)
    save_dataset(want, tmp_path / "want.csv")
    accuracy = write_synthetic(cfg, tmp_path / "got.csv", draw)
    assert accuracy == measure_top1_accuracy(want)
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("bad_row", [0, 12, 39])
def test_blocks_name_the_first_bad_row_across_block_edges(tmp_path,
                                                          monkeypatch, bad_row):
    # blocks of 5 rows; a NaN noise value drawn for one row must stop both
    # the bisection's probes and the writer at that row's global number
    monkeypatch.setattr(datagen, "BLOCK_CELLS", 15)
    draw_rows = datagen._draw_rows

    def poisoned(cfg, start, stop):
        labels, logits = draw_rows(cfg, start, stop)
        if start <= bad_row < stop:
            logits[bad_row - start, 1] = np.nan
        return labels, logits

    monkeypatch.setattr(datagen, "_draw_rows", poisoned)
    cfg = SyntheticConfig(n_classes=3, n_samples=40, seed=2)
    message = rf"^row {bad_row}: non-finite value$"
    with pytest.raises(InputError, match=message):
        calibrate_signal_for_accuracy(0.6, cfg, probe_samples=40)
    path = tmp_path / "g.csv"
    with pytest.raises(InputError, match=message):
        write_synthetic(cfg, path)
    assert not path.exists()


def test_calibrate_signal_unreachable_target():
    from semicp.errors import ConvergenceError
    # noise dwarfs the maximum signal, so 0.995 accuracy is out of reach
    template = SyntheticConfig(n_classes=10, n_samples=100, signal=1.0,
                               noise_sigma=60.0, seed=22)
    with pytest.raises(ConvergenceError) as exc:
        calibrate_signal_for_accuracy(0.995, template, probe_samples=5000)
    assert exc.value.best is not None


def one_step_rows(cfg, start, stop):
    """Rows [start, stop) drawn, boosted and softmaxed in one pass: the
    reference for the draw/finish split."""
    k = cfg.n_classes
    idx = np.arange(start, stop, dtype=np.uint64)
    keys = rng.mix64(np.uint64(int(cfg.seed) & 0xFFFFFFFFFFFFFFFF), idx)
    label_u = rng.uniforms(keys, np.zeros(stop - start, dtype=np.uint64))
    prior = np.full(k, 1.0 / k) if cfg.prior is None else np.asarray(cfg.prior)
    labels = np.minimum(np.searchsorted(np.cumsum(prior), label_u,
                                        side="right"), k - 1)
    noise = rng.normals(keys[:, None], np.arange(1, k + 1, dtype=np.uint64)[None, :])
    logits = cfg.noise_sigma * noise
    logits[np.arange(stop - start), labels] += cfg.signal
    z = logits / cfg.temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return labels.astype(np.int64), logits, e / e.sum(axis=1, keepdims=True)


def bisection_oracle(target_acc, template, tolerance, probe_samples, max_iters):
    """The signal bisection with every probe a full generate_synthetic call."""
    lo, hi = 0.0, 50.0
    best_signal, best_acc = None, None
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        acc = measure_top1_accuracy(generate_synthetic(
            replace(template, n_samples=probe_samples, signal=mid)))
        if best_acc is None or abs(acc - target_acc) < abs(best_acc - target_acc):
            best_signal, best_acc = mid, acc
        if abs(acc - target_acc) <= tolerance:
            return mid, acc
        if acc < target_acc:
            lo = mid
        else:
            hi = mid
    raise ConvergenceError("not converged", best=(best_signal, best_acc))


@st.composite
def synthetic_configs(draw, max_samples=300):
    k = draw(st.integers(2, 12))
    prior = None
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k,
                                   max_size=k)))
        prior = tuple(w / w.sum())
    return SyntheticConfig(
        n_classes=k,
        n_samples=draw(st.integers(0, max_samples)),
        signal=draw(st.floats(0.0, 20.0)),
        noise_sigma=draw(st.floats(0.05, 10.0)),
        # a huge temperature makes softmax rounding tie rows whose logits
        # differ, so the accuracy of probs and of logits part ways
        temperature=draw(st.one_of(st.floats(0.05, 5.0),
                                   st.sampled_from((1e16, 1e18, 1e20)))),
        prior=prior,
        seed=draw(st.integers(0, 2**64 - 1)))


# a small block size puts block edges inside the oracles' few rows
block_cells = st.integers(1, 1000)


@settings(max_examples=100, deadline=None)
@given(cfg=synthetic_configs(), cells=block_cells)
def test_generate_synthetic_matches_one_step_rows(cfg, cells):
    with mock.patch.object(datagen, "BLOCK_CELLS", cells):
        ds = generate_synthetic(cfg)
    labels, logits, probs = one_step_rows(cfg, 0, cfg.n_samples)
    assert ds.labels.tobytes() == labels.tobytes()
    assert ds.logits.tobytes() == logits.tobytes()
    assert ds.probs.tobytes() == probs.tobytes()
    assert ds.features is ds.logits


@settings(max_examples=80, deadline=None)
@given(template=synthetic_configs(), cells=block_cells, data=st.data())
def test_bisection_matches_full_generation_oracle(template, cells, data):
    k = template.n_classes
    target = 1.0 / k + data.draw(st.floats(0.01, 0.99)) * (1.0 - 1.0 / k)
    kwargs = dict(tolerance=data.draw(st.sampled_from((0.0, 0.001, 0.01, 0.05))),
                  probe_samples=data.draw(st.integers(1, 2000)),
                  max_iters=data.draw(st.integers(1, 30)))
    try:
        want = bisection_oracle(target, template, **kwargs)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as got, \
                mock.patch.object(datagen, "BLOCK_CELLS", cells):
            calibrate_signal_for_accuracy(target, template, **kwargs)
        assert got.value.best == exc.best
    else:
        with mock.patch.object(datagen, "BLOCK_CELLS", cells):
            got = calibrate_signal_for_accuracy(target, template, **kwargs)
        assert got == want


@settings(max_examples=100, deadline=None)
@given(cfg=synthetic_configs(), cells=block_cells, data=st.data())
def test_probe_hits_equal_a_full_probe(cfg, cells, data):
    # a probe whose rounding window holds no row (counted from the sorted
    # margins) or that finishes every row makes a full probe's hit count,
    # or fails at its first bad row; 1e6-1e12 give partial windows, whose
    # probes finish every row, 1e-300 a tiny finite width, 1e-310 an
    # overflow and so an infinite width
    temperature = data.draw(st.one_of(
        st.just(cfg.temperature),
        st.sampled_from((1e-310, 1e-300, 1e6, 1e9, 1e12))))
    probe = replace(cfg, n_samples=max(1, cfg.n_samples),
                    temperature=temperature)
    with mock.patch.object(datagen, "BLOCK_CELLS", cells):
        draw, margins, width = datagen._probe_draw(probe)
        for signal in data.draw(st.lists(st.floats(0.0, datagen.SIGNAL_TOP),
                                         min_size=1, max_size=4)):
            at = replace(probe, signal=signal)
            try:
                ds = generate_synthetic(at)
            except InputError as exc:
                with pytest.raises(InputError, match=f"^{exc}$"):
                    datagen._probe_hits(at, margins, width)
                continue
            want = int(np.count_nonzero(pseudo_labels(ds.probs) == ds.labels))
            assert datagen._probe_hits(at, margins, width) == want

import numpy as np
import pytest

from semicp.datagen import (SyntheticConfig, _generate_rows,
                            calibrate_signal_for_accuracy, generate_synthetic,
                            measure_top1_accuracy)
from semicp.dataset import ProbabilityDataset
from semicp.errors import ConfigurationError, InputError


def test_same_seed_bit_identical():
    cfg = SyntheticConfig(n_classes=5, n_samples=2000, signal=1.5, seed=99)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.logits, b.logits)


def test_chunked_rows_equal_full_generation():
    # per-sample streams: any chunking of the index range gives the same rows
    cfg = SyntheticConfig(n_classes=4, n_samples=500, signal=2.0, seed=5)
    full = generate_synthetic(cfg)
    for start, stop in [(0, 100), (100, 500), (250, 251)]:
        labels, logits, probs = _generate_rows(cfg, start, stop)
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


def test_calibrate_signal_unreachable_target():
    from semicp.errors import ConvergenceError
    # noise dwarfs the maximum signal, so 0.995 accuracy is out of reach
    template = SyntheticConfig(n_classes=10, n_samples=100, signal=1.0,
                               noise_sigma=60.0, seed=22)
    with pytest.raises(ConvergenceError) as exc:
        calibrate_signal_for_accuracy(0.995, template, probe_samples=5000)
    assert exc.value.best is not None

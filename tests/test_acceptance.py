"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -v -s`` to see
them all).  Monte Carlo tolerances are fixed here, not tuned at runtime.
"""

import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from beta_oracle import beta_cdf
from coverage_law import expected_cov_gap
from gathered import queries, records
from per_trial import observed
from quantile_oracle import exact_quantile_oracle
from semicp import rng
from semicp.calibration import conformal_quantile, epsilon_bias
from semicp.datagen import SyntheticConfig, generate_synthetic
from semicp.dataset import ProbabilityDataset
from semicp.metrics import (cov_gap, improvement, ks_distance, over_under_gaps,
                            summarize)
from semicp.runner import (CalibrationPlan, DataSource, ExperimentConfig,
                           MethodSpec, _build_context, _validate_sources,
                           run_experiment, run_trial)
from semicp.scores import ScoreSpec
from semicp.unlabeled import EstimatorSpec, ScoreTables, estimate_scores

REPO = Path(__file__).resolve().parents[1]

# generator geometry used by the semi-supervised criteria: pseudo-label
# accuracy ~0.795 at this signal, independent of temperature
ACC80_SIGNAL = 2.4414


def acc80_source(samples=20_000, seed=7):
    return DataSource(synthetic=SyntheticConfig(
        n_classes=10, n_samples=samples, signal=ACC80_SIGNAL,
        noise_sigma=1.0, temperature=0.5, seed=seed))


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} {status} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_quantile_oracle_equivalence():
    rs = np.random.RandomState(11)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        m = rs.randint(1, 51)
        pool = rs.rand(m)
        alpha = rs.uniform(0.01, 0.99)
        t = conformal_quantile(pool, alpha)
        expected = exact_quantile_oracle(list(pool), alpha)
        if expected is None:
            mismatches += not t.include_all
        else:
            mismatches += t.include_all or t.value != expected
    elapsed = time.perf_counter() - start
    report(1, "quantile oracle equivalence",
           mismatches == 0 and elapsed < 5.0,
           f"{mismatches} mismatches on 1000 pools in {elapsed:.2f}s (<5s)")


def _coverage_chunk(n, test_size, k, seed, alpha, ct):
    """Per-trial split-CP coverage of one chunk of ``ct`` trials, on pools
    drawn from one dataset keyed by ``seed`` (thr scores)."""
    per_trial = n + test_size
    cfg = SyntheticConfig(n_classes=k, n_samples=ct * per_trial, signal=2.0,
                          seed=seed)
    ds = generate_synthetic(cfg)
    scores = ScoreTables(ds, ScoreSpec("thr")).true(
        np.arange(len(ds))).reshape(ct, per_trial)
    covs = np.empty(ct)
    for i in range(ct):
        t = conformal_quantile(scores[i, :n], alpha)
        covs[i] = np.mean(scores[i, n:] <= t.value)
    return covs


def _coverage_trials(n, trials, test_size, k, seed, alpha=0.1,
                     chunk_trials=100, workers=2):
    """Per-trial split-CP coverage on freshly drawn pools (thr scores).

    Chunk ``i`` of ``chunk_trials`` trials draws its pools from a dataset
    keyed by ``seed * 100_000 + i``, so the chunks are independent: they run
    in a pool of ``workers`` processes (one process when one CPU is usable)
    and are joined in chunk order, the same array at any worker count.
    """
    chunks = [(n, test_size, k, seed * 100_000 + i, alpha,
               min(chunk_trials, trials - done))
              for i, done in enumerate(range(0, trials, chunk_trials))]
    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = max(1, min(workers, cpus, len(chunks)))
    if workers == 1:
        return np.concatenate([_coverage_chunk(*c) for c in chunks])
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")
                             ) as pool:
        return np.concatenate(list(pool.map(_coverage_chunk, *zip(*chunks))))


def test_coverage_trials_pooled_equal_serial():
    kwargs = dict(n=10, trials=250, test_size=300, k=4, seed=7,
                  chunk_trials=100)
    pooled = _coverage_trials(**kwargs, workers=2)
    assert pooled.shape == (250,)
    assert np.array_equal(pooled, _coverage_trials(**kwargs, workers=1))


def test_criterion_02_marginal_coverage_guarantee():
    start = time.perf_counter()
    covs = _coverage_trials(n=100, trials=2000, test_size=1000, k=10, seed=2)
    elapsed = time.perf_counter() - start
    mean = covs.mean()
    report(2, "marginal coverage guarantee",
           0.895 <= mean <= 0.915 and elapsed < 60.0,
           f"mean coverage {mean:.5f} in [0.895, 0.915], {elapsed:.1f}s (<60s)")


def test_criterion_03_beta_coverage_law():
    start = time.perf_counter()
    covs = _coverage_trials(n=10, trials=2000, test_size=20_000, k=4, seed=3)
    elapsed = time.perf_counter() - start
    xs = np.sort(covs)
    m = xs.size
    cdf = np.array([beta_cdf(float(x), 10, 1) for x in xs])
    ks = max(np.max(np.abs(np.arange(1, m + 1) / m - cdf)),
             np.max(np.abs(np.arange(m) / m - cdf)))
    p_tail = float(np.mean(covs < 0.8))
    report(3, "Beta law of coverage",
           ks < 0.05 and abs(p_tail - 0.107) <= 0.02 and elapsed < 120.0,
           f"KS {ks:.4f} (<0.05), P(cov<0.8) {p_tail:.4f} (0.107+-0.02), "
           f"{elapsed:.1f}s (<120s)")


def test_criterion_04_coverage_variance_formula():
    details = []
    ok = True
    for n in (10, 50):
        covs = _coverage_trials(n=n, trials=8000, test_size=4000, k=4, seed=4)
        var = covs.var(ddof=1)
        target = 0.1 * 0.9 / (n + 2)
        rel = abs(var - target) / target
        ok = ok and rel < 0.15
        details.append(f"n={n}: var {var:.6f} vs {target:.6f} "
                       f"(rel err {rel:.3f})")
    report(4, "coverage variance formula", ok, "; ".join(details))


def _ks_pair(tables, spec, n, big_n, trial, seed):
    perm = rng.permutation(rng.stream(seed, trial, 77), len(tables.dataset))
    rec = tables.records(perm[:n])
    unl = perm[n:n + big_n]
    pseudo = tables.queries(unl)
    true = tables.true(unl)
    return (ks_distance(estimate_scores(pseudo, rec, spec), true),
            ks_distance(estimate_scores(pseudo, rec, spec,
                                        EstimatorSpec("naive")), true))


def test_criterion_05_nnm_distribution_matching():
    cfg = acc80_source(samples=40_000, seed=9).synthetic
    spec = ScoreSpec("aps")
    tables = ScoreTables(generate_synthetic(cfg), spec)
    wins = 0
    for t in range(200):
        k_nnm, k_naive = _ks_pair(tables, spec, 100, 4000, t, seed=0)
        wins += k_nnm < k_naive
    med10 = np.median([_ks_pair(tables, spec, 10, 4000, t, 1)[0]
                       for t in range(120)])
    med1000 = np.median([_ks_pair(tables, spec, 1000, 4000, t, 1)[0]
                         for t in range(120)])
    report(5, "NNM distribution matching",
           wins >= 190 and med1000 < med10,
           f"NNM beats naive in {wins}/200 trials (>=190); median KS "
           f"n=1000 {med1000:.4f} < n=10 {med10:.4f}")


def test_criterion_06_semicp_coverage_gap_reduction():
    methods = (MethodSpec("standard", "standard"),
               MethodSpec("semicp", "semicp"),
               MethodSpec("oracle", "oracle"))
    config = ExperimentConfig(
        source=acc80_source(), n=20, N=4000, test_size=1000, alpha=0.1,
        trials=1000, score=ScoreSpec("aps"), methods=methods, base_seed=101)
    s = run_experiment(config, jobs=4)
    ratio = s["semicp"].cov_gap / s["standard"].cov_gap
    mean_cov = s["semicp"].mean_coverage
    report(6, "SemiCP coverage-gap reduction",
           ratio < 0.6 and 0.88 <= mean_cov <= 0.92,
           f"cov_gap semicp {s['semicp'].cov_gap:.3f} vs standard "
           f"{s['standard'].cov_gap:.3f} (ratio {ratio:.3f} < 0.6); "
           f"mean coverage {mean_cov:.4f} in [0.88, 0.92]")


def test_criterion_07_baseline_pathologies():
    naive_cfg = ExperimentConfig(
        source=acc80_source(), n=20, N=4000, test_size=1000, alpha=0.1,
        trials=1000, score=ScoreSpec("thr"), base_seed=104,
        methods=(MethodSpec("naive", "semicp", EstimatorSpec("naive")),))
    naive_cov = run_experiment(naive_cfg, jobs=4)["naive"].mean_coverage

    cmp_cfg = ExperimentConfig(
        source=acc80_source(), n=100, N=4000, test_size=1000, alpha=0.1,
        trials=1000, score=ScoreSpec("thr"), base_seed=105,
        methods=(MethodSpec("nnm", "semicp", EstimatorSpec("nnm")),
                 MethodSpec("debias", "semicp", EstimatorSpec("debias")),
                 MethodSpec("rm", "semicp", EstimatorSpec("random_match"))))
    s = run_experiment(cmp_cfg, jobs=4)
    ok = (naive_cov < 0.89
          and s["debias"].cov_gap >= s["nnm"].cov_gap
          and s["rm"].cov_gap >= s["nnm"].cov_gap)
    report(7, "baseline pathologies", ok,
           f"naive mean coverage {naive_cov:.4f} (<0.89); n=100 cov_gap "
           f"nnm {s['nnm'].cov_gap:.3f} <= debias {s['debias'].cov_gap:.3f} "
           f"and rm {s['rm'].cov_gap:.3f}")


def test_criterion_08_reductions_are_bit_identical():
    base = dict(source=acc80_source(samples=6000), test_size=400, alpha=0.1,
                trials=1, score=ScoreSpec("aps"), base_seed=55)

    zero_n = ExperimentConfig(n=30, N=0, **base)
    res = observed(zero_n, run_trial(zero_n, 0))
    ok_a = (res["semicp"].coverage == res["standard"].coverage
            and res["semicp"].avg_size == res["standard"].avg_size)

    cfg = SyntheticConfig(n_classes=6, n_samples=900, signal=2.0, seed=3)
    ds = generate_synthetic(cfg)
    lab, unl = np.arange(200), np.arange(200, 900)
    det, rand = ScoreSpec("aps"), ScoreSpec("aps", randomized=True)
    det_t, rand_t = ScoreTables(ds, det), ScoreTables(ds, rand)
    r_scores = estimate_scores(rand_t.queries(unl), rand_t.records(lab), rand,
                               EstimatorSpec("nnm_r"), u=np.ones(len(unl)))
    ok_b = np.array_equal(r_scores, estimate_scores(det_t.queries(unl),
                                                    det_t.records(lab), det))

    perfect = ExperimentConfig(
        n=30, N=1000,
        source=DataSource(synthetic=SyntheticConfig(
            n_classes=10, n_samples=6000, signal=60.0, seed=13)),
        test_size=400, alpha=0.1, trials=1, score=ScoreSpec("aps"),
        base_seed=56)
    res = observed(perfect, run_trial(perfect, 0))
    ok_c = (res["semicp"].coverage == res["oracle"].coverage
            and res["semicp"].avg_size == res["oracle"].avg_size)

    report(8, "reductions bit-identical", ok_a and ok_b and ok_c,
           f"N=0 == standard: {ok_a}; nnm_r(u=1) == nnm: {ok_b}; "
           f"perfect pseudo-labels == oracle: {ok_c}")


def test_criterion_09_group_conditional_coverage():
    config = ExperimentConfig(
        source=acc80_source(), n=250, N=2000, test_size=1000, alpha=0.1,
        trials=1000, score=ScoreSpec("aps"), base_seed=103,
        methods=(MethodSpec("standard", "standard"),
                 MethodSpec("semicp", "semicp")),
        calibration=CalibrationPlan(mode="group_conditional", n_groups=5))
    ctx = _build_context(config)
    sums = {m: np.zeros(5) for m in ("standard", "semicp")}
    counts = {m: np.zeros(5) for m in ("standard", "semicp")}
    for t in range(config.trials):
        res = observed(config, run_trial(config, t, ctx))
        for m in sums:
            for g, c in res[m].per_group_coverage.items():
                sums[m][g] += c
                counts[m][g] += 1
    ok = True
    details = []
    for m in sums:
        means = sums[m] / counts[m]
        ok = ok and np.all(counts[m] == config.trials) \
            and np.all(means >= 0.89)
        details.append(f"{m} min group mean {means.min():.4f}")
    report(9, "group-conditional coverage", ok,
           "; ".join(details) + " (each >= 0.89 over 1000 trials)")


def test_criterion_10_metric_oracles():
    rs = np.random.RandomState(12)
    exact = True
    for _ in range(300):
        c = rs.rand(rs.randint(1, 40))
        a = rs.uniform(0.05, 0.5)
        loop_gap = 100.0 * sum(abs(x - (1 - a)) for x in c) / len(c)
        loop_over = 100.0 * sum(x - (1 - a) for x in c if x > 1 - a) / len(c)
        loop_under = 100.0 * sum((1 - a) - x for x in c if x < 1 - a) / len(c)
        over, under = over_under_gaps(c, a)
        exact = exact and math.isclose(cov_gap(c, a), loop_gap, rel_tol=1e-12)
        trial = np.array([[0.9, 1.0, *c]]).T  # one trial, groups 0..len(c)-1
        exact = exact and math.isclose(summarize("m", trial, a).group_cov_gap,
                                       loop_gap, rel_tol=1e-12)
        exact = exact and math.isclose(over, loop_over, rel_tol=1e-12,
                                       abs_tol=1e-12)
        exact = exact and math.isclose(under, loop_under, rel_tol=1e-12,
                                       abs_tol=1e-12)
    pinned = improvement(2.64, 0.88, 0.65)
    ok = exact and abs(pinned - 88.44) <= 0.01
    report(10, "metric oracles", ok,
           f"loop oracles exact on 300 random inputs; "
           f"improvement(2.64, 0.88, 0.65) = {pinned:.4f} (88.44+-0.01)")


def test_criterion_11_run_determinism_across_jobs(tmp_path):
    config = str(REPO / "configs" / "example.json")
    outputs = []
    for rep in range(3):
        for jobs in ("1", "8"):
            out = tmp_path / f"r{rep}_{jobs}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "semicp.cli", "run", "--config",
                 config, "--jobs", jobs, "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
    ok = all(b == outputs[0] for b in outputs[1:])
    report(11, "determinism across workers", ok,
           f"6 runs (jobs 1 and 8, 3 repetitions) produced "
           f"{'identical' if ok else 'DIFFERING'} result bytes")


def test_criterion_12_matching_complexity():
    spec = ScoreSpec("thr")
    lab = generate_synthetic(SyntheticConfig(
        n_classes=10, n_samples=1000, signal=ACC80_SIGNAL, seed=4))
    rec = records(lab, spec)
    big1 = generate_synthetic(SyntheticConfig(
        n_classes=10, n_samples=1_000_000, signal=ACC80_SIGNAL, seed=5))
    big2 = generate_synthetic(SyntheticConfig(
        n_classes=10, n_samples=2_000_000, signal=ACC80_SIGNAL, seed=6))
    estimate_scores(queries(ProbabilityDataset(big1.probs[:1000]), spec), rec,
                    spec)  # warm-up

    # the timed work scores the whole pool, then matches it
    start = time.perf_counter()
    estimate_scores(queries(big1, spec), rec, spec)
    t1 = time.perf_counter() - start
    start = time.perf_counter()
    estimate_scores(queries(big2, spec), rec, spec)
    t2 = time.perf_counter() - start
    report(12, "matching complexity", t1 < 2.0 and t2 / t1 <= 2.5,
           f"n=1000, N=1e6 in {t1:.3f}s (<2s); doubling N scales by "
           f"{t2 / t1:.2f}x (<=2.5x)")


def test_criterion_13_exact_coverage_gap_law():
    # standard calibrates on m = n true scores and oracle on m = n + N, so
    # their expected gaps follow the exact Beta-binomial law; semicp's
    # excess over the exact oracle value is the estimator's error term,
    # reported and not gated.  That term is eps_inf of the drawn records
    # (see criterion 15), so semicp's gap converges to
    # E|oracle deviation + eps_inf|, not to the oracle's gap
    n, test_size, trials, alpha = 20, 500, 400, 0.1
    methods = tuple(MethodSpec(k, k) for k in ("standard", "semicp", "oracle"))
    worst, details = 0.0, []
    for kind in ("thr", "aps"):
        for big_n in (0, 250, 1000, 4000):
            config = ExperimentConfig(
                source=acc80_source(), n=n, N=big_n, test_size=test_size,
                alpha=alpha, trials=trials, score=ScoreSpec(kind),
                methods=methods, base_seed=20240601)
            ctx = _build_context(config)
            devs = {m.name: np.empty(trials) for m in methods}
            for t in range(trials):
                for name, res in observed(
                        config, run_trial(config, t, ctx)).items():
                    devs[name][t] = 100.0 * abs(res.coverage - (1 - alpha))
            for name, m in (("standard", n), ("oracle", n + big_n)):
                exact = expected_cov_gap(m, test_size, alpha)
                se = devs[name].std(ddof=1) / math.sqrt(trials)
                worst = max(worst, abs(devs[name].mean() - exact) / se)
            excess = devs["semicp"].mean() - expected_cov_gap(
                n + big_n, test_size, alpha)
            details.append(f"{kind} N={big_n} semicp excess {excess:+.2f}")
    report(13, "exact coverage-gap law", worst <= 3.0,
           f"standard and oracle cov_gap at most {worst:.2f} SE (<=3) from "
           f"the Beta-binomial value over 400 trials; " + "; ".join(details))


SEMICP_ESTIMATORS = ("naive", "debias", "nnm")


def _epsilon_residuals(kind, trials, base_seed, n=20, big_n=2000, alpha=0.1):
    """Per-trial residuals (semicp coverage - oracle coverage - epsilon) of
    each semicp estimator, read from the runner's own draw.

    One config lists standard, the three estimators and the oracle, so
    every method calibrates on the same trial's pools; epsilon comes from
    the pool ``_Draw.pool`` built for the method."""
    methods = ((MethodSpec("standard", "standard"),)
               + tuple(MethodSpec(e, "semicp", EstimatorSpec(e))
                       for e in SEMICP_ESTIMATORS)
               + (MethodSpec("oracle", "oracle"),))
    config = ExperimentConfig(
        source=acc80_source(), n=n, N=big_n, test_size=500, alpha=alpha,
        trials=trials, score=ScoreSpec(kind), methods=methods,
        base_seed=base_seed)
    ctx = _build_context(config)
    _validate_sources(config, ctx)
    oracle = len(methods) - 1
    residuals = {e: np.empty(trials) for e in SEMICP_ESTIMATORS}
    for t in range(trials):
        shared = {}
        results = run_trial(config, t, ctx, shared)
        draw = shared["draw"]
        truth = ctx.main.true(draw.unlab, draw.u_unlab)
        for position, method in enumerate(methods):
            if method.kind == "semicp":
                pool = draw.pool(config, position, method)
                eps = epsilon_bias(truth, pool[n:],
                                   conformal_quantile(pool, alpha), n, big_n)
                residuals[method.name][t] = (results[position, 0]
                                             - results[oracle, 0] - eps)
    return residuals


def test_criterion_14_epsilon_identity_through_the_runner():
    # semicp's coverage differs from the oracle's, on the same test pool,
    # by epsilon = N/(N+n) (F_true(t) - F_est(t)) at its threshold t: the
    # estimator's error term.  The pools' empirical CDFs resolve 1/(n+N),
    # and a threshold picked from a pool covers k/(n+N+1) of the test pool
    # in expectation where the pool's CDF puts k/(n+N), so the identity
    # holds in the mean up to one such step, which the tolerance adds
    n, big_n, trials = 20, 2000, 1000
    step = 1 / (n + big_n)
    worst, details = 0.0, []
    for kind in ("thr", "aps"):
        for name, r in _epsilon_residuals(kind, trials, base_seed=14, n=n,
                                          big_n=big_n).items():
            se = r.std(ddof=1) / math.sqrt(trials)
            worst = max(worst, (abs(r.mean()) - step) / se)
            details.append(f"{kind} {name} {r.mean():+.5f} "
                           f"({r.mean() / se:+.2f} SE)")
    report(14, "epsilon identity", worst <= 3.0,
           f"|mean residual coverage - oracle - epsilon| exceeds 1/(n+N) by "
           f"at most {max(worst, 0.0):.2f} SE (<=3) over {trials} trials; "
           + "; ".join(details))


def _epsilon(tables, spec, records, rows, alpha=0.1):
    """epsilon of one unlabeled pool of ``rows``, whose scores nnm
    estimates from ``records``."""
    est = estimate_scores(tables.queries(rows), records, spec)
    threshold = conformal_quantile(np.concatenate([records.true_scores, est]),
                                   alpha)
    return epsilon_bias(tables.true(rows), est, threshold, len(records),
                        len(rows))


def test_criterion_15_epsilon_converges_at_root_n():
    # at fixed labeled records, epsilon settles on its limit eps_inf (the
    # epsilon of the whole remaining source) with a spread that falls as
    # 1/sqrt(N).  That needs the estimated scores to have mass around the
    # limit threshold: under thr a few record draws put it at a gap of
    # the nnm estimates, epsilon then takes two values across pools and
    # its spread falls slower over these N, so the medians over record
    # draws are gated and every draw is reported.  The mean is not gated
    # in SE, as a small finite-N bias shows at 400 pools
    n, sizes, pools, draws = 20, (250, 1000, 4000), 400, 9
    ds = generate_synthetic(acc80_source(samples=40_000).synthetic)
    kinds = ("thr", "aps")
    specs = [ScoreSpec(kind) for kind in kinds]
    tables = [ScoreTables(ds, spec) for spec in specs]
    slopes, gaps = np.empty((2, len(kinds), draws))
    for draw in range(draws):
        perm = rng.permutation(rng.stream(15, draw), len(ds))
        records = [t.records(perm[:n]) for t in tables]
        rest = perm[n:]
        eps = np.empty((len(kinds), len(sizes), pools))
        for p in range(pools):  # the pools of one p are nested
            rows = rest[rng.permutation(rng.stream(15, draw, p), len(rest),
                                        sizes[-1])]
            eps[:, :, p] = [[_epsilon(t, spec, rec, rows[:big_n])
                             for big_n in sizes]
                            for t, spec, rec in zip(tables, specs, records)]
        for i, (t, spec, rec) in enumerate(zip(tables, specs, records)):
            slopes[i, draw] = np.polyfit(
                np.log(sizes), np.log(eps[i].std(axis=1, ddof=1)), 1)[0]
            gaps[i, draw] = abs(eps[i, -1].mean()
                                - _epsilon(t, spec, rec, rest))
    slope, gap = np.median(slopes, axis=1), np.median(gaps, axis=1)
    ok = bool(np.all((-0.6 <= slope) & (slope <= -0.4) & (gap <= 0.002)))
    details = [f"{kind}: median slope {slope[i]:.3f}, median |mean - "
               f"eps_inf| {gap[i]:.4f}; per draw slopes "
               + " ".join(f"{v:.2f}" for v in slopes[i]) + ", distances "
               + " ".join(f"{v:.4f}" for v in gaps[i])
               for i, kind in enumerate(kinds)]
    report(15, "epsilon rate", ok,
           f"over {draws} record draws, the median log-log slope of "
           f"sd(epsilon) over N={sizes} lies in [-0.6, -0.4] and the median "
           f"|mean epsilon at N={sizes[-1]} - eps_inf| is <= 0.002; "
           + "; ".join(details))

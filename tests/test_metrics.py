"""Scoring functions, the benchmark harness, and split stability."""

import json
import time
import warnings
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from cdboost.data import (
    BoostConfig,
    DatasetBundle,
    FitResult,
    NumericError,
    ValidationError,
    all_common_partition,
)
from cdboost import metrics
from cdboost.metrics import (
    benchmark,
    canonical_method,
    canonical_methods,
    ermse,
    group_tp_fp,
    logrank_score,
    ooi,
    prmse_aft,
    prmse_lr,
    split_bundles,
    stability,
    variable_tp_fp,
)
from cdboost.simulate import GroundTruth, SimDesign

from conftest import make_aft_bundles, make_lr_bundles, tiny_groups
from oracles import (
    HAND_LOGRANK_DELTA,
    HAND_LOGRANK_GROUP,
    HAND_LOGRANK_TIME,
    HAND_LOGRANK_VALUE,
    ermse_direct,
    logrank_statistic,
    ooi_direct,
    true_covariance,
)


def _truth(beta, groups):
    from cdboost.data import adjacent_equal_pairs

    beta = np.asarray(beta, dtype=float)
    return GroundTruth(
        beta=beta,
        scenarios=("full",) * groups.K,
        equal_pairs=adjacent_equal_pairs(beta, groups),
        important=tuple(tuple(np.flatnonzero(beta[:, m])) for m in range(beta.shape[1])),
    )


def _as_fit(beta):
    beta = np.asarray(beta, dtype=float)
    return SimpleNamespace(beta_hat=beta)


def test_canonical_method():
    assert canonical_method("cd") == "cd_sboost"
    assert canonical_method("CD-SBoost") == "cd_sboost"
    assert canonical_method(" pool_sboost ") == "pool_sboost"
    assert canonical_method("int") == "int_sboost"
    assert canonical_method("sboost") == "sboost"
    with pytest.raises(ValidationError):
        canonical_method("lasso")


# ---------------------------------------------------------------------------
# selection counts
# ---------------------------------------------------------------------------


def test_group_counts_hand_case():
    groups = tiny_groups(4, 2)
    truth = _truth(
        [[1.0, 1.0, 1.0],   # group 0: common everywhere
         [0.5, 0.5, 0.5],
         [0.3, 0.3, 0.9],   # group 1: first pair equal, second not
         [0.0, 0.0, 0.2]],
        groups,
    )
    assert truth.equal_pairs == ((True, True), (True, False))
    est = _as_fit(
        [[1.0, 1.0, 0.8],   # group 0: only the first pair recovered
         [0.5, 0.5, 0.5],
         [0.3, 0.3, 0.3],   # group 1: both pairs equal, second is false
         [0.1, 0.1, 0.1]],
    )
    assert group_tp_fp(est, truth, groups) == (2, 1)


def test_group_counts_zero_blocks_count_as_equal():
    groups = tiny_groups(2, 1)
    truth = _truth([[0.4, 0.4, 0.9], [0.4, 0.4, 0.9]], groups)
    silent = _as_fit(np.zeros((2, 3)))
    # both pairs estimated equal: one true (first) and one false (second)
    assert group_tp_fp(silent, truth, groups) == (1, 1)


def test_group_counts_shape_guard():
    groups = tiny_groups(2, 1)
    truth = _truth(np.zeros((2, 3)), groups)
    with pytest.raises(ValidationError):
        group_tp_fp(_as_fit(np.zeros((3, 3))), truth, groups)


def test_variable_counts():
    groups = tiny_groups(3, 1)
    truth = _truth([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], groups)
    est = _as_fit([[0.7, 0.0], [0.2, 0.0], [0.0, -0.1]])
    # hits: (0,0); misses of the estimate: (1,0) and (2,1)
    assert variable_tp_fp(est, truth) == (1, 2)


# ---------------------------------------------------------------------------
# error and prediction metrics
# ---------------------------------------------------------------------------


def test_ermse_matches_direct(rng):
    groups = tiny_groups(5, 1)
    for _ in range(5):
        bhat = rng.standard_normal((5, 3))
        btrue = rng.standard_normal((5, 3))
        truth = _truth(btrue, groups)
        assert ermse(_as_fit(bhat), truth) == pytest.approx(
            ermse_direct(bhat, btrue), rel=1e-12
        )


def test_prmse_lr_is_summed_residual_root(rng):
    beta = np.zeros((4, 2))
    beta[0] = (1.0, 0.5)
    bundles = []
    want = 0.0
    for m in range(2):
        X = rng.standard_normal((30, 4))
        noise = rng.standard_normal(30)
        bundles.append(DatasetBundle(X=X, y=X @ beta[:, m] + noise, id=m))
        want += float(noise @ noise)
    got = prmse_lr(_as_fit(beta), bundles)
    assert got == pytest.approx(np.sqrt(want), rel=1e-12)


def test_prmse_aft_matches_dense_quadratic(rng):
    design = SimDesign(M=3, n=30, p=25, K=2, rho_f=1.0, rho_p=0.0, rho_n=0.0,
                       model="aft", sigma2=2.0, seed=0)
    sigma = true_covariance(design)
    bhat = rng.standard_normal((design.p, 3))
    btrue = rng.standard_normal((design.p, 3))
    truth = _truth(btrue, design.groups())
    want = 0.0
    for m in range(3):
        d = bhat[:, m] - btrue[:, m]
        want += float(d @ sigma @ d)
    want = np.sqrt(want) / design.sigma
    assert prmse_aft(_as_fit(bhat), truth, design) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# stability score
# ---------------------------------------------------------------------------


def test_ooi_hand_values():
    sels = [[1, 2], [1, 3]]
    assert ooi(sels, top=2) == pytest.approx(0.75)
    # constant selection of `top` covariates is perfectly stable
    sels = [list(range(15))] * 4
    assert ooi(sels) == pytest.approx(1.0)


def test_ooi_pads_missing_frequencies_with_zero():
    sels = [[4], [4], [4, 7]]
    with pytest.warns(UserWarning, match="ever selected"):
        got = ooi(sels, top=5)
    # frequencies 1.0 and 1/3, then three structural zeros
    assert got == pytest.approx((1.0 + 1 / 3) / 5)
    assert got == pytest.approx(ooi_direct(sels, top=5))


def test_ooi_matches_direct(rng):
    for _ in range(10):
        sels = [rng.choice(40, size=rng.integers(5, 20), replace=False)
                for _ in range(8)]
        assert ooi(sels, top=15) == pytest.approx(ooi_direct(sels, top=15), rel=1e-12)


def test_ooi_needs_two_splits():
    with pytest.raises(ValidationError):
        ooi([[1, 2]])


# ---------------------------------------------------------------------------
# logrank evaluation
# ---------------------------------------------------------------------------


def _fit_for_risk(beta_col):
    beta = np.asarray(beta_col, dtype=float)[:, None]
    return FitResult(
        beta_hat=beta, t_hat=1,
        partitions=[all_common_partition(1)] * len(beta),
        objective_trace=np.zeros(1),
    )


def test_logrank_hand_example():
    # single indicator covariate: the median risk split reproduces the groups
    fit = _fit_for_risk([1.0])
    bundle = DatasetBundle(
        X=HAND_LOGRANK_GROUP.astype(float)[:, None],
        y=HAND_LOGRANK_TIME.astype(float),
        delta=HAND_LOGRANK_DELTA.astype(int),
        id=0,
    )
    assert logrank_score(fit, bundle) == pytest.approx(HAND_LOGRANK_VALUE, rel=1e-12)
    assert HAND_LOGRANK_VALUE == pytest.approx(841.0 / 11819.0)


def test_logrank_matches_oracle_on_random_data(rng):
    fit = _fit_for_risk([1.0, -0.5, 0.25])
    hits = 0
    for _ in range(20):
        X = rng.standard_normal((40, 3))
        y = rng.exponential(1.0, 40)
        delta = (rng.random(40) > 0.3).astype(int)
        bundle = DatasetBundle(X=X, y=y, delta=delta, id=0)
        risk = X @ fit.beta_hat[:, 0]
        group = (risk > np.median(risk)).astype(int)
        try:
            want = logrank_statistic(y, delta, group)
        except ZeroDivisionError:
            continue
        if delta[group == 1].sum() == 0 or delta[group == 0].sum() == 0:
            continue
        assert logrank_score(fit, bundle) == pytest.approx(want, rel=1e-12)
        hits += 1
    assert hits >= 15


def test_logrank_agrees_with_statsmodels(rng):
    survdiff = pytest.importorskip("statsmodels.duration.survfunc").survdiff
    for _ in range(10):
        y = rng.exponential(1.0, 60)
        delta = (rng.random(60) > 0.25).astype(int)
        group = rng.integers(0, 2, 60)
        if delta[group == 1].sum() == 0 or delta[group == 0].sum() == 0:
            continue
        want = logrank_statistic(y, delta, group)
        chisq, _ = survdiff(y, delta, group)
        assert chisq == pytest.approx(want, rel=1e-8)


def test_logrank_degenerate_inputs(rng):
    X = rng.standard_normal((20, 2))
    y = rng.exponential(1.0, 20)
    delta = np.ones(20, dtype=int)
    with pytest.raises(ValidationError):
        logrank_score(_fit_for_risk([1.0, 0.0]),
                      DatasetBundle(X=X, y=y, id=0))
    # zero coefficients put everyone at the same risk
    with pytest.raises(NumericError):
        logrank_score(_fit_for_risk([0.0, 0.0]),
                      DatasetBundle(X=X, y=y, delta=delta, id=0))
    # all events inside one risk group
    one_sided = delta.copy()
    risk = X @ np.array([1.0, 0.0])
    one_sided[risk > np.median(risk)] = 0
    with pytest.raises(NumericError):
        logrank_score(_fit_for_risk([1.0, 0.0]),
                      DatasetBundle(X=X, y=y, delta=one_sided, id=0))


# ---------------------------------------------------------------------------
# train/test splitting
# ---------------------------------------------------------------------------


def test_split_bundles_partition_rows(rng):
    bundles = make_aft_bundles(rng, M=2, n=20, p=3)
    train, test = split_bundles(bundles, seed=4, split=0)
    for b, tr, te in zip(bundles, train, test):
        assert te.n == 5 and tr.n == 15
        assert tr.delta is not None and te.delta is not None
        joined = np.concatenate([tr.y, te.y])
        assert sorted(joined.tolist()) == sorted(b.y.tolist())
    again_tr, again_te = split_bundles(bundles, seed=4, split=0)
    assert np.array_equal(train[0].y, again_tr[0].y)
    other_tr, _ = split_bundles(bundles, seed=4, split=1)
    assert not np.array_equal(train[0].y, other_tr[0].y)


@pytest.mark.parametrize("model", ["lr", "aft"])
def test_split_bundles_training_rows_in_survival_order(rng, model):
    """Column 0 numbers the rows.  Test rows keep the file order; training
    rows of survival data come sorted by log-time, events first, tied keys
    in file order, and the two still partition each dataset's rows."""
    bundles = []
    for m in range(2):
        X = rng.standard_normal((40, 3))
        X[:, 0] = np.arange(40)
        y = np.round(rng.standard_normal(40), 1)      # tied log-times
        delta = rng.integers(0, 2, 40) if model == "aft" else None
        bundles.append(DatasetBundle(X=X, y=y, delta=delta, id=m))
    train, test = split_bundles(bundles, seed=4, split=0)
    for b, tr, te in zip(bundles, train, test):
        rows_tr, rows_te = tr.X[:, 0].astype(int), te.X[:, 0].astype(int)
        assert sorted([*rows_tr, *rows_te]) == list(range(b.n))
        assert rows_te.tolist() == sorted(rows_te)
        for part, rows in ((tr, rows_tr), (te, rows_te)):
            assert part.X.tobytes() == b.X[rows].tobytes()
            assert part.y.tobytes() == b.y[rows].tobytes()
        if model == "lr":
            assert rows_tr.tolist() == sorted(rows_tr)
        else:
            keys = list(zip(tr.y.tolist(), (1 - tr.delta).tolist(), rows_tr.tolist()))
            assert keys == sorted(keys)
            assert tr.delta.tolist() == b.delta[rows_tr].tolist()


# ---------------------------------------------------------------------------
# benchmark harness
# ---------------------------------------------------------------------------


def _small_bench_design(model="lr"):
    return SimDesign(M=3, n=40, p=50, K=2, rho_f=0.5, rho_p=0.5, rho_n=0.0,
                     coef_scheme="random", model=model, seed=17)


def test_benchmark_smoke_and_identities():
    design = _small_bench_design()
    config = BoostConfig(T=80, lam=0.5, algorithm="cd_sboost", model="lr")
    report = benchmark(design, ("cd", "int", "sep", "pool"), replicates=2,
                       config=config, tune=False, workers=1, verify=True)
    assert report.failures == []
    assert len(report.rows) == 8
    for row in report.rows_for("pool"):
        assert row.group_tp + row.group_fp == design.K * (design.M - 1)
    for row in report.rows:
        assert row.t_hat >= 1
        assert np.isfinite(row.ermse) and np.isfinite(row.prmse)
    agg = report.aggregate()
    assert set(agg) == {"cd", "int", "sep", "pool"}
    assert set(agg["cd"]) == {"variable_tp", "variable_fp", "group_tp",
                              "group_fp", "ermse", "prmse"}
    table = report.to_table()
    assert "pool" in table and "ERMSE" in table
    payload = report.to_json()
    json.dumps(payload)
    assert payload["replicates"] == 2


def test_benchmark_deterministic_and_parallel_equal():
    design = _small_bench_design()
    config = BoostConfig(T=50, lam=0.3, algorithm="cd_sboost", model="lr")
    a = benchmark(design, ("cd", "pool"), 2, config=config, tune=False).to_json()
    b = benchmark(design, ("cd", "pool"), 2, config=config, tune=False).to_json()
    c = benchmark(design, ("cd", "pool"), 2, config=config, tune=False,
                  workers=2).to_json()
    assert a == b == c


_real_replicate = metrics._benchmark_replicate


def _flaky_replicate(args):
    """Replicates 0 and 1 fail, replicate 0 only after replicate 1 has."""
    replicate = args[2]
    if replicate == 0:
        time.sleep(0.5)
    if replicate < 2:
        raise RuntimeError(f"synthetic failure {replicate}")
    return _real_replicate(args)


def test_benchmark_failures_in_replicate_order(monkeypatch):
    monkeypatch.setattr(metrics, "_benchmark_replicate", _flaky_replicate)
    design = _small_bench_design()
    config = BoostConfig(T=30, lam=0.3, algorithm="cd_sboost", model="lr")
    serial = benchmark(design, ("cd", "pool"), 3, config=config, tune=False)
    parallel = benchmark(design, ("cd", "pool"), 3, config=config, tune=False,
                         workers=2)
    assert serial.failures == ["replicate 0: synthetic failure 0",
                               "replicate 1: synthetic failure 1"]
    assert [row.replicate for row in serial.rows] == [2, 2]
    assert json.dumps(parallel.to_json(), sort_keys=True) == \
        json.dumps(serial.to_json(), sort_keys=True)


def test_benchmark_validation():
    design = _small_bench_design()
    with pytest.raises(ValidationError):
        benchmark(design, ("cd",), replicates=0, tune=False)
    with pytest.raises(ValidationError):
        benchmark(design, ("sboost",), replicates=1, tune=False)
    with pytest.raises(ValidationError):
        benchmark(design, ("cd",), replicates=1,
                  config=BoostConfig(model="aft"), tune=False)


@pytest.mark.parametrize("methods", [("cd", "cd"), ("cd", "int", "cd-sboost")])
def test_harnesses_refuse_an_algorithm_named_twice(rng, monkeypatch, methods):
    """Naming one algorithm twice would fit it twice per replicate or split
    and count each replicate twice; both harnesses refuse before any fit."""
    def refuse(*args, **kwargs):
        raise AssertionError("a fit ran before the methods were checked")

    monkeypatch.setattr(metrics, "run_fit", refuse)
    monkeypatch.setattr(metrics, "select_lambda", refuse)
    assert canonical_methods(("cd", "int", "sep-sboost")) == \
        ("cd_sboost", "int_sboost", "sep_sboost")
    with pytest.raises(ValidationError, match="both name cd_sboost"):
        canonical_methods(methods)
    with pytest.raises(ValidationError, match="both name cd_sboost"):
        benchmark(_small_bench_design(), methods, replicates=1, tune=False)
    bundles = make_lr_bundles(rng, M=2, n=20, p=4)
    with pytest.raises(ValidationError, match="both name cd_sboost"):
        stability(bundles, tiny_groups(4, 1), BoostConfig(T=20), methods, n_splits=2)


def _counting_run_fit(monkeypatch):
    """Install a ``metrics.run_fit`` that records each fit's algorithm."""
    calls, real = [], metrics.run_fit

    def counting(bundles, groups, config, **kwargs):
        calls.append(config.algorithm)
        return real(bundles, groups, config, **kwargs)

    monkeypatch.setattr(metrics, "run_fit", counting)
    return calls


@pytest.mark.parametrize("together", [("cd", "int", "sep", "pool"), ("sep", "pool", "int")])
def test_int_and_sep_rows_same_alone_or_together(rng, monkeypatch, together):
    """Asked for together, int and sep share one lockstep path; their
    benchmark and stability rows are the bytes they are alone, and each
    method is still one ``run_fit`` call."""
    calls = _counting_run_fit(monkeypatch)
    design = _small_bench_design(model="aft")
    config = BoostConfig(T=60, lam=0.5, model="aft")
    bundles = make_aft_bundles(rng, M=3, n=32, p=6)
    groups = tiny_groups(6, 2)

    def rows(methods):
        calls.clear()
        report = benchmark(design, methods, replicates=2, config=config, tune=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split = stability(bundles, groups, config, methods, n_splits=2, seed=1)
        assert calls == [canonical_method(m) for m in methods] * 4
        return {m: json.dumps(([asdict(r) for r in report.rows_for(m)], split[m]),
                              sort_keys=True)
                for m in methods}

    joint = rows(together)
    for method in ("int", "sep"):
        assert joint[method] == rows((method,))[method]


def test_benchmark_aft_smoke():
    design = _small_bench_design(model="aft")
    config = BoostConfig(T=60, lam=0.5, algorithm="cd_sboost", model="aft")
    report = benchmark(design, ("cd", "pool"), replicates=1,
                       config=config, tune=False)
    assert report.failures == []
    assert len(report.rows) == 2
    for row in report.rows:
        assert np.isfinite(row.prmse)


# ---------------------------------------------------------------------------
# stability harness
# ---------------------------------------------------------------------------


def test_stability_smoke(rng):
    bundles = make_lr_bundles(rng, M=2, n=32, p=6, scale=2.0)
    groups = tiny_groups(6, 2)
    config = BoostConfig(T=60, lam=0.2, algorithm="cd_sboost", model="lr")
    with pytest.warns(UserWarning, match="ever selected"):
        report = stability(bundles, groups, config, ("cd", "pool"),
                           n_splits=6, seed=3, tune=False)
    assert set(report) == {"cd", "pool"}
    for stats in report.values():
        assert 0.0 <= stats["ooi"] <= 1.0
        assert stats["splits"] == 6
        assert stats["degenerate_splits"] == 0
        assert np.isfinite(stats["score_mean"])


@pytest.mark.parametrize("model", ["lr", "aft"])
def test_stability_workers_agree(rng, model):
    # tuned cd fits exercise the lambda search inside each worker
    make = make_lr_bundles if model == "lr" else make_aft_bundles
    bundles = make(rng, M=2, n=32, p=6)
    groups = tiny_groups(6, 2)
    config = BoostConfig(T=40, algorithm="cd_sboost", model=model)
    reports = []
    for workers in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = stability(bundles, groups, config, ("cd", "sep"), n_splits=4,
                               seed=5, tune=True, workers=workers)
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_stability_needs_splits(rng):
    bundles = make_lr_bundles(rng, M=2, n=20, p=4)
    config = BoostConfig(T=20, algorithm="cd_sboost")
    with pytest.raises(ValidationError):
        stability(bundles, tiny_groups(4, 1), config, ("cd",), n_splits=1)

"""Acceptance gate: one test per shipped guarantee, with pinned tolerances.

Each test prints a single summary line on success; `pytest -v` therefore
shows one pass/fail line per criterion.  The full-scale benchmark check is
marked `full` and deselected by default (run `pytest -m full`).
"""

import math
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from cdboost.data import (
    BoostConfig,
    CoefficientState,
    DatasetBundle,
    all_common_partition,
    partition_refresh,
)
from cdboost.boosting import (
    _path,
    cd_sboost_fit,
    fit as run_fit,
    pool_sboost_fit,
    sboost_fit,
)
from cdboost.losses import build_context, km_weights
from cdboost.metrics import (
    benchmark,
    ermse,
    group_tp_fp,
    logrank_score,
    ooi,
    prmse_aft,
    variable_tp_fp,
)
from cdboost.simulate import (
    SimDesign,
    gen_truth,
    scenario_counts,
    simulate_replicate,
    small_example_design,
)
from cdboost.tuning import hdbic

from conftest import make_aft_bundles, make_lr_bundles, tiny_groups
from oracles import (
    HAND_LOGRANK_DELTA,
    HAND_LOGRANK_GROUP,
    HAND_LOGRANK_TIME,
    HAND_LOGRANK_VALUE,
    PenaltySpec,
    brute_cd_path,
    commonality_penalty,
    ermse_direct,
    golden_section,
    path_steps,
    quadratic_vertex,
    hdbic_direct,
    km_jump_weights,
    logrank_statistic,
    ooi_direct,
    optimal_increment_joint,
    optimal_increment_single,
    quad_form_direct,
    design_sigma_fn,
    weighted_loss,
)

S1_FULL = SimDesign(M=3, n=200, p=1000, K=20, rho_f=0.8, rho_p=0.2, rho_n=0.0,
                    coef_scheme="random", sigma2=1.0, model="lr", seed=0)
S1_REDUCED = SimDesign(M=3, n=100, p=400, K=8, rho_f=0.8, rho_p=0.2, rho_n=0.0,
                       coef_scheme="random", sigma2=1.0, model="lr", seed=0)
S1_AFT = SimDesign(M=3, n=200, p=1000, K=20, rho_f=0.8, rho_p=0.2, rho_n=0.0,
                   coef_scheme="random", sigma2=1.0, model="aft", seed=0)

# Iteration caps frozen after convergence probes.  Estimation error keeps
# improving with path depth (full-scale coefficient error plateaus near
# T=12000), but pair recovery degrades once every true block has entered:
# classes only ever split, so noise accumulates splits on long paths.  The
# caps below balance the two for each benchmark scale; the survival run
# uses a short path because its pair-recovery margin erodes fastest
# (mean common-pair gap cd vs int over 10 replicates: 14.5 at T=250,
# 9.6 at T=500, 8.4 at T=1000, 8.1 at T=3000).
T_FULL = 3000
T_REDUCED = 1500
T_AFT = 250


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# 1. increments match golden-section search; the cd path matches brute force
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)

    checked = 0
    for i in range(200):
        model = "lr" if i % 2 == 0 else "aft"
        M = int(rng.integers(1, 4))
        n, p = 20, 3
        if model == "lr":
            bundles = make_lr_bundles(rng, M=M, n=n, p=p)
        else:
            bundles = make_aft_bundles(rng, M=M, n=n, p=p)
        ctx = build_context(bundles, model)
        state = CoefficientState(beta=rng.standard_normal((p, M)) * 0.3,
                                 partitions=[], iteration=0)
        s = int(rng.integers(p))
        m = int(rng.integers(M))

        def f_single(g):
            beta = state.beta[:, m].copy()
            beta[s] += g
            return weighted_loss(ctx, beta, m)

        got = optimal_increment_single(ctx, state, s, m)
        want = quadratic_vertex(f_single, golden_section(f_single, -60.0, 60.0))
        assert abs(got - want) < 1e-8

        size = int(rng.integers(1, M + 1))
        A = tuple(sorted(rng.choice(M, size=size, replace=False).tolist()))

        def f_joint(g):
            total = 0.0
            for mm in A:
                beta = state.beta[:, mm].copy()
                beta[s] += g
                total += weighted_loss(ctx, beta, mm)
            return total

        got = optimal_increment_joint(ctx, state, s, A)
        want = quadratic_vertex(f_joint, golden_section(f_joint, -60.0, 60.0))
        assert abs(got - want) < 1e-8
        checked += 1
    assert checked == 200

    # full-path comparison at the pinned dimensions
    paths = 0
    for lam, mode, seed in ((0.0, "all_pairs", 1), (0.8, "all_pairs", 2),
                            (0.8, "ordered", 3)):
        prng = np.random.default_rng(seed)
        bundles = make_lr_bundles(prng, M=2, n=30, p=4)
        groups = tiny_groups(4, 2)
        config = BoostConfig(T=20, lam=lam, penalty_mode=mode,
                             algorithm="cd_sboost")
        ctx = build_context(bundles, "lr")
        path = _path(ctx, groups, config)
        records = [step for t in range(config.T) for step in path_steps(path, t)]
        result = cd_sboost_fit(bundles, groups, config)
        trace = result.objective_trace
        b_records, b_trace, b_beta, _ = brute_cd_path(
            [b.X for b in bundles], [b.y for b in bundles],
            [np.full(b.n, 1.0 / b.n) for b in bundles],
            groups.assignment, config.nu, config.T, lam, mode=mode,
        )
        assert [(s, A) for s, A, _ in records] == [(s, A) for s, A, _ in b_records]
        for (_, _, g1), (_, _, g2) in zip(records, b_records):
            assert abs(g1 - g2) < 1e-10
        assert np.allclose(trace, b_trace, atol=1e-10)
        # the reported coefficients replay the brute records up to t_hat
        replay = np.zeros_like(b_beta)
        for s, A, g in b_records[:result.t_hat]:
            for m in A:
                replay[s, m] += config.nu * g
        assert np.allclose(result.beta_hat, replay, atol=1e-12)
        paths += 1

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"CRITERION 1 PASS: 200 increment instances at 1e-8, "
          f"{paths} brute-force paths bit-equal, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. degenerate configurations collapse to the single-dataset fitter
# ---------------------------------------------------------------------------


def test_criterion_2_reduction_identities():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(3):
        bundle = make_lr_bundles(rng, M=1, n=35, p=6, scale=1.5)[0]
        groups = tiny_groups(6, 2)
        config = BoostConfig(T=120, lam=0.7, algorithm="cd_sboost")
        joint = cd_sboost_fit([bundle], groups, config)
        single = sboost_fit([bundle], groups, config)
        assert joint.t_hat == single.t_hat
        assert np.array_equal(joint.beta_hat, single.beta_hat)
        assert np.array_equal(joint.objective_trace, single.objective_trace)

    for _ in range(3):
        bundles = make_lr_bundles(rng, M=3, n=20, p=5, scale=1.5)
        groups = tiny_groups(5, 1)
        config = BoostConfig(T=100, algorithm="pool_sboost")
        pooled = pool_sboost_fit(bundles, groups, config)
        stacked = DatasetBundle(
            X=np.vstack([b.X for b in bundles]),
            y=np.concatenate([b.y for b in bundles]),
            id=0,
        )
        single = sboost_fit([stacked], groups, config)
        assert pooled.t_hat == single.t_hat
        for m in range(3):
            assert np.array_equal(pooled.beta_hat[:, m], single.beta_hat[:, 0])

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"CRITERION 2 PASS: cd(M=1) == sboost and pool == stacked sboost, "
          f"exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. the fixed small example recovers the expected error ordering
# ---------------------------------------------------------------------------


def test_criterion_3_small_example_replication():
    start = time.monotonic()
    design = small_example_design(seed=0)
    report = benchmark(design, ("cd", "sep", "int", "pool"), replicates=100,
                       tune=True, workers=1, verify=True)
    elapsed = time.monotonic() - start
    assert report.failures == []
    agg = report.aggregate()
    means = {m: agg[m]["ermse"]["mean"] for m in ("cd", "sep", "int", "pool")}
    assert means["cd"] < means["sep"]
    assert means["cd"] < means["int"]
    assert means["sep"] < means["pool"]
    assert means["int"] < means["pool"]
    assert 0.8 <= means["cd"] <= 1.8
    assert 2.5 <= means["pool"] <= 5.0
    assert elapsed < 600.0
    print(f"CRITERION 3 PASS: ERMSE means cd={means['cd']:.3f} < "
          f"sep={means['sep']:.3f}/int={means['int']:.3f} < "
          f"pool={means['pool']:.3f}, 100 replicates in {elapsed / 60:.1f} min")


# ---------------------------------------------------------------------------
# 4. the S1 benchmark: full-scale thresholds, reduced-scale orderings
# ---------------------------------------------------------------------------


def _method_means(report, field):
    agg = report.aggregate()
    return {m: agg[m][field]["mean"] for m in report.methods}


def test_criterion_4_reduced_preset_orderings():
    start = time.monotonic()
    config = BoostConfig(T=T_REDUCED, model="lr")
    report = benchmark(S1_REDUCED, ("cd", "int", "sep", "pool"), replicates=20,
                       config=config, tune=True, workers=1, verify=True)
    elapsed = time.monotonic() - start
    assert report.failures == []
    gtp = _method_means(report, "group_tp")
    gfp = _method_means(report, "group_fp")
    erm = _method_means(report, "ermse")
    n_f, n_p, _ = scenario_counts(8, 0.8, 0.2, 0.0)
    max_tp = 2 * n_f + n_p
    for row in report.rows_for("pool"):
        assert row.group_tp == max_tp and row.group_fp == 2
    assert gtp["cd"] > gtp["int"] + 3
    assert gtp["cd"] > gtp["sep"] + 3
    assert gfp["cd"] <= 1.0
    assert erm["cd"] < erm["int"]
    assert erm["cd"] < erm["sep"]
    assert erm["cd"] < erm["pool"]
    assert elapsed < 900.0
    print(f"CRITERION 4 (reduced) PASS: group TP cd={gtp['cd']:.1f} > "
          f"int={gtp['int']:.1f}/sep={gtp['sep']:.1f}, pool exact "
          f"{max_tp}/2, ERMSE cd lowest, {elapsed / 60:.1f} min")


@pytest.mark.full
def test_criterion_4_full_scale_thresholds():
    start = time.monotonic()
    config = BoostConfig(T=T_FULL, model="lr")
    report = benchmark(S1_FULL, ("cd", "int", "sep", "pool"), replicates=20,
                       config=config, tune=True, workers=1, verify=True)
    elapsed = time.monotonic() - start
    assert report.failures == []
    gtp = _method_means(report, "group_tp")
    gfp = _method_means(report, "group_fp")
    vtp = _method_means(report, "variable_tp")
    erm = _method_means(report, "ermse")
    prm = _method_means(report, "prmse")
    for row in report.rows_for("pool"):
        assert row.group_tp == 36 and row.group_fp == 4
    assert gtp["cd"] >= 30.0
    assert gfp["cd"] <= 2.0
    assert gtp["int"] <= 3.0
    assert gtp["sep"] <= 3.0
    assert vtp["cd"] >= 105.0
    assert erm["cd"] <= 1.5
    assert 22.0 <= prm["cd"] <= 27.0
    assert elapsed < 7200.0
    print(f"CRITERION 4 (full) PASS: cd gTP={gtp['cd']:.1f} gFP={gfp['cd']:.1f} "
          f"vTP={vtp['cd']:.1f} ERMSE={erm['cd']:.2f} PRMSE={prm['cd']:.1f}, "
          f"{elapsed / 60:.0f} min")


# ---------------------------------------------------------------------------
# 5. structural identities that must hold on every benchmark run
# ---------------------------------------------------------------------------


def test_criterion_5_structural_identities():
    # designed positive count for the standard preset headers
    assert scenario_counts(20, 0.8, 0.2, 0.0) == (16, 4, 0)
    for rep in range(3):
        truth = gen_truth(S1_FULL, rep)
        assert truth.n_ig == 20 * (2 * 0.8 + 0.2)

    # pooled fits declare every pair common; tracked partitions agree with
    # element-wise refresh inside every cd iteration (verify=True asserts)
    design = SimDesign(M=3, n=40, p=50, K=2, rho_f=0.5, rho_p=0.5, rho_n=0.0,
                       coef_scheme="random", seed=23)
    config = BoostConfig(T=120, lam=0.4, model="lr")
    report = benchmark(design, ("cd", "pool"), replicates=3,
                       config=config, tune=False, workers=1, verify=True)
    assert report.failures == []
    for row in report.rows_for("pool"):
        assert row.group_tp + row.group_fp == design.K * (design.M - 1)

    # and the final tracked state equals a from-scratch refresh
    bundles, _ = simulate_replicate(design, 0)
    result = cd_sboost_fit(bundles, design.groups(), config,
                           verify_partitions=True)
    tracked = CoefficientState(beta=result.beta_hat, partitions=[],
                               iteration=result.t_hat)
    refreshed = partition_refresh(tracked, design.groups())
    assert refreshed.partitions == result.partitions
    print("CRITERION 5 PASS: pool TP+FP = K(M-1), N_ig = 20(2rho_f+rho_p), "
          "partition refresh agrees at every iteration")


# ---------------------------------------------------------------------------
# 6. metric implementations match naive direct formulas
# ---------------------------------------------------------------------------


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(606)
    tol = 1e-10

    for _ in range(50):
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 3))
        got = float(np.sqrt(np.sum((a - b) ** 2)))
        assert _close(got, ermse_direct(a, b), tol)

    design = SimDesign(M=3, n=30, p=25, K=2, rho_f=1.0, rho_p=0.0, rho_n=0.0,
                       model="aft", sigma2=2.0, between_corr=0.1,
                       within_corr=0.4, seed=1)
    sigma_fn = design_sigma_fn(design)
    groups = design.groups()
    from cdboost.data import adjacent_equal_pairs
    from cdboost.simulate import GroundTruth

    for _ in range(50):
        bhat = rng.standard_normal((design.p, 3)) * 0.5
        btrue = rng.standard_normal((design.p, 3)) * 0.5
        truth = GroundTruth(beta=btrue, scenarios=("full", "full"),
                            equal_pairs=adjacent_equal_pairs(btrue, groups),
                            important=((), (), ()))
        fit = SimpleNamespace(beta_hat=bhat)
        want = math.sqrt(sum(
            quad_form_direct(sigma_fn, design.p, bhat[:, m] - btrue[:, m])
            for m in range(3)
        )) / design.sigma
        assert _close(prmse_aft(fit, truth, design), want, tol)

    for i in range(50):
        model = "lr" if i % 2 == 0 else "aft"
        if model == "lr":
            bundles = make_lr_bundles(rng, M=2, n=25, p=5)
            deltas = None
        else:
            bundles = make_aft_bundles(rng, M=2, n=25, p=5)
            deltas = [b.delta for b in bundles]
        beta = rng.standard_normal((5, 2))
        beta[rng.random((5, 2)) < 0.3] = 0.0
        want = hdbic_direct(beta, [b.X for b in bundles],
                            [b.y for b in bundles], deltas, model)
        assert _close(hdbic(beta, bundles), want, tol)

    for _ in range(50):
        sels = [rng.choice(60, size=int(rng.integers(3, 25)), replace=False)
                for _ in range(int(rng.integers(2, 10)))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert _close(ooi(sels), ooi_direct(sels), tol)

    checked = 0
    fitlike = SimpleNamespace(beta_hat=np.array([[1.0], [-0.5]]))
    while checked < 50:
        X = rng.standard_normal((40, 2))
        y = rng.exponential(1.0, 40)
        delta = (rng.random(40) > 0.3).astype(int)
        risk = X @ fitlike.beta_hat[:, 0]
        group = (risk > np.median(risk)).astype(int)
        if delta[group == 1].sum() == 0 or delta[group == 0].sum() == 0:
            continue
        bundle = DatasetBundle(X=X, y=y, delta=delta, id=0)
        want = logrank_statistic(y, delta, group)
        assert _close(logrank_score(fitlike, bundle), want, tol)
        checked += 1

    hand = logrank_statistic(HAND_LOGRANK_TIME, HAND_LOGRANK_DELTA,
                             HAND_LOGRANK_GROUP)
    assert _close(hand, HAND_LOGRANK_VALUE, 1e-12)
    assert _close(hand, 841.0 / 11819.0, 1e-12)
    print("CRITERION 6 PASS: ermse/prmse_aft/hdbic/ooi/logrank match direct "
          "formulas at 1e-10 on 50 random inputs each, hand example exact")


# ---------------------------------------------------------------------------
# 7. qualitative properties and determinism
# ---------------------------------------------------------------------------


def test_criterion_7_property_suite():
    rng = np.random.default_rng(707)

    # monotone training loss along all four paths
    bundles = make_lr_bundles(rng, M=3, n=40, p=6, scale=1.5)
    groups = tiny_groups(6, 2)
    for algo in ("sep_sboost", "int_sboost", "pool_sboost", "cd_sboost"):
        config = BoostConfig(T=80, lam=0.5, algorithm=algo, model="lr")
        result = run_fit(bundles, groups, config)
        diffs = np.diff(result.loss_trace)
        assert (diffs <= 1e-12).all(), f"{algo}: loss increased"

    # penalty bounds and both endpoints
    lam = 1.7
    spec = PenaltySpec(lam=lam, M=3, K=2, mode="all_pairs")
    def pen(parts):
        state = CoefficientState(beta=np.zeros((2, 3)), partitions=list(parts),
                                 iteration=0)
        return commonality_penalty(state, spec)

    common = [all_common_partition(3)] * 2
    apart = [tuple((m,) for m in range(3))] * 2
    assert pen(common) == 0.0
    assert pen(apart) == pytest.approx(lam)
    three_set = (((0, 1, 2),), ((0,), (1, 2)), ((0, 2), (1,)),
                 ((0, 1), (2,)), ((0,), (1,), (2,)))
    for p1 in three_set:
        for p2 in three_set:
            val = pen([p1, p2])
            assert 0.0 <= val <= lam

    # hdbic penalizes support size at equal residuals
    col = rng.standard_normal(25)
    X = np.column_stack([col, col])
    y = 2.0 * col + rng.standard_normal(25)
    bundle = DatasetBundle(X=X, y=y, id=0)
    assert hdbic(np.array([[1.0], [1.0]]), [bundle]) > hdbic(
        np.array([[2.0], [0.0]]), [bundle])

    # serial and parallel runs are bit-identical on random configurations
    cfg_rng = np.random.default_rng(7007)
    for i in range(5):
        n = int(cfg_rng.integers(30, 50))
        p = int(cfg_rng.integers(40, 60))
        lam = float(cfg_rng.uniform(0.0, 1.0))
        model = "lr" if i % 2 == 0 else "aft"
        design = SimDesign(M=3, n=n, p=p, K=2, rho_f=0.5, rho_p=0.5,
                           rho_n=0.0, model=model, seed=int(cfg_rng.integers(100)))
        config = BoostConfig(T=40, lam=lam, model=model)
        serial = benchmark(design, ("cd", "pool"), 2, config=config,
                           tune=False, workers=1).to_json()
        parallel = benchmark(design, ("cd", "pool"), 2, config=config,
                             tune=False, workers=2).to_json()
        assert serial == parallel
    print("CRITERION 7 PASS: monotone losses, penalty endpoints, hdbic df "
          "monotonicity, serial == parallel on 5 random configs")


# ---------------------------------------------------------------------------
# 8. censored-model consistency and the AFT benchmark trend
# ---------------------------------------------------------------------------


def test_criterion_8_aft_consistency():
    rng = np.random.default_rng(808)

    # weights against the reference survival-curve walk
    for _ in range(100):
        n = int(rng.integers(5, 40))
        y = np.sort(rng.exponential(1.0, n))
        delta = (rng.random(n) > 0.35).astype(int)
        if delta.sum() == 0:
            delta[int(rng.integers(n))] = 1
        got = km_weights(y, delta)
        assert np.max(np.abs(got - km_jump_weights(y, delta))) < 1e-12

    # fully observed data reduces the censored loss to the plain one
    bundles = make_lr_bundles(rng, M=2, n=30, p=4)
    censored = [DatasetBundle(X=b.X, y=b.y, delta=np.ones(b.n, dtype=int), id=b.id)
                for b in bundles]
    lr_ctx = build_context(bundles, "lr")
    aft_ctx = build_context(censored, "aft")
    for m in range(2):
        beta = rng.standard_normal(4)
        assert weighted_loss(lr_ctx, beta, m) == pytest.approx(
            weighted_loss(aft_ctx, beta, m), rel=1e-12)

    # the benchmark trend under censoring
    start = time.monotonic()
    config = BoostConfig(T=T_AFT, model="aft")
    report = benchmark(S1_AFT, ("cd", "int"), replicates=10,
                       config=config, tune=True, workers=1, verify=True)
    elapsed = time.monotonic() - start
    assert report.failures == []
    gtp = _method_means(report, "group_tp")
    assert gtp["cd"] - gtp["int"] >= 10.0
    print(f"CRITERION 8 PASS: km weights at 1e-12, censored loss reduces to "
          f"plain, AFT group TP cd={gtp['cd']:.1f} vs int={gtp['int']:.1f} "
          f"({elapsed / 60:.1f} min)")

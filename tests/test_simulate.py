"""Synthetic data generator: sizing, truth structure, correlation, streams."""

import json

import numpy as np
import pytest

from cdboost.data import ValidationError, load_bundles
from cdboost.simulate import (
    SCENARIOS,
    CalibrationError,
    _calibrate_censoring,
    GroundTruth,
    SimDesign,
    covariance_quad_form,
    gen_covariates,
    gen_responses,
    gen_truth,
    group_sizes,
    scenario_counts,
    simulate_replicate,
    small_example_design,
    stream,
    write_simulation,
)

from conftest import traced_peak
from oracles import (
    design_sigma_fn,
    gen_covariates_whole,
    gen_small_example,
    load_truth,
    quad_form_direct,
    true_covariance,
)


# ---------------------------------------------------------------------------
# sizing and scenario allocation
# ---------------------------------------------------------------------------


def test_group_sizes_reduced_preset():
    assert group_sizes(400, 8).tolist() == [22, 32, 43, 54, 65, 76, 86, 22]


def test_group_sizes_small_example():
    assert group_sizes(200, 4).tolist() == [29, 43, 57, 71]


def test_group_sizes_sum_and_feasibility():
    for p, K in ((1000, 20), (200, 4), (50, 2), (97, 5)):
        sizes = group_sizes(p, K)
        assert sizes.sum() == p
        assert len(sizes) == K
        assert (sizes > 0).all()
    with pytest.raises(ValidationError):
        group_sizes(3, 4)


def test_scenario_counts():
    assert scenario_counts(20, 0.8, 0.2, 0.0) == (16, 4, 0)
    assert scenario_counts(8, 0.8, 0.2, 0.0) == (6, 2, 0)
    assert scenario_counts(4, 0.25, 0.5, 0.25) == (1, 2, 1)
    # rounding overshoot lands on the largest proportion
    assert scenario_counts(5, 0.5, 0.3, 0.2) == (2, 2, 1)
    assert sum(scenario_counts(7, 1 / 3, 1 / 3, 1 / 3)) == 7


def test_design_validation():
    with pytest.raises(ValidationError):
        SimDesign(rho_f=0.5, rho_p=0.2, rho_n=0.0)
    with pytest.raises(ValidationError):
        SimDesign(coef_scheme="mystery")
    with pytest.raises(ValidationError):
        SimDesign(model="cox")
    with pytest.raises(ValidationError):
        SimDesign(sigma2=0.0)
    with pytest.raises(ValidationError):
        SimDesign(between_corr=0.5, within_corr=0.4)
    with pytest.raises(ValidationError):
        SimDesign(p=10, K=20)
    design = SimDesign()
    assert design.sigma == 1.0
    assert design.rho_within == pytest.approx(0.4)
    assert design.groups().K == 20


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------


def _truth_design(**kw):
    base = dict(M=3, n=40, p=60, K=3, rho_f=0.4, rho_p=0.3, rho_n=0.3,
                coef_scheme="random", seed=11)
    base.update(kw)
    return SimDesign(**base)


def test_truth_scenario_structure():
    design = _truth_design()
    truth = gen_truth(design, 0, scenarios=("full", "partial_a", "none"))
    assert truth.scenarios == ("full", "partial_a", "none")
    assert truth.equal_pairs == ((True, True), (True, False), (False, False))
    assert truth.n_ig == 3
    groups = design.groups()
    # a fully common group has identical coefficient columns on its block
    block = truth.beta[groups.indices(0)]
    assert np.array_equal(block[:, 0], block[:, 1])
    assert np.array_equal(block[:, 1], block[:, 2])
    # exactly two important covariates per group per dataset
    for k in range(design.K):
        blk = truth.beta[groups.indices(k)]
        for m in range(3):
            assert np.count_nonzero(blk[:, m]) == 2
    for m in range(3):
        assert truth.important[m] == tuple(np.flatnonzero(truth.beta[:, m]))


def test_truth_random_coefficient_ranges():
    design = _truth_design()
    groups = design.groups()
    for rep in range(5):
        truth = gen_truth(design, rep,
                          scenarios=("full", "partial_b", "none"))
        full = truth.beta[groups.indices(0)]
        vals = full[full != 0]
        assert ((vals >= 0.4) & (vals <= 0.7)).all()
        pb = truth.beta[groups.indices(1)]
        d1 = pb[pb[:, 0] != 0, 0]
        assert ((d1 >= 0.1) & (d1 <= 0.3)).all()
        shared = pb[pb[:, 1] != 0, 1]
        assert np.array_equal(pb[:, 1], pb[:, 2])
        assert ((shared >= 0.4) & (shared <= 0.7)).all()
        none = truth.beta[groups.indices(2)]
        assert ((none[none[:, 0] != 0, 0] >= 0.1) & (none[none[:, 0] != 0, 0] <= 0.3)).all()
        assert ((none[none[:, 1] != 0, 1] >= 0.4) & (none[none[:, 1] != 0, 1] <= 0.7)).all()
        assert ((none[none[:, 2] != 0, 2] >= 0.8) & (none[none[:, 2] != 0, 2] <= 1.0)).all()


def test_truth_fixed_scheme():
    design = _truth_design(coef_scheme="fixed", coef_value=0.5)
    truth = gen_truth(design, 0)
    vals = truth.beta[truth.beta != 0]
    assert (vals == 0.5).all()


def test_truth_positive_pair_identity():
    # the bookkeeping must reproduce 2 n_full + n_partial for the presets
    for K, p in ((20, 1000), (8, 400)):
        design = SimDesign(n=50, p=p, K=K, rho_f=0.8, rho_p=0.2, rho_n=0.0, seed=3)
        n_f, n_p, _ = scenario_counts(K, 0.8, 0.2, 0.0)
        for rep in range(5):
            truth = gen_truth(design, rep)
            assert truth.n_ig == 2 * n_f + n_p
    assert 2 * 16 + 4 == 36
    assert 2 * 6 + 2 == 14


def test_truth_rejects_bad_requests():
    with pytest.raises(ValidationError):
        gen_truth(_truth_design(), 0, scenarios=("full", "full"))
    with pytest.raises(ValidationError):
        gen_truth(_truth_design(), 0, scenarios=("full", "full", "bogus"))
    # a tiny group cannot host three distinct important pairs, whether the
    # design allocates them or a scenario override does
    with pytest.raises(ValidationError, match="group 0 of size 5 cannot host 6 importants"):
        SimDesign(M=3, n=20, p=12, K=2, rho_f=0.5, rho_p=0.0, rho_n=0.5, seed=1)
    small = SimDesign(M=3, n=20, p=12, K=2, rho_f=1.0, rho_p=0.0, rho_n=0.0, seed=1)
    with pytest.raises(ValidationError, match="group 0 of size 5 cannot host 6 importants"):
        gen_truth(small, 0, scenarios=("none", "full"))


@pytest.mark.parametrize("p, rho, fits", [
    (6, (1.0, 0.0, 0.0), True),      # groups of 2 and 4; full needs 2
    (6, (0.5, 0.5, 0.0), False),     # partial needs 4
    (10, (0.0, 1.0, 0.0), True),     # groups of 4 and 6
    (12, (0.0, 0.0, 1.0), False),    # groups of 5 and 7; none needs 6
    (15, (0.5, 0.0, 0.5), True),     # groups of 6 and 9
])
def test_design_refuses_a_group_too_small_for_its_scenarios(p, rho, fits):
    """Every group must host the important covariates of every scenario the
    design allocates, whichever group the allocation gives it to: a design
    that fits simulates at every replicate, and one that does not is
    refused before any replicate is drawn."""
    def make():
        return SimDesign(M=3, n=20, p=p, K=2, rho_f=rho[0], rho_p=rho[1], rho_n=rho[2])

    if fits:
        for replicate in range(4):
            gen_truth(make(), replicate)
    else:
        with pytest.raises(ValidationError, match="group 0 of size .* cannot host"):
            make()


# ---------------------------------------------------------------------------
# covariates
# ---------------------------------------------------------------------------


def test_covariates_standardized_and_deterministic():
    design = _truth_design()
    X1 = gen_covariates(design, replicate=2)
    X2 = gen_covariates(design, replicate=2)
    for a, b in zip(X1, X2):
        assert np.array_equal(a, b)
        assert np.allclose(a.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(a.std(axis=0), 1.0, atol=1e-12)
    X3 = gen_covariates(design, replicate=3)
    assert not np.array_equal(X1[0], X3[0])
    Xt = gen_covariates(design, replicate=2, test=True)
    assert not np.array_equal(X1[0], Xt[0])
    # datasets draw from independent streams
    assert not np.array_equal(X1[0], X1[1])


def test_covariate_correlation_structure():
    # averaged over replicates, same-group neighbours sit near within_corr
    # and cross-group pairs near between_corr, strictly below
    design = SimDesign(M=1, n=200, p=40, K=2, rho_f=1.0, rho_p=0.0, rho_n=0.0,
                       seed=5)
    sizes = design.sizes
    same, cross, gap2 = [], [], []
    for rep in range(50):
        X = gen_covariates(design, rep)[0]
        same.append(np.corrcoef(X[:, 0], X[:, 1])[0, 1])
        gap2.append(np.corrcoef(X[:, 0], X[:, 2])[0, 1])
        cross.append(np.corrcoef(X[:, 0], X[:, sizes[0]])[0, 1])
    same, cross, gap2 = map(np.mean, (same, cross, gap2))
    assert same == pytest.approx(design.within_corr, abs=0.05)
    assert gap2 == pytest.approx(design.within_corr ** 2, abs=0.05)
    assert abs(cross - design.between_corr) < 0.05
    assert same > cross


def test_covariates_with_global_factor():
    design = SimDesign(M=1, n=200, p=40, K=2, rho_f=1.0, rho_p=0.0, rho_n=0.0,
                       between_corr=0.2, within_corr=0.5, seed=9)
    sizes = design.sizes
    same, cross = [], []
    for rep in range(50):
        X = gen_covariates(design, rep)[0]
        same.append(np.corrcoef(X[:, 0], X[:, 1])[0, 1])
        cross.append(np.corrcoef(X[:, 0], X[:, sizes[0]])[0, 1])
    assert np.mean(same) == pytest.approx(0.5, abs=0.05)
    assert np.mean(cross) == pytest.approx(0.2, abs=0.05)


@pytest.mark.parametrize("between", [0.0, 0.3])
def test_covariates_in_place_match_whole_arrays(between):
    design = SimDesign(M=3, n=60, p=90, K=3, between_corr=between, within_corr=0.5, seed=4)
    got = gen_covariates(design, replicate=2)
    want = gen_covariates_whole(design, replicate=2)
    for x, ref in zip(got, want):
        assert x.flags.c_contiguous
        assert x.tobytes() == ref.tobytes()


def test_covariates_hold_one_dataset_at_a_time():
    design = SimDesign(M=3, n=200, p=1000, K=20, between_corr=0.2, seed=1)
    X, peak = traced_peak(gen_covariates, design)
    # what it returns plus column blocks: the noise becomes the chain, is
    # mixed and standardized in the same array
    assert peak < sum(x.nbytes for x in X) + 0.3 * X[0].nbytes


# ---------------------------------------------------------------------------
# responses
# ---------------------------------------------------------------------------


def test_lr_responses_noise_scale():
    design = _truth_design(n=200, sigma2=3.0)
    truth = gen_truth(design, 0)
    X = gen_covariates(design, 0)
    resid_var = []
    for rep in range(10):
        resp = gen_responses(design, truth, X, replicate=rep)
        for m, (y, delta) in enumerate(resp):
            assert delta is None
            resid_var.append(np.var(y - X[m] @ truth.beta[:, m]))
    assert np.mean(resid_var) == pytest.approx(3.0, rel=0.1)


def test_aft_responses_censoring_rate():
    design = _truth_design(n=100, model="aft")
    truth = gen_truth(design, 0)
    rates = []
    for rep in range(10):
        X = gen_covariates(design, rep)
        for y, delta in gen_responses(design, truth, X, replicate=rep):
            assert set(np.unique(delta)) <= {0, 1}
            assert 0 < delta.mean() < 1
            rates.append(1.0 - delta.mean())
    # calibration targets the expected rate; realized draws scatter around it
    assert np.mean(rates) == pytest.approx(design.target_censoring, abs=0.06)


@pytest.mark.parametrize("log_times", [[1.0, 720.0], [709.0, 709.0]])
def test_censoring_calibration_names_an_overflow(log_times):
    """Event times past exp's range, or event times so close to it that
    doubling the censoring bound overflows, fail before any bisection step,
    naming the overflow rather than convergence."""
    with pytest.raises(CalibrationError, match="overflows the float range"):
        _calibrate_censoring(np.array(log_times), 0.3)


def test_simulate_replicate_shapes_and_reuse():
    design = _truth_design()
    bundles, truth = simulate_replicate(design, 1)
    assert len(bundles) == design.M
    for m, b in enumerate(bundles):
        assert b.X.shape == (design.n, design.p)
        assert b.y.shape == (design.n,)
        assert b.id == m
    again, truth2 = simulate_replicate(design, 1)
    assert np.array_equal(truth.beta, truth2.beta)
    for a, b in zip(bundles, again):
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    test_bundles, truth3 = simulate_replicate(design, 1, truth=truth, test=True)
    assert truth3 is truth
    assert not np.array_equal(bundles[0].X, test_bundles[0].X)
    assert not np.array_equal(bundles[0].y, test_bundles[0].y)


def test_stream_purposes_are_independent():
    a = stream(1, 2, 3, 0).standard_normal(5)
    b = stream(1, 2, 3, 1).standard_normal(5)
    c = stream(1, 2, 3, 0).standard_normal(5)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


# ---------------------------------------------------------------------------
# the fixed small example
# ---------------------------------------------------------------------------


def test_small_example_layout():
    bundles, truth, design = gen_small_example(seed=0)
    assert (design.M, design.n, design.p, design.K) == (3, 50, 200, 4)
    assert design.coef_scheme == "fixed" and design.coef_value == 1.0
    assert truth.scenarios == ("full", "none", "partial_a", "partial_b")
    assert truth.n_ig == 4
    assert set(truth.scenarios) == set(SCENARIOS)
    for m in range(3):
        assert len(truth.important[m]) == 8
    vals = truth.beta[truth.beta != 0]
    assert (vals == 1.0).all()
    assert small_example_design(0, "aft").model == "aft"


# ---------------------------------------------------------------------------
# covariance helpers
# ---------------------------------------------------------------------------


def test_true_covariance_matches_entry_rule():
    design = SimDesign(M=1, n=20, p=25, K=2, rho_f=1.0, rho_p=0.0, rho_n=0.0,
                       between_corr=0.15, within_corr=0.45, seed=0)
    sigma = true_covariance(design)
    rule = design_sigma_fn(design)
    for i in range(design.p):
        for j in range(design.p):
            assert sigma[i, j] == pytest.approx(rule(i, j), abs=1e-12)
    assert np.linalg.eigvalsh(sigma).min() > -1e-10


def test_quad_form_matches_dense(rng):
    design = SimDesign(M=1, n=20, p=25, K=2, rho_f=1.0, rho_p=0.0, rho_n=0.0,
                       between_corr=0.15, within_corr=0.45, seed=0)
    sigma = true_covariance(design)
    rule = design_sigma_fn(design)
    for _ in range(5):
        d = rng.standard_normal(design.p)
        got = covariance_quad_form(design, d)
        assert got == pytest.approx(float(d @ sigma @ d), rel=1e-10)
        assert got == pytest.approx(quad_form_direct(rule, design.p, d), rel=1e-10)


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------


def test_write_simulation_round_trip(tmp_path):
    design = _truth_design(model="lr")
    paths, groups_path, truth_path = write_simulation(tmp_path, design, replicate=0)
    assert len(paths) == 3
    bundles, truth = simulate_replicate(design, 0)
    loaded, names = load_bundles(paths, standardize=False)
    for mem, disk in zip(bundles, loaded):
        assert np.array_equal(mem.X, disk.X)
        assert np.array_equal(mem.y, disk.y)
    beta, payload = load_truth(truth_path)
    assert np.array_equal(beta, truth.beta)
    assert payload["n_ig"] == truth.n_ig
    assert payload["scenarios"] == list(truth.scenarios)
    with open(groups_path) as fh:
        assert sum(1 for _ in fh) == design.p


def test_write_simulation_aft_round_trip(tmp_path):
    design = _truth_design(model="aft")
    paths, _, _ = write_simulation(tmp_path, design, replicate=1)
    bundles, _ = simulate_replicate(design, 1)
    loaded, _ = load_bundles(paths, standardize=False)
    for mem, disk in zip(bundles, loaded):
        assert np.array_equal(mem.delta, disk.delta)
        assert np.array_equal(mem.y, disk.y)

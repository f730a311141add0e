"""Model scoring (hdbic) and penalty-weight grid search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdboost import boosting
from cdboost.data import (
    BoostConfig,
    DatasetBundle,
    GroupStructure,
    ValidationError,
    all_common_partition,
)
from cdboost.boosting import cd_sboost_fit, fit as run_fit
from cdboost.metrics import group_tp_fp
from cdboost.simulate import SimDesign, simulate_replicate
from cdboost.tuning import LambdaGrid, default_lambda_grid, hdbic, select_lambda

from oracles import hdbic_direct
from conftest import fit_bytes, make_aft_bundles, make_lr_bundles, tiny_groups


# ---------------------------------------------------------------------------
# hdbic
# ---------------------------------------------------------------------------


def test_hdbic_matches_direct_formula_lr(rng):
    for _ in range(25):
        bundles = make_lr_bundles(rng, M=2, n=25, p=5)
        beta = rng.standard_normal((5, 2))
        beta[rng.random((5, 2)) < 0.4] = 0.0
        got = hdbic(beta, bundles)
        want = hdbic_direct(beta, [b.X for b in bundles], [b.y for b in bundles],
                            None, "lr")
        assert got == pytest.approx(want, rel=1e-12)


def test_hdbic_matches_direct_formula_aft(rng):
    for _ in range(25):
        bundles = make_aft_bundles(rng, M=2, n=30, p=4)
        beta = rng.standard_normal((4, 2))
        beta[rng.random((4, 2)) < 0.4] = 0.0
        got = hdbic(beta, bundles)
        want = hdbic_direct(beta, [b.X for b in bundles], [b.y for b in bundles],
                            [b.delta for b in bundles], "aft")
        assert got == pytest.approx(want, rel=1e-12)


def test_hdbic_accepts_fit_result(lr_problem):
    bundles, groups = lr_problem
    config = BoostConfig(T=40, algorithm="cd_sboost")
    result = cd_sboost_fit(bundles, groups, config)
    assert hdbic(result, bundles) == hdbic(result.beta_hat, bundles)


def test_hdbic_shape_mismatch(lr_problem):
    bundles, _ = lr_problem
    with pytest.raises(ValueError):
        hdbic(np.zeros((3, 3)), bundles)


def test_hdbic_floors_zero_rss(rng):
    X = rng.standard_normal((12, 3))
    beta = np.array([[1.0], [0.0], [2.0]])
    exact = DatasetBundle(X=X, y=X @ beta[:, 0], id=0)
    with pytest.warns(UserWarning, match="floored"):
        score = hdbic(beta, [exact])
    assert math.isfinite(score)


def test_hdbic_strictly_increasing_in_df_at_fixed_rss(rng):
    # two identical columns: splitting one coefficient across both leaves
    # every residual unchanged while the support grows by one
    col = rng.standard_normal(20)
    X = np.column_stack([col, col, rng.standard_normal(20)])
    y = 1.5 * col + rng.standard_normal(20)
    bundle = DatasetBundle(X=X, y=y, id=0)
    lean = np.array([[1.5], [0.0], [0.0]])
    split = np.array([[0.75], [0.75], [0.0]])
    assert hdbic(split, [bundle]) > hdbic(lean, [bundle])
    # same check under censoring weights
    delta = (rng.random(20) > 0.3).astype(int)
    delta[0] = 1
    cb = DatasetBundle(X=X, y=y, delta=delta, id=0)
    assert hdbic(split, [cb]) > hdbic(lean, [cb])


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------


def test_default_grid_shape_and_span(rng):
    bundles = make_lr_bundles(rng, M=3, n=40, p=4)
    grid = default_lambda_grid(bundles)
    lam_max = sum(math.log(b.n) for b in bundles)
    assert len(grid.values) == 11
    assert grid.values[0] == 0.0
    assert grid.values[-1] == pytest.approx(lam_max, rel=1e-12)
    assert grid.values[1] == pytest.approx(0.01 * lam_max, rel=1e-12)
    ratios = np.diff(np.log(grid.values[1:]))
    assert np.allclose(ratios, ratios[0])


def test_grid_validation():
    with pytest.raises(ValueError):
        LambdaGrid(values=())
    with pytest.raises(ValueError):
        LambdaGrid(values=(0.0, -1.0))
    with pytest.raises(ValueError):
        LambdaGrid(values=(1.0, 0.5))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            LambdaGrid(values=(0.0, bad))


# ---------------------------------------------------------------------------
# select_lambda
# ---------------------------------------------------------------------------


def _fresh_grid(bundles, groups, config, values, verify_partitions=False):
    """(score, fit) of every grid value, each fitted from scratch."""
    out = []
    for lam in values:
        cfg = BoostConfig(nu=config.nu, T=config.T, lam=lam, algorithm="cd_sboost",
                          model=config.model, penalty_mode=config.penalty_mode)
        fit = cd_sboost_fit(bundles, groups, cfg, verify_partitions=verify_partitions)
        out.append((hdbic(fit, bundles), fit))
    return out


def _score_bytes(scores):
    return np.array(scores, dtype=float).tobytes()


def _split_free(fit, M, K):
    return fit.final_partitions == [all_common_partition(M)] * K


def test_select_lambda_tie_takes_smaller(rng):
    # With one dataset the commonality penalty is identically zero, so every
    # grid value yields the same path and score; the tie must go to lam=0.
    bundles = make_lr_bundles(rng, M=1, n=30, p=6)
    groups = tiny_groups(6, 2)
    config = BoostConfig(T=40, algorithm="cd_sboost")
    grid = LambdaGrid(values=(0.0, 0.3, 0.9))
    lam, result = select_lambda(bundles, groups, config, grid=grid)
    assert len(set(grid.scores)) == 1
    assert lam == 0.0
    assert np.array_equal(result.beta_hat, grid.fits[0].beta_hat)


def test_select_lambda_fills_grid(lr_problem):
    bundles, groups = lr_problem
    config = BoostConfig(T=40, algorithm="cd_sboost")
    grid = LambdaGrid(values=(0.0, 0.5, 2.0))
    lam, result = select_lambda(bundles, groups, config, grid=grid)
    assert len(grid.scores) == len(grid.values) == len(grid.fits)
    assert all(math.isfinite(s) for s in grid.scores)
    best = min(range(3), key=lambda i: (grid.scores[i], grid.values[i]))
    assert lam == grid.values[best]
    assert np.array_equal(result.beta_hat, grid.fits[best].beta_hat)


def test_select_lambda_workers_agree(lr_problem):
    # both searches stop at the split-free fit at 1.0 and reuse it for 10.0
    bundles, groups = lr_problem
    config = BoostConfig(T=25, algorithm="cd_sboost")
    grid = LambdaGrid(values=(0.0, 1.0, 10.0))
    lam1, fit1 = select_lambda(bundles, groups, config, grid=grid)
    parallel = LambdaGrid(values=(0.0, 1.0, 10.0))
    lam2, fit2 = select_lambda(bundles, groups, config, grid=parallel, workers=2)
    assert grid.fits[2] is grid.fits[1]
    assert parallel.fits[2] is parallel.fits[1]
    assert lam1 == lam2
    assert np.array_equal(fit1.beta_hat, fit2.beta_hat)
    assert _score_bytes(grid.scores) == _score_bytes(parallel.scores)
    assert [fit_bytes(f) for f in grid.fits] == [fit_bytes(f) for f in parallel.fits]


def test_select_lambda_rewards_commonality():
    # p >> n with every group fully shared: the searched weight should come
    # out positive and not hurt pair recovery in a clear majority of draws.
    design = SimDesign(M=3, n=50, p=200, K=4, rho_f=1.0, rho_p=0.0, rho_n=0.0,
                       model="lr", coef_scheme="random", seed=7)
    groups = design.groups()
    config = BoostConfig(T=400, algorithm="cd_sboost")
    wins = 0
    for rep in range(20):
        bundles, truth = simulate_replicate(design, rep)
        lam, tuned = select_lambda(bundles, groups, config)
        plain = run_fit(bundles, groups, config)
        tp_t, _ = group_tp_fp(tuned, truth, groups)
        tp_p, _ = group_tp_fp(plain, truth, groups)
        if lam > 0 and tp_t >= tp_p:
            wins += 1
    assert wins > 10


# ---------------------------------------------------------------------------
# select_lambda: reuse of split-free fits
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(M=st.integers(1, 4), mode=st.sampled_from(["all_pairs", "ordered"]),
       model=st.sampled_from(["lr", "aft"]),
       values=st.lists(st.sampled_from([0.0, 0.02, 0.2, 1.0, 5.0, 50.0, 1e4]),
                       min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_select_lambda_reuse_is_bit_identical(M, mode, model, values, seed):
    """Scores, fits and choice equal fitting every grid value from scratch,
    byte for byte, with partitions verified and grids with duplicate
    values."""
    rng = np.random.default_rng(seed)
    make = make_lr_bundles if model == "lr" else make_aft_bundles
    bundles = make(rng, M=M, n=int(rng.integers(12, 20)), p=6)
    groups = tiny_groups(6, 3)
    config = BoostConfig(T=15, algorithm="cd_sboost", model=model, penalty_mode=mode)
    grid = LambdaGrid(values=tuple(sorted(values)))
    lam, fit = select_lambda(bundles, groups, config, grid=grid, verify_partitions=True)
    fresh = _fresh_grid(bundles, groups, config, grid.values, verify_partitions=True)
    assert _score_bytes(grid.scores) == _score_bytes([sc for sc, _ in fresh])
    assert [fit_bytes(f) for f in grid.fits] == [fit_bytes(f) for _, f in fresh]
    best = min(range(len(fresh)), key=lambda i: (fresh[i][0], i))
    assert lam == grid.values[best]
    assert fit_bytes(fit) == fit_bytes(fresh[best][1])
    # every value after the first split-free one shares its fit object
    first = next((i for i, (_, f) in enumerate(fresh) if _split_free(f, M, 3)), None)
    if first is not None:
        assert all(f is grid.fits[first] for f in grid.fits[first:])


def test_select_lambda_stops_fitting_after_split_free_value(lr_problem, monkeypatch):
    bundles, groups = lr_problem
    config = BoostConfig(T=40, algorithm="cd_sboost")
    values = (0.0, 0.05, 0.2, 0.5, 2.0, 10.0)
    fresh = _fresh_grid(bundles, groups, config, values)
    first = next(i for i, (_, f) in enumerate(fresh) if _split_free(f, 3, groups.K))
    assert 0 < first < len(values) - 1
    calls = []

    def counting(bundles, groups, config, **kwargs):
        calls.append(config.lam)
        return cd_sboost_fit(bundles, groups, config, **kwargs)

    monkeypatch.setattr(boosting, "cd_sboost_fit", counting)
    grid = LambdaGrid(values=values)
    select_lambda(bundles, groups, config, grid=grid)
    assert calls == list(values[:first + 1])
    assert _score_bytes(grid.scores) == _score_bytes([sc for sc, _ in fresh])



def test_parallel_search_fits_at_most_workers_minus_one_extra(lr_problem, monkeypatch,
                                                              tmp_path):
    """With two workers the search runs at most one fit past the first
    split-free value.  Each fit leaves a file; forked workers inherit the
    counting wrapper."""
    bundles, groups = lr_problem
    config = BoostConfig(T=40, algorithm="cd_sboost")
    values = (0.0, 0.05, 0.2, 0.5, 2.0, 10.0, 20.0, 50.0, 100.0)
    serial = LambdaGrid(values=values)
    select_lambda(bundles, groups, config, grid=serial)
    first = next(i for i, f in enumerate(serial.fits) if _split_free(f, 3, groups.K))
    assert first + 2 < len(values)

    def counting(bundles, groups, config, **kwargs):
        (tmp_path / f"fit-{config.lam!r}").touch()
        return cd_sboost_fit(bundles, groups, config, **kwargs)

    monkeypatch.setattr(boosting, "cd_sboost_fit", counting)
    workers = 2
    grid = LambdaGrid(values=values)
    select_lambda(bundles, groups, config, grid=grid, workers=workers)
    assert first + 1 <= len(list(tmp_path.iterdir())) <= first + 1 + workers - 1
    assert _score_bytes(grid.scores) == _score_bytes(serial.scores)
    assert [fit_bytes(f) for f in grid.fits] == [fit_bytes(f) for f in serial.fits]

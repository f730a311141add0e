import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cdboost.boosting import cd_sboost_fit, fit
from cdboost.data import (
    ALGORITHMS,
    BoostConfig,
    CoefficientState,
    DatasetBundle,
    ValidationError,
    standardize_columns,
    validate,
)
from cdboost.losses import _col_norms, build_context, km_weights, survival_order, survival_sorted
from cdboost.tuning import default_lambda_grid, hdbic, select_lambda

from conftest import (
    LAYOUTS,
    fit_bytes,
    laid_out,
    make_aft_bundles,
    make_lr_bundles,
    tiny_groups,
    traced_peak,
)
from oracles import (
    aft_loss,
    bracket_minimum,
    golden_section,
    km_jump_weights,
    lr_loss,
    optimal_increment_joint,
    optimal_increment_single,
    quadratic_vertex,
    sparsity_term,
    weighted_loss,
)


def test_km_weights_no_censoring_uniform():
    w = km_weights(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))
    assert np.allclose(w, 1 / 3)


def test_km_weights_hand_example():
    # middle observation censored: (1/3, 0, 2/3)
    w = km_weights(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]))
    assert np.allclose(w, [1 / 3, 0.0, 2 / 3])


def test_km_weights_single_event():
    assert np.allclose(km_weights(np.array([5.0]), np.array([1])), [1.0])


def test_km_weights_all_censored_raises():
    with pytest.raises(ValidationError):
        km_weights(np.array([1.0, 2.0]), np.array([0, 0]))


def test_km_weights_match_survival_curve_jumps(rng):
    for _ in range(100):
        n = int(rng.integers(3, 40))
        y = np.sort(rng.exponential(1.0, size=n))
        delta = rng.integers(0, 2, size=n)
        if delta.sum() == 0:
            delta[rng.integers(n)] = 1
        assert np.max(np.abs(km_weights(y, delta) - km_jump_weights(y, delta))) < 1e-12


def test_km_weights_sum_below_one(rng):
    y = np.sort(rng.exponential(1.0, size=25))
    delta = rng.integers(0, 2, size=25)
    delta[0] = 1
    w = km_weights(y, delta)
    assert w.sum() <= 1.0 + 1e-12
    assert (w[delta == 0] == 0).all()


def test_build_context_lr_weights(lr_problem):
    bundles, _ = lr_problem
    ctx = build_context(bundles, "lr")
    for m, b in enumerate(bundles):
        assert np.allclose(ctx.weights[m], 1.0 / b.n)
        assert ctx.n_events[m] == b.n


def test_build_context_aft_sorts_events_first(rng):
    X = standardize_columns(rng.standard_normal((6, 3)))
    y = np.array([3.0, 1.0, 2.0, 2.0, 5.0, 4.0])
    delta = np.array([1, 1, 0, 1, 0, 1])
    ctx = build_context([DatasetBundle(X=X, y=y, delta=delta, id=0)], "aft")
    assert np.array_equal(ctx.y[0], np.sort(y))
    # tie at t=2: the event (delta=1) must come first
    i = np.searchsorted(ctx.y[0], 2.0)
    assert ctx.y[0][i] == 2.0 and ctx.y[0][i + 1] == 2.0


def test_build_context_aft_unsorted_rows_sorted_copy(rng):
    X = rng.standard_normal((30, 5))
    y = np.round(rng.standard_normal(30), 1)      # ties
    delta = rng.integers(0, 2, 30)
    delta[0] = 1
    ctx = build_context([DatasetBundle(X=X, y=y, delta=delta, id=0)], "aft")
    order = np.lexsort((1 - delta, y))
    assert ctx.X[0].flags.c_contiguous
    assert ctx.X[0].tobytes() == X[order].tobytes()


def test_build_context_holds_no_n_by_p_array(rng):
    n, p = 200, 1000
    X = rng.standard_normal((n, p))
    delta = np.ones(n, dtype=int)
    delta[::3] = 0
    problems = {
        "lr": DatasetBundle(X=X, y=rng.standard_normal(n)),
        # rows already in survival order (distinct times, ascending)
        "aft": DatasetBundle(X=X, y=np.sort(rng.standard_normal(n)), delta=delta),
    }
    for model, bundle in problems.items():
        ctx, peak = traced_peak(build_context, [bundle], model)
        assert ctx.X[0] is bundle.X
        # the column norms' 32 KiB blocks only, no n x p temporary
        assert peak < 0.1 * X.nbytes, model
        assert ctx.col_norms[0].tobytes() == oracles.col_norms_whole(X, ctx.weights[0]).tobytes()


def _tied_aft_bundles():
    """Three AFT datasets of 40 rows and 12 covariates whose log-times are
    rounded to halves, so equal (y, delta) keys occur inside each dataset
    and across datasets; rows are in the order they were drawn."""
    rng = np.random.default_rng(31)
    beta = np.zeros(12)
    beta[[0, 5]] = 1.0
    out = []
    for m in range(3):
        X = standardize_columns(rng.standard_normal((40, 12)))
        y = np.round(2 * (X @ beta + rng.standard_normal(40))) / 2
        delta = (rng.random(40) < 0.7).astype(int)
        out.append(DatasetBundle(X=X, y=y, delta=delta, id=m))
    return out


def test_survival_sorted_keeps_ties_in_row_order():
    bundles = _tied_aft_bundles()
    keys = [list(zip(b.y.tolist(), b.delta.tolist())) for b in bundles]
    assert all(len(set(k)) < len(k) for k in keys)          # ties inside each dataset
    assert set(keys[0]) & set(keys[1]) & set(keys[2])       # and across datasets
    for b in bundles:
        s = survival_sorted(b)
        assert s is not b and survival_sorted(s) is s
        order = survival_order(b.y, b.delta)
        assert s.X.tobytes() == b.X[order].tobytes()
        assert s.y.tobytes() == b.y[order].tobytes()
        assert s.delta.tolist() == b.delta[order].tolist()
    lr = DatasetBundle(X=bundles[0].X, y=bundles[0].y)
    assert survival_sorted(lr) is lr


def test_fits_equal_on_file_order_and_survival_order():
    """Bundles in file order or in survival order give the same bits: every
    fitter's FitResult, its HDBIC score, and the lambda grid search.  Tied
    keys keep their row order, inside a dataset and in the pooled rows."""
    in_file = _tied_aft_bundles()
    in_order = [survival_sorted(b) for b in in_file]
    groups = tiny_groups(12, 4)
    for algorithm in ALGORITHMS:
        config = BoostConfig(T=60, lam=0.3, nu=0.5, model="aft", algorithm=algorithm)
        rows = slice(1) if algorithm == "sboost" else slice(None)
        res = fit(in_file[rows], groups, config)
        assert fit_bytes(fit(in_order[rows], groups, config)) == fit_bytes(res), algorithm
        assert hdbic(res, in_order[rows]).hex() == hdbic(res, in_file[rows]).hex(), algorithm
    config = BoostConfig(T=60, nu=0.5, model="aft")
    searches = []
    for bundles in (in_file, in_order):
        grid = default_lambda_grid(bundles)
        lam, res = select_lambda(bundles, groups, config, grid=grid)
        searches.append((lam, fit_bytes(res), [s.hex() for s in grid.scores],
                         [fit_bytes(f) for f in grid.fits]))
    assert searches[0] == searches[1]


def test_survival_ordered_data_is_not_copied():
    """On bundles in survival order the loss context shares each bundle's
    ``X``; a cd fit and its HDBIC score allocate less than one copy of the
    data (on the same rows in file order they copy it); and neither a
    ``DatasetBundle`` nor ``validate`` makes an n x p finiteness mask."""
    in_file = make_aft_bundles(np.random.default_rng(5), M=3, n=100, p=400)
    in_order = [survival_sorted(b) for b in in_file]
    data_bytes = sum(b.X.nbytes for b in in_order)
    ctx = build_context(in_order, "aft")
    assert all(np.shares_memory(X, b.X) for X, b in zip(ctx.X, in_order))
    groups = tiny_groups(400, 8)
    config = BoostConfig(T=50, lam=0.5, model="aft")

    def fit_and_score(bundles):
        return hdbic(cd_sboost_fit(bundles, groups, config), bundles)

    _, peak = traced_peak(fit_and_score, in_order)
    assert peak < data_bytes
    assert traced_peak(fit_and_score, in_file)[1] > data_bytes
    b = in_order[0]
    mask_bytes = b.X.size  # one byte per entry of a boolean mask
    assert traced_peak(DatasetBundle, X=b.X, y=b.y, delta=b.delta)[1] < mask_bytes / 4
    assert traced_peak(validate, in_order, groups, "aft")[1] < mask_bytes / 4


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 300), p=st.integers(1, 700), layout=st.sampled_from(LAYOUTS),
       seed=st.integers(0, 2**32 - 1))
# n = 300 makes blocks 54 columns wide; p = 55 leaves a one-column tail
@example(n=300, p=55, layout="c", seed=1)
@example(n=300, p=163, layout="f", seed=2)
def test_col_norms_match_whole_array(n, p, layout, seed):
    rng = np.random.default_rng(seed)
    X = laid_out(rng, n, p, layout)
    w = rng.random(n)
    assert _col_norms(X, w).tobytes() == oracles.col_norms_whole(X, w).tobytes()


def test_aft_loss_reduces_to_lr_when_uncensored(rng):
    X = standardize_columns(rng.standard_normal((20, 4)))
    y = rng.standard_normal(20)
    lr_ctx = build_context([DatasetBundle(X=X, y=y, delta=None, id=0)], "lr")
    aft_ctx = build_context(
        [DatasetBundle(X=X, y=y, delta=np.ones(20, dtype=int), id=0)], "aft"
    )
    for _ in range(5):
        beta = rng.standard_normal(4)
        assert np.isclose(
            lr_loss(lr_ctx, beta, 0), aft_loss(aft_ctx, beta, 0), rtol=0, atol=1e-15
        )


def test_weighted_loss_zero_at_perfect_fit(rng):
    X = standardize_columns(rng.standard_normal((15, 3)))
    beta = rng.standard_normal(3)
    b = DatasetBundle(X=X, y=X @ beta, delta=None, id=0)
    ctx = build_context([b], "lr")
    assert weighted_loss(ctx, beta, 0) < 1e-25


def test_optimal_increment_matches_golden_section_lr(rng):
    bundles = make_lr_bundles(rng, M=2, n=30, p=5)
    ctx = build_context(bundles, "lr")
    state = CoefficientState(
        beta=rng.standard_normal((5, 2)) * 0.2,
        partitions=[],
        iteration=0,
    )
    for s in range(5):
        for m in range(2):
            def f(g, s=s, m=m):
                beta = state.beta[:, m].copy()
                beta[s] += g
                return weighted_loss(ctx, beta, m)

            lo, hi = bracket_minimum(f)
            want = quadratic_vertex(f, golden_section(f, lo, hi))
            assert abs(optimal_increment_single(ctx, state, s, m) - want) < 1e-8


def test_optimal_increment_joint_matches_golden_section(rng):
    bundles = make_aft_bundles(rng, M=3, n=25, p=4)
    ctx = build_context(bundles, "aft")
    state = CoefficientState(beta=np.zeros((4, 3)), partitions=[], iteration=0)
    for s in range(4):
        for A in [(0, 1), (0, 2), (0, 1, 2)]:
            def f(g, s=s, A=A):
                total = 0.0
                for m in A:
                    beta = state.beta[:, m].copy()
                    beta[s] += g
                    total += weighted_loss(ctx, beta, m)
                return total

            lo, hi = bracket_minimum(f)
            want = quadratic_vertex(f, golden_section(f, lo, hi))
            assert abs(optimal_increment_joint(ctx, state, s, A) - want) < 1e-8


def test_degenerate_column_increment_is_zero(rng):
    X = rng.standard_normal((20, 3))
    X[:, 1] = 0.0
    y = rng.standard_normal(20)
    with pytest.warns(UserWarning):
        ctx = build_context([DatasetBundle(X=X, y=y, delta=None, id=0)], "lr")
    state = CoefficientState(beta=np.zeros((3, 1)), partitions=[], iteration=0)
    assert optimal_increment_single(ctx, state, 1, 0) == 0.0


def test_sparsity_term_counts_nonzeros(rng):
    bundles = make_lr_bundles(rng, M=1, n=20, p=6)
    ctx = build_context(bundles, "lr")
    beta = np.array([0.0, 1.0, 0.0, -2.0, 0.0, 3.0])
    expected = (np.log(20) / 20) * 3
    assert np.isclose(sparsity_term(ctx, 0, beta), expected)

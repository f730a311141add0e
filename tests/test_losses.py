import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from cdboost.data import CoefficientState, DatasetBundle, ValidationError, standardize_columns
from cdboost.losses import _col_norms, build_context, km_weights

from conftest import LAYOUTS, laid_out, make_aft_bundles, make_lr_bundles, tiny_groups, traced_peak
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
        # the column norms' blocks only, no n x p temporary
        assert peak < 0.25 * X.nbytes, model
        assert ctx.col_norms[0].tobytes() == oracles.col_norms_whole(X, ctx.weights[0]).tobytes()


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

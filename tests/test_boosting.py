import ast
import hashlib
import itertools
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cdboost
import oracles
from cdboost import boosting, losses, simulate
from cdboost.boosting import (
    _path,
    _split,
    _SubsetTasks,
    _unequal,
    cd_sboost_fit,
    fit,
    int_sboost_fit,
    pool_sboost_fit,
    sboost_fit,
    sep_sboost_fit,
)
from cdboost.data import (
    BoostConfig,
    CoefficientState,
    DatasetBundle,
    GroupStructure,
    block_partitions,
    label_classes,
    partition_refresh,
    standardize_columns,
    ValidationError,
)
from cdboost.losses import build_context

from conftest import (
    fit_bytes,
    make_aft_bundles,
    make_lr_bundles,
    pin_message,
    tiny_groups,
    traced_peak,
)
from oracles import (
    Candidate,
    PenaltySpec,
    brute_cd_path,
    candidate_set,
    canonical_partition,
    cd_objective,
    commonality_penalty,
    initial_state,
    km_jump_weights,
    partition_labels,
)


def strong_signal_bundle(rng, n=60, p=8, support=(1, 4)):
    X = standardize_columns(rng.standard_normal((n, p)))
    beta = np.zeros(p)
    beta[list(support)] = 2.0
    y = X @ beta + 0.1 * rng.standard_normal(n)
    return DatasetBundle(X=X, y=y, delta=None, id=0), beta


# penalty -------------------------------------------------------------------


def test_penalty_zero_when_all_common():
    spec = PenaltySpec(lam=2.0, M=3, K=4)
    state = initial_state(8, 3, 4)
    assert commonality_penalty(state, spec) == 0.0


def test_penalty_hits_lam_when_all_differ():
    spec = PenaltySpec(lam=2.0, M=3, K=2)
    state = CoefficientState(
        beta=np.zeros((4, 3)),
        partitions=[tuple((m,) for m in range(3))] * 2,
        iteration=0,
    )
    assert commonality_penalty(state, spec) == pytest.approx(2.0)


def test_penalty_mixed_partitions_all_pairs():
    # groups: {123}, {1}{2}{3}, {12}{3}, {23}{1} -> 0+3+2+2 of 12 pairs
    spec = PenaltySpec(lam=1.0, M=3, K=4, mode="all_pairs")
    parts = [
        ((0, 1, 2),),
        ((0,), (1,), (2,)),
        ((0, 1), (2,)),
        ((1, 2), (0,)),
    ]
    state = CoefficientState(beta=np.zeros((8, 3)), partitions=parts, iteration=0)
    assert commonality_penalty(state, spec) == pytest.approx(7.0 / 12.0)


def test_penalty_ordered_counts_adjacent_pairs_only():
    spec = PenaltySpec(lam=1.0, M=3, K=1, mode="ordered")
    # {13}{2}: both adjacent pairs (1,2) and (2,3) differ
    state = CoefficientState(
        beta=np.zeros((2, 3)), partitions=[((0, 2), (1,))], iteration=0
    )
    assert commonality_penalty(state, spec) == pytest.approx(1.0)


def test_penalty_bounds_random_partitions(rng):
    spec = PenaltySpec(lam=0.7, M=4, K=3)
    for _ in range(50):
        parts = []
        for _k in range(3):
            labels = rng.integers(0, 4, size=4)
            classes = {}
            for m, c in enumerate(labels):
                classes.setdefault(int(c), []).append(m)
            parts.append(tuple(tuple(v) for v in classes.values()))
        state = CoefficientState(beta=np.zeros((6, 4)), partitions=parts, iteration=0)
        pen = commonality_penalty(state, spec)
        assert 0.0 <= pen <= 0.7 + 1e-15


def test_penalty_single_dataset_is_zero():
    spec = PenaltySpec(lam=5.0, M=1, K=2)
    state = initial_state(4, 1, 2)
    assert commonality_penalty(state, spec) == 0.0


# candidates ----------------------------------------------------------------


def test_candidate_set_respects_partition(lr_problem):
    bundles, groups = lr_problem
    ctx = build_context(bundles, "lr")
    state = CoefficientState(
        beta=np.zeros((6, 3)),
        partitions=[((0, 1), (2,)), ((0, 1, 2),)],
        iteration=0,
    )
    cands = candidate_set(ctx, state, groups, 0)   # group 0: {01}{2}
    assert sorted(c.A for c in cands) == [(0,), (0, 1), (1,), (2,)]
    cands = candidate_set(ctx, state, groups, 5)   # group 1: {012}
    assert sorted(c.A for c in cands) == [
        (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,),
    ]


def test_cd_objective_matches_manual(lr_problem):
    bundles, groups = lr_problem
    ctx = build_context(bundles, "lr")
    state = initial_state(6, 3, 2)
    spec = PenaltySpec(lam=0.5, M=3, K=2)
    cand = Candidate(s=0, A=(0, 1), gamma=0.3)
    got = cd_objective(ctx, state, groups, cand, spec)

    total = 0.0
    for m in range(3):
        beta = np.zeros(6)
        if m in (0, 1):
            beta[0] = 0.3
        r = bundles[m].y - bundles[m].X @ beta
        n = bundles[m].n
        total += 0.5 * (r @ r) / n
        total += np.log(n) / n * np.count_nonzero(beta)
    # splitting {012} into {01}{2} makes 2 of 6 pairs unequal
    total += 0.5 * 2 / 6
    assert got == pytest.approx(total, rel=1e-12)


# single-dataset fits ---------------------------------------------------------


def test_sboost_recovers_strong_signal(rng):
    bundle, beta = strong_signal_bundle(rng)
    groups = tiny_groups(8, 2)
    res = sboost_fit([bundle], groups, BoostConfig(T=300, model="lr"))
    assert set(res.selected[0]) >= {1, 4}
    assert res.beta_hat[1, 0] == pytest.approx(2.0, abs=0.35)
    assert 1 <= res.t_hat <= 300


def test_sboost_t_hat_is_trace_argmin(rng):
    bundle, _ = strong_signal_bundle(rng)
    res = sboost_fit([bundle], tiny_groups(8, 2), BoostConfig(T=120, model="lr"))
    assert res.t_hat == int(np.argmin(res.objective_trace)) + 1


def test_all_fits_loss_monotone(lr_problem):
    bundles, groups = lr_problem
    cfg = BoostConfig(T=80, model="lr")
    for fitter in (sep_sboost_fit, int_sboost_fit, pool_sboost_fit, cd_sboost_fit):
        res = fitter(bundles, groups, cfg)
        assert (np.diff(res.loss_trace) <= 1e-12).all(), fitter.__name__


def test_loss_monotone_aft(aft_problem):
    bundles, groups = aft_problem
    cfg = BoostConfig(T=60, model="aft")
    for fitter in (sep_sboost_fit, int_sboost_fit, pool_sboost_fit, cd_sboost_fit):
        res = fitter(bundles, groups, cfg)
        assert (np.diff(res.loss_trace) <= 1e-12).all(), fitter.__name__


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(["lr", "aft"]), M=st.integers(1, 4),
       mode=st.sampled_from(["all_pairs", "ordered"]), lam=st.sampled_from([0.0, 0.05, 50.0]),
       nu=st.sampled_from([0.1, 0.5, 1.0]), lockstep=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_trace_rises_only_where_a_nonzero_enters_or_a_class_splits(model, M, mode, lam, nu,
                                                                    lockstep, seed):
    """Each step lowers the summed loss (by gamma^2 den_A nu (1 - nu/2)
    for nu in (0, 1]), the sparsity term moves only with a nonzero count
    and the penalty only at a split.  So the summed objective trace rises,
    beyond a relative 1e-12, only at an iteration where some dataset's
    sparsity term grows or the penalty grows."""
    make = make_lr_bundles if model == "lr" else make_aft_bundles
    bundles = make(np.random.default_rng(seed), M=M, n=25, p=8)
    config = BoostConfig(T=60, lam=lam, nu=nu, penalty_mode=mode, model=model)
    path = _path(build_context(bundles, model), tiny_groups(8, 3), config, lockstep=lockstep)
    trace = path.loss.sum(axis=0) + path.sparsity.sum(axis=0) + path.penalty
    rises = np.flatnonzero(np.diff(trace) > 1e-12 * np.abs(trace[:-1])) + 1
    grew = (np.diff(path.sparsity, axis=1) > 0).any(axis=0) | (np.diff(path.penalty) > 0)
    assert grew[rises - 1].all(), rises[~grew[rises - 1]]


# reduction identities --------------------------------------------------------


def test_cd_single_dataset_equals_sboost(rng):
    bundle, _ = strong_signal_bundle(rng, n=40, p=6)
    groups = tiny_groups(6, 3)
    cfg = BoostConfig(T=100, model="lr")
    a = sboost_fit([bundle], groups, cfg)
    b = cd_sboost_fit([bundle], groups, cfg)
    assert a.t_hat == b.t_hat
    assert np.array_equal(a.beta_hat, b.beta_hat)
    assert np.array_equal(a.objective_trace, b.objective_trace)


def test_pool_equals_sboost_on_stacked_rows(rng):
    bundles = make_lr_bundles(rng, M=3, n=30, p=6)
    groups = tiny_groups(6, 2)
    cfg = BoostConfig(T=100, model="lr")
    pooled = DatasetBundle(
        X=np.vstack([b.X for b in bundles]),
        y=np.concatenate([b.y for b in bundles]),
        delta=None,
        id=0,
    )
    a = sboost_fit([pooled], groups, cfg)
    b = pool_sboost_fit(bundles, groups, cfg)
    assert a.t_hat == b.t_hat
    for m in range(3):
        assert np.array_equal(b.beta_hat[:, m], a.beta_hat[:, 0])


def _tied_aft_bundles(rng, M, n, p):
    """AFT datasets whose observed times tie within and across datasets,
    between events and censored rows too."""
    return [DatasetBundle(X=b.X, y=np.round(b.y, 1), delta=b.delta, id=b.id)
            for b in make_aft_bundles(rng, M=M, n=n, p=p)]


def test_pool_aft_equals_fit_of_stacked_rows(rng):
    bundles = _tied_aft_bundles(rng, M=3, n=40, p=8)
    groups = tiny_groups(8, 2)
    cfg = BoostConfig(T=150, model="aft")
    stacked = sboost_fit([oracles.stacked_bundle(bundles)], groups, cfg)
    pooled = pool_sboost_fit(bundles, groups, cfg)
    assert pooled.t_hat == stacked.t_hat
    assert pooled.beta_hat.tobytes() == np.repeat(stacked.beta_hat, 3, axis=1).tobytes()
    assert pooled.objective_trace.tobytes() == stacked.objective_trace.tobytes()
    assert pooled.loss_trace.tobytes() == stacked.loss_trace.tobytes()
    # the pooled rows come in survival order, so the context holds them as they are
    bundle = boosting._pooled_bundle(bundles)
    assert build_context([bundle], "aft").X[0] is bundle.X


def test_pool_aft_holds_one_pooled_copy(rng):
    bundles = _tied_aft_bundles(rng, M=3, n=100, p=1000)
    groups = tiny_groups(1000, 4)
    _, peak = traced_peak(pool_sboost_fit, bundles, groups, BoostConfig(T=50, model="aft"))
    # the rows are written once into the pooled array; no stacked copy,
    # sorted copy or n x p column-norm temporary next to it
    assert peak < 1.3 * sum(b.X.nbytes for b in bundles)


# multi-dataset behavior ------------------------------------------------------


def test_int_shares_t_hat_sep_does_not(rng):
    bundles = make_lr_bundles(rng, M=3, n=30, p=6)
    groups = tiny_groups(6, 2)
    cfg = BoostConfig(T=80, model="lr")
    ri = int_sboost_fit(bundles, groups, cfg)
    assert ri.t_hat == int(np.argmin(ri.objective_trace)) + 1


def test_cd_zero_lambda_splits_freely(rng):
    bundles = make_lr_bundles(rng, M=2, n=50, p=6)
    # make dataset signals disagree so joint updates are suboptimal
    b0, b1 = bundles
    y1 = b1.X @ np.array([0, 0, 0, 1.5, 0, 0.0]) + 0.2 * rng.standard_normal(50)
    bundles = [b0, DatasetBundle(X=b1.X, y=y1, delta=None, id=1)]
    groups = tiny_groups(6, 2)
    res = cd_sboost_fit(bundles, groups, BoostConfig(T=150, lam=0.0, model="lr"),
                        verify_partitions=True)
    refreshed = partition_refresh(
        CoefficientState(beta=res.beta_hat, partitions=[], iteration=res.t_hat),
        groups,
    )
    assert refreshed.partitions == res.partitions


def test_cd_large_lambda_keeps_groups_common(rng):
    bundles = make_lr_bundles(rng, M=3, n=40, p=6)
    groups = tiny_groups(6, 2)
    res = cd_sboost_fit(bundles, groups, BoostConfig(T=100, lam=1e6, model="lr"))
    assert res.partitions == [((0, 1, 2),)] * 2
    assert res.group_verdicts(groups) == ["common", "common"]


def test_cd_all_zero_response_never_updates():
    X = standardize_columns(np.random.default_rng(0).standard_normal((20, 4)))
    bundles = [DatasetBundle(X=X, y=np.zeros(20), delta=None, id=m) for m in range(2)]
    groups = tiny_groups(4, 2)
    res = cd_sboost_fit(bundles, groups, BoostConfig(T=10, model="lr"))
    assert np.all(res.beta_hat == 0.0)
    assert res.partitions == [((0, 1),)] * 2


def test_lockstep_path_keeps_singleton_classes(rng):
    bundles = make_lr_bundles(rng, M=3, n=30, p=4)
    groups = tiny_groups(4, 2)
    ctx = build_context(bundles, "lr")
    path = _path(ctx, groups, BoostConfig(T=40, model="lr"), lockstep=True)
    # singletons can never merge
    assert path.partitions == [((0,), (1,), (2,))] * 2
    assert all(len(A) == 1 for t in range(40) for _, A, _ in oracles.path_steps(path, t))


@pytest.mark.parametrize("model", ["lr", "aft"])
def test_reported_classes_are_block_partitions(rng, model):
    """Every fitter reports the exact block classes of its coefficients."""
    make = make_lr_bundles if model == "lr" else make_aft_bundles
    bundles = make(rng, M=3, n=30, p=6)
    groups = tiny_groups(6, 2)
    for fitter in (cd_sboost_fit, sep_sboost_fit, int_sboost_fit, pool_sboost_fit):
        res = fitter(bundles, groups, BoostConfig(T=60, lam=0.3, model=model))
        assert res.partitions == block_partitions(res.beta_hat, groups)


def test_cd_deterministic_across_calls(rng):
    bundles = make_lr_bundles(rng, M=3, n=30, p=6)
    groups = tiny_groups(6, 2)
    cfg = BoostConfig(T=60, lam=0.3, model="lr")
    a = cd_sboost_fit(bundles, groups, cfg)
    b = cd_sboost_fit(bundles, groups, cfg)
    assert np.array_equal(a.beta_hat, b.beta_hat)
    assert a.t_hat == b.t_hat
    assert a.partitions == b.partitions


def test_cd_partitions_verified_on_aft(aft_problem):
    bundles, groups = aft_problem
    res = cd_sboost_fit(bundles, groups, BoostConfig(T=50, lam=0.2, model="aft"),
                        verify_partitions=True)
    assert res.t_hat >= 1


def _copy_of_dataset_0(seed=9, M=4, n=27, p=19, K=3):
    """M LR datasets with their own sparse signals, the last a copy of dataset 0."""
    rng = np.random.default_rng(seed)
    bundles = []
    for m in range(M - 1):
        beta = np.zeros(p)
        beta[rng.choice(p, 3, replace=False)] = rng.uniform(-1.5, 1.5, 3)
        X = standardize_columns(rng.standard_normal((n, p)))
        bundles.append(DatasetBundle(X=X, y=X @ beta + rng.standard_normal(n), delta=None, id=m))
    bundles.append(DatasetBundle(X=bundles[0].X.copy(), y=bundles[0].y.copy(), delta=None,
                                 id=M - 1))
    return bundles, tiny_groups(p, K)


_COPY_CONFIG = BoostConfig(T=30, lam=0.5, penalty_mode="ordered", nu=1.0)


def test_verify_partitions_accepts_classes_with_equal_blocks():
    """Dataset 3 copies dataset 0.  Iteration 6 steps dataset 3 alone on x15
    and iteration 12 dataset 0 alone by the same increment, so the two hold
    equal blocks of group 2 again while their classes stay apart: classes
    never merge.  The check accepts that, and changes no byte of the fit."""
    bundles, groups = _copy_of_dataset_0()
    path = _path(build_context(bundles, "lr"), groups, _COPY_CONFIG)
    (s6, A6, g6), = oracles.path_steps(path, 5)
    (s12, A12, g12), = oracles.path_steps(path, 11)
    assert (s6, A6, s12, A12, g6) == (15, (3,), 15, (0,), g12)
    checked = cd_sboost_fit(bundles, groups, _COPY_CONFIG, verify_partitions=True)
    assert fit_bytes(checked) == fit_bytes(cd_sboost_fit(bundles, groups, _COPY_CONFIG))
    assert all(len(cls) == 1 for cls in checked.final_partitions[2] if 0 in cls)


def test_verify_partitions_catches_a_split_on_a_zero_increment(monkeypatch):
    """Column 2 of dataset 0 is zero, so its increment there is 0; with a
    near-zero response every other step costs more sparsity than it saves
    loss, and the first step is dataset 0 alone on column 2.  A split rule
    that splits on that zero increment leaves two classes with equal blocks
    right after the split, which the check refuses."""
    rng = np.random.default_rng(5)
    bundles = []
    for m in range(2):
        X = standardize_columns(rng.standard_normal((20, 4)))
        if m == 0:
            X[:, 2] = 0.0
        bundles.append(DatasetBundle(X=X, y=1e-6 * rng.standard_normal(20), delta=None, id=m))
    groups = tiny_groups(4, 2)
    config = BoostConfig(T=3, lam=0.5)
    with pytest.warns(UserWarning, match="zero-norm"):
        path = _path(build_context(bundles, "lr"), groups, config, verify_partitions=True)
    assert oracles.path_steps(path, 0) == [(2, (0,), 0.0)]
    real_split = boosting._split
    monkeypatch.setattr(boosting, "_split", lambda labels, k, A, g: real_split(labels, k, A, 1.0))
    with pytest.warns(UserWarning, match="zero-norm"), \
            pytest.raises(AssertionError, match="iteration 1: tracked partition of group 1"):
        cd_sboost_fit(bundles, groups, config, verify_partitions=True)


def test_verify_partitions_catches_a_step_to_part_of_a_class(monkeypatch):
    """A split rule that never splits leaves a class whose members hold
    different blocks after the first single-dataset step."""
    bundles, groups = _copy_of_dataset_0()
    monkeypatch.setattr(boosting, "_split", lambda labels, k, A, g: None)
    with pytest.raises(AssertionError, match="iteration 1: tracked partition of group 2"):
        cd_sboost_fit(bundles, groups, _COPY_CONFIG, verify_partitions=True)


def test_verify_partitions_reports_a_stray_write_where_it_happens(monkeypatch):
    """A write to a coefficient of group 1 during a step on another group
    leaves a class of group 1 holding unequal blocks; the check names that
    iteration, as it checks every group after every step."""
    real_hold = _SubsetTasks.hold
    holds = []

    def stray_hold(tasks, coef):
        holds.append(None)
        if len(holds) == 3:
            coef[1, 3] += 1e-3
        real_hold(tasks, coef)

    monkeypatch.setattr(_SubsetTasks, "hold", stray_hold)
    bundles = make_lr_bundles(np.random.default_rng(3), M=3, n=30, p=9)
    with pytest.raises(AssertionError, match="iteration 4: tracked partition of group 1 "):
        cd_sboost_fit(bundles, tiny_groups(9, 3), BoostConfig(T=40, lam=0.5),
                      verify_partitions=True)


def test_fit_dispatch(lr_problem):
    bundles, groups = lr_problem
    for algorithm in ("sep_sboost", "int_sboost", "pool_sboost", "cd_sboost"):
        cfg = BoostConfig(T=30, model="lr", algorithm=algorithm)
        res = fit(bundles, groups, cfg)
        assert res.beta_hat.shape == (6, 3)


# class label rows ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(M=st.integers(1, 6), mode=st.sampled_from(["all_pairs", "ordered"]), data=st.data())
def test_label_rows_match_partition_oracles(M, mode, data):
    """The split rule, the pair counts and every split cost of the candidate
    table agree with the literal partition oracles on random partitions."""
    K = data.draw(st.integers(1, 3))
    draws = data.draw(st.lists(st.lists(st.integers(0, M - 1), min_size=M, max_size=M),
                               min_size=K, max_size=K))
    parts = [canonical_partition(
        [[m for m in range(M) if lab[m] == c] for c in set(lab)]) for lab in draws]
    labels = [partition_labels(pt) for pt in parts]
    assert [label_classes(row) for row in labels] == parts
    assert int(_unequal(labels, mode).sum()) == sum(
        oracles.unequal_pairs(pt, M, mode) for pt in parts)

    pen_scale = 0.3
    assignment = np.repeat(np.arange(K), 2)
    tasks = _SubsetTasks(labels, assignment, np.ones((M, 2 * K)), np.ones(M), mode, pen_scale)
    assert tasks.pairs.tolist() == [oracles.unequal_pairs(pt, M, mode) for pt in parts]
    for i, A in enumerate(tasks.subsets):
        for k, pt in enumerate(parts):
            inside = any(set(A) <= set(c) for c in pt)
            assert np.isinf(tasks.pen_sp[i, 2 * k]) == (not inside)
            if inside:
                added = (oracles.unequal_pairs(oracles.split(pt, A), M, mode)
                         - oracles.unequal_pairs(pt, M, mode))
                assert tasks.pen_sp[i, 2 * k] == pen_scale * added
    # the table of the all-common start, re-priced group by group for these
    # classes, holds the same rows and pair counts, and all inf where a
    # subset lies inside no class
    whole = _SubsetTasks([[0] * M] * K, assignment, np.ones((M, 2 * K)), np.ones(M), mode,
                         pen_scale)
    for k, row in enumerate(labels):
        whole.price(row, [k])
    assert np.array_equal(whole.pairs, tasks.pairs)
    rows = dict(zip(tasks.subsets, tasks.pen_sp))
    for A, row in zip(whole.subsets, whole.pen_sp):
        assert np.array_equal(row, rows[A]) if A in rows else np.isinf(row).all()

    k = data.draw(st.integers(0, K - 1))
    cls = data.draw(st.sampled_from(parts[k]))
    A = tuple(sorted(data.draw(st.lists(st.sampled_from(cls), min_size=1, unique=True))))
    g = data.draw(st.sampled_from([0.0, -0.5, 1.25]))
    want = parts[k] if g == 0.0 else tuple(oracles.split(parts[k], A))
    rest = _split(labels, k, A, g)
    assert (rest is not None) == (want != parts[k])
    if rest is not None:
        # the label of the rest of the class: its smallest member
        assert rest == min(m for c in want if c[0] in cls and c != A for m in c)
    assert labels[k] == partition_labels(want)
    assert [label_classes(row) for j, row in enumerate(labels) if j != k] == \
        [pt for j, pt in enumerate(parts) if j != k]


# the per-subset sparsity term -------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(M=st.integers(2, 6), mode=st.sampled_from(["all_pairs", "ordered"]),
       seed=st.integers(0, 2**32 - 1))
def test_sparsity_change_matches_full_tensor(M, mode, seed):
    """The (S, p) sparsity change equals the literal (S, p, M) formula
    bit for bit wherever the subset is a candidate for the covariate and
    the increment is nonzero (``_path`` sets the entries of zero ones)."""
    rng = np.random.default_rng(seed)
    p, K = 7, 3
    assignment = np.repeat(np.arange(K), [3, 2, 2])
    # unequal sample sizes, so unequal penalty factors
    n = rng.integers(10, 200, size=M)
    pf = np.log(n) / n
    parts = [canonical_partition(
        [np.flatnonzero(labels == c).tolist() for c in np.unique(labels)])
        for labels in rng.integers(0, M, size=(K, M))]
    # coefficients respect the partitions: one shared block per class
    values = np.array([0.0, 0.0, 0.5, -1.25, 2.0])
    beta = np.zeros((p, M))
    for k, part in enumerate(parts):
        rows = np.flatnonzero(assignment == k)
        for cls in part:
            beta[np.ix_(rows, cls)] = rng.choice(values, size=(rows.size, 1))
    col_norms = rng.uniform(0.5, 2.0, size=(M, p))
    tasks = _SubsetTasks(list(map(partition_labels, parts)), assignment, col_norms, pf, mode, 0.1)
    # increments that sometimes zero a coefficient or leave it unchanged
    gamma = rng.choice(np.concatenate([-values, values]), size=(len(tasks.subsets), p))

    coef = beta.T.copy()
    for m, s in zip(*np.nonzero(coef)):
        tasks.move(m, s, True)
    tasks.hold(coef)
    got = np.zeros(gamma.shape)
    tasks.add_sparsity(got, coef, gamma)
    tentative = beta[None, :, :] + gamma[:, :, None] * tasks.ind.astype(bool)[:, None, :]
    literal = ((tentative != 0).astype(float) - (beta != 0)) @ pf
    valid = ~np.isinf(tasks.pen_sp) & (gamma != 0)
    assert valid.any()
    assert np.array_equal(got[valid], literal[valid])


def test_support_move_allocates_no_sparsity_table():
    """A coefficient entering or leaving the support rewrites one column of
    the sparsity row in place: over an M=8 path of many support moves the
    traced peak stays less than one (S, p) float table above the working
    set, six float tables (``numA``, ``gamma``, ``dobj``, ``pen_sp``,
    ``denA``, ``pf_new``) and the bool mask ``zero``."""
    M, p = 8, 400
    ctx = build_context(make_lr_bundles(np.random.default_rng(8), M=M, n=40, p=p,
                                        sparsity=6), "lr")
    path, peak = traced_peak(_path, ctx, tiny_groups(p, 4), BoostConfig(T=200, lam=0.5))
    assert np.count_nonzero(np.diff(path.sparsity, axis=1)) > 20
    table = (2**M - 1) * p * 8
    assert peak - table * (6 + 1 / 8) < table


def test_price_allocates_a_fraction_of_a_table(monkeypatch):
    """A split re-prices only its own group, from (S, M) arrays: at M=10 on
    the ``cd-m8`` benchmark generator, the allocation traced inside every
    ``price`` call of a cd path stays under a quarter of one (S, p) float
    table."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import multi_dataset

    bundles, groups = multi_dataset(0, 10)
    real_price = _SubsetTasks.price
    grown = []

    def traced_price(tasks, row, ks):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        real_price(tasks, row, ks)
        grown.append(tracemalloc.get_traced_memory()[1] - held)

    monkeypatch.setattr(_SubsetTasks, "price", traced_price)
    traced_peak(_path, build_context(bundles, "lr"), groups, BoostConfig(T=40, lam=1.0))
    assert len(grown) > 1          # the start and at least one split
    table = (2**10 - 1) * groups.p * 8
    assert max(grown) < table / 4


@pytest.mark.parametrize("M", [2, 3, 4])
def test_cd_path_matches_brute_force_unequal_n(M):
    """Selections equal the literal oracle's; increments and trace agree
    to rounding. Unequal n gives unequal weights and penalty factors.  With
    one group, a split leaves subsets inside no class of any group."""
    for K, (lam, mode) in itertools.product(
            (2, 1), ((0.0, "all_pairs"), (0.6, "all_pairs"), (0.6, "ordered"))):
        rng = np.random.default_rng(100 + 10 * M + int(10 * lam) + (mode == "ordered"))
        bundles = []
        beta = np.zeros(5)
        beta[[0, 3]] = [1.0, -0.8]
        for m in range(M):
            n = 20 + 7 * m
            X = standardize_columns(rng.standard_normal((n, 5)))
            shift = 0.9 * (-1) ** m * X[:, 1]     # dataset-specific signal
            bundles.append(DatasetBundle(X=X, y=X @ beta + shift + rng.standard_normal(n),
                                         delta=None, id=m))
        groups = tiny_groups(5, K)
        config = BoostConfig(T=12, lam=lam, penalty_mode=mode)
        ctx = build_context(bundles, "lr")
        path = _path(ctx, groups, config, verify_partitions=True)
        records = [step for t in range(config.T) for step in oracles.path_steps(path, t)]
        res = cd_sboost_fit(bundles, groups, config, verify_partitions=True)
        trace = res.objective_trace
        # the fit replays its path's steps up to t_hat, in step order
        want = np.zeros((5, M))
        for s, A, g in records[:res.t_hat]:
            want[s, list(A)] += config.nu * g
        assert np.array_equal(res.beta_hat, want)
        b_records, b_trace, _, _ = brute_cd_path(
            [b.X for b in bundles], [b.y for b in bundles],
            [np.full(b.n, 1.0 / b.n) for b in bundles],
            groups.assignment, config.nu, config.T, lam, mode=mode,
        )
        assert [(s, A) for s, A, _ in records] == [(s, A) for s, A, _ in b_records]
        for (_, _, g1), (_, _, g2) in zip(records, b_records):
            assert abs(g1 - g2) < 1e-10
        assert np.allclose(trace, b_trace, rtol=0.0, atol=1e-10)


def _swapped_copies(y_of):
    """Two datasets: 30 standardized rows of six covariates, the second with
    columns 1 and 3 swapped, both with the response ``y_of(X, rng)``."""
    rng = np.random.default_rng(3)
    X = standardize_columns(rng.standard_normal((30, 6)))
    y = y_of(X, rng)
    return [DatasetBundle(X=X, y=y, delta=None, id=0),
            DatasetBundle(X=X[:, [0, 3, 2, 1, 4, 5]], y=y, delta=None, id=1)]


@pytest.mark.parametrize("y_of, tied, T, first", [
    (lambda X, rng: 2.0 * X[:, 3] + 0.3 * rng.standard_normal(30),
     [(1, (1,)), (3, (0,))], 2, (1, (1,), 2.035960534653879)),
    (lambda X, rng: np.zeros(30),
     [(s, A) for s in range(6) for A in ((0,), (0, 1), (1,))], 8, (0, (0, 1), 0.0)),
])
def test_cd_tie_break_on_exact_ties(y_of, tied, T, first):
    """Exact objective ties go to the largest subset, then the smallest
    covariate, then the smallest subset.  With the signal on x3, stepping
    dataset 0 on x3 and dataset 1 on the same column, its x1, tie exactly;
    the smaller covariate wins, where ordering by subset before covariate
    would pick dataset 0.  From the third step on the two datasets' scores
    tie only to rounding, which the path and the oracle round differently,
    so the records are compared over two steps.  With a zero response every
    candidate ties at 0, so the full class steps on covariate 0."""
    bundles = _swapped_copies(y_of)
    groups = tiny_groups(6, 2)
    config = BoostConfig(T=T, lam=0.0)
    ctx = build_context(bundles, "lr")
    state, spec = initial_state(6, 2, 2), PenaltySpec(lam=0.0, M=2, K=2)
    value = {(c.s, c.A): cd_objective(ctx, state, groups, c, spec)
             for s in range(6) for c in candidate_set(ctx, state, groups, s)}
    best = min(value.values())
    assert sorted(key for key, v in value.items() if v == best) == tied
    path = _path(ctx, groups, config)
    assert oracles.path_steps(path, 0) == [first]
    b_records, _, _, _ = brute_cd_path(
        [b.X for b in bundles], [b.y for b in bundles], [np.full(30, 1 / 30)] * 2,
        groups.assignment, config.nu, config.T, 0.0)
    assert [(s, A) for t in range(config.T) for s, A, _ in oracles.path_steps(path, t)] == \
        [(s, A) for s, A, _ in b_records]


# single-dataset fitters against the literal oracle ----------------------------


def _brute_inputs(bundles, model):
    """Rows, responses and weights of the stacked bundles as the oracle wants
    them: Kaplan-Meier jump weights over time-sorted rows for aft, 1/n for lr."""
    X = np.vstack([b.X for b in bundles])
    y = np.concatenate([b.y for b in bundles])
    if model == "lr":
        return X, y, np.full(y.size, 1.0 / y.size)
    delta = np.concatenate([b.delta for b in bundles])
    order = np.lexsort((1 - delta, y))
    return X[order], y[order], km_jump_weights(y[order], delta[order])


def _brute_single(bundles, groups, model, config):
    X, y, w = _brute_inputs(bundles, model)
    records, trace, _, _ = brute_cd_path([X], [y], [w], groups.assignment,
                                         config.nu, config.T, 0.0)
    return records, trace


def _replay_records(records, nu, p, t_stop):
    beta = np.zeros(p)
    for s, _, g in records[:t_stop]:
        beta[s] += nu * g
    return beta


@pytest.mark.parametrize("model, seed, T", [("lr", 10, 17), ("aft", 2, 15)])
def test_single_dataset_fitters_match_brute_force(model, seed, T, monkeypatch):
    """sboost, sep and int against the oracle run per dataset with M=1, pool
    against it on the stacked rows: the same (s, A) sequence, increments and
    traces to 1e-10, and t_hat and coefficients by each fitter's stopping
    rule.  Seed and T are such that the datasets stop at different
    iterations and the summed trace elsewhere than at the latest of them,
    so the stopping rules are told apart."""
    make = make_lr_bundles if model == "lr" else make_aft_bundles
    bundles = [b if m == 0 else DatasetBundle(X=b.X[: 25 + 6 * m], y=b.y[: 25 + 6 * m],
                                              delta=None if b.delta is None
                                              else b.delta[: 25 + 6 * m], id=m)
               for m, b in enumerate(make(np.random.default_rng(seed), M=3, n=40, p=6))]
    groups = tiny_groups(6, 2)
    config = BoostConfig(T=T, lam=0.4, model=model)
    paths = []
    real_path = boosting._path

    def recording_path(*args, **kwargs):
        paths.append(real_path(*args, **kwargs))
        return paths[-1]

    monkeypatch.setattr(boosting, "_path", recording_path)

    def check_steps(path, m, records):
        """Dataset m's steps on the path against the oracle's; returns them."""
        got = [next(step for step in oracles.path_steps(path, t) if step[1] == (m,))
               for t in range(config.T)]
        assert [s for s, _, _ in got] == [s for s, _, _ in records]
        assert all(A == (0,) for _, A, _ in records)
        for (_, _, g1), (_, _, g2) in zip(got, records):
            assert abs(g1 - g2) < 1e-10
        return got

    def check_beta(beta, got, records, t_stop):
        """Replaying the path's own steps gives the coefficients bit for bit;
        the oracle's steps give them to rounding."""
        assert np.array_equal(beta, _replay_records(got, config.nu, 6, t_stop))
        assert np.allclose(beta, _replay_records(records, config.nu, 6, t_stop),
                           rtol=0.0, atol=1e-12)

    brute = [_brute_single([b], groups, model, config) for b in bundles]
    stops = [int(np.argmin(trace)) + 1 for _, trace in brute]

    for m, (records, trace) in enumerate(brute):
        res = sboost_fit([bundles[m]], groups, config)
        got = check_steps(paths[-1], 0, records)
        assert np.allclose(res.objective_trace, trace, rtol=0.0, atol=1e-10)
        assert res.t_hat == stops[m]
        check_beta(res.beta_hat[:, 0], got, records, stops[m])

    summed = np.sum([trace for _, trace in brute], axis=0)
    shared = int(np.argmin(summed)) + 1
    assert len(set(stops)) > 1 and shared != max(stops)
    for fitter, t_stop, t_hat in ((sep_sboost_fit, stops, max(stops)),
                                  (int_sboost_fit, [shared] * 3, shared)):
        res = fitter(bundles, groups, config)
        for m, (records, _) in enumerate(brute):
            got = check_steps(paths[-1], m, records)
            check_beta(res.beta_hat[:, m], got, records, t_stop[m])
        assert np.allclose(res.objective_trace, summed, rtol=0.0, atol=1e-10)
        assert res.t_hat == t_hat

    records, trace = _brute_single(bundles, groups, model, config)
    res = pool_sboost_fit(bundles, groups, config)
    got = check_steps(paths[-1], 0, records)
    assert np.allclose(res.objective_trace, trace, rtol=0.0, atol=1e-10)
    assert res.t_hat == int(np.argmin(trace)) + 1
    for m in range(3):
        check_beta(res.beta_hat[:, m], got, records, res.t_hat)


def test_oracles_import_no_fitting_internals():
    """The reference code stays independent of what it checks: it imports
    nothing from the fitting modules and uses none of their helpers."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    forbidden = {"cdboost.boosting", "cdboost.losses", "cdboost.tuning"}
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracles"
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not {name for name in imported
                if any(name == f or name.startswith(f + ".") for f in forbidden)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"_split", "_unequal", "_nonempty_subsets"}


def test_reference_code_not_in_package():
    moved = ("Candidate", "candidate_set", "cd_objective", "commonality_penalty",
             "weighted_loss", "lr_loss", "aft_loss", "residuals",
             "optimal_increment_single", "optimal_increment_joint", "sparsity_term")
    for name in moved:
        assert not hasattr(cdboost, name)
        assert not hasattr(boosting, name) and not hasattr(losses, name)
    assert not hasattr(CoefficientState, "initial")
    assert not hasattr(boosting, "PenaltySpec")
    for name in ("_unequal_pairs", "_split_delta", "_class_containing",
                 "_check_starting_classes", "_single_sboost_fit", "_replay",
                 "_holds_blocks", "_columns", "_Support"):
        assert not hasattr(boosting, name)
    assert not hasattr(boosting._Path, "steps")
    for name in ("split_class", "partition_meet", "singleton_partitions",
                 "canonical_partition", "partition_labels", "block_partition"):
        assert not hasattr(cdboost.data, name)
    for name in ("gen_small_example", "true_covariance", "load_truth"):
        assert not hasattr(simulate, name)


def test_fit_dispatch_passes_its_arguments_on(lr_problem):
    """sboost refuses several datasets, a keyword argument only the cd
    fitter takes is an error for the others, not silently dropped, and int
    and sep refuse a path that is not a lockstep path."""
    bundles, groups = lr_problem
    with pytest.raises(ValidationError, match="sboost takes a single dataset"):
        fit(bundles, groups, BoostConfig(T=5, algorithm="sboost"))
    with pytest.raises(TypeError):
        fit(bundles, groups, BoostConfig(T=5, algorithm="sep_sboost"), verify_partitions=True)
    assert fit(bundles, groups, BoostConfig(T=5), verify_partitions=True).t_hat >= 1
    cd_path = _path(build_context(bundles, "lr"), groups, BoostConfig(T=5))
    with pytest.raises(ValidationError, match="not the lockstep path"):
        fit(bundles, groups, BoostConfig(T=5, algorithm="int_sboost"), path=cd_path)


# byte-identity of the path ------------------------------------------------------


def _sweep_bundles(model, M):
    """M datasets of 24 rows and nine covariates in which columns 4 and 8
    copy columns 1 and 7, so candidates tie in exact arithmetic; with odd M,
    column 2 of dataset 0 is zero, so some subsets have a zero denominator
    there.  The gemv need not give copied columns equal numerators: for lr
    with M=1 at iteration 6, SkylakeX gives columns 7 and 8 numerators one
    ulp apart and steps covariate 8, where Prescott and Sandybridge give
    equal ones and the tie-break steps 7."""
    make = make_lr_bundles if model == "lr" else make_aft_bundles
    out = []
    for b in make(np.random.default_rng(1000 + M), M=M, n=24, p=9):
        X = b.X.copy()
        X[:, 4], X[:, 8] = X[:, 1], X[:, 7]
        if M % 2 and b.id == 0:
            X[:, 2] = 0.0
        out.append(DatasetBundle(X=X, y=b.y, delta=b.delta, id=b.id))
    return out


def _sweep_runs(model, M):
    """Every lambda in {0, 0.5, 50}, both penalty modes, cd and lockstep,
    T=25, on ``_sweep_bundles``: (context, groups, config, lockstep)."""
    bundles = _sweep_bundles(model, M)
    with pytest.warns(UserWarning, match="zero-norm") if M % 2 else nullcontext():
        ctx = build_context(bundles, model)
    groups = tiny_groups(9, 3)
    for lam in (0.0, 0.5, 50.0):
        for mode in ("all_pairs", "ordered"):
            for lockstep in (False, True):
                yield ctx, groups, BoostConfig(T=25, lam=lam, penalty_mode=mode,
                                               model=model), lockstep


def _path_bytes(path):
    return (path.s.tobytes(), path.gamma.tobytes(), path.loss.tobytes(),
            path.sparsity.tobytes(), path.penalty.tobytes(), repr(path.partitions).encode())


# sha256 over the paths of ``_sweep_runs``; recorded before the leaner
# iteration, under OpenBLAS SkylakeX (the core the pytest header prints)
_PATH_SWEEP_SHA256 = {
    ("lr", 1): "4e90d54304e3caccf1a1eb32860a48eb11b0cedd0b889c98062dd79e5110deca",
    ("lr", 2): "9f03577e86befc5df831550fc50f0cb2fd8226dc372289b93f225cf2f9ddaf50",
    ("lr", 3): "5fe89a2a0f6b44ca72373a4373d403378fefd9e090b2dd942ba2f97b326498d3",
    ("lr", 4): "fe3ec755843654c4834523ebd7ea5f4b3eb342b01c36adfca302b9eba115b8b1",
    ("lr", 5): "386aa1de58a1fe87931724718e97d51bc567c652c7e8ffe1feda9bc987a53702",
    ("lr", 6): "191e7cd01649b2a97434f86a7a671bb3f7cf2d36dd8c44f8e6350874f105be42",
    ("aft", 1): "b2ade63b302e1537996ea72a3522bd7abc87f8df82dca42ce15c4175de6656f8",
    ("aft", 2): "0e0b58fe6410d67b541f6ac595781489e793ab3eab7a04524a0c831e085aa24f",
    ("aft", 3): "1a6dfaa8389eb10846f2a55f3957c607fdcd9b74ec283061ab9b17716ece49f7",
    ("aft", 4): "5d7c1494c6a5ec3da5774381bd98e431ae0d3c688d47179a9ca1270235b68dfa",
    ("aft", 5): "53727f6538d4636b207c769ecf7e526c1e8632a836cbeb722133aeee7da075a1",
    ("aft", 6): "eda37c36e014118e59c84eb8cfdbec58d5455b1ba5d2808033711efb22513d20",
    # M = 8...10, where the subset sums ``ind @ numer`` need not equal
    # member-order sums; recorded before the path wrote its (S, p) tables
    # into preallocated buffers
    ("lr", 8): "fd41e261cf5bed4247f0addac971baa19215f6fd182203e5498961f14a8b16ae",
    ("lr", 9): "1611c524fb8e29a4a9b7a51ec4104e2491cc7b26c63515a9fd56c559aa6b0564",
    ("lr", 10): "78976ab83aed1fd150889a2f32a3777afb4c81532e46ca864bb9170e4a95dfe4",
    ("aft", 8): "c7b36aeb561be6898444f1b6df1a647d945e68e041f3a5b4a795bd916c0b6a5f",
    ("aft", 9): "2ab5d4e492e7167fe473dd381951954bdd7839d7bc43b5eb11394e8681f9d1c0",
    ("aft", 10): "a49c992ecccb81c7adef3c5dd9c293fbab9c633b592245e005797ae5e60a982a",
}

# sha256 over only the covariates stepped (``path.s``) and the final classes
# of the same paths, recorded under SkylakeX; the same under Haswell and Zen
_PATH_SWEEP_SELECTIONS_SHA256 = {
    ("lr", 1): "533f078cc29efb69d61ca008dfa8f35f67d9d6db5b88f41a4e3628925e87ab87",
    ("lr", 2): "70980bbc67c9f8069d2a3356acff8cec086a03f07a9b119ff58986241b82cdba",
    ("lr", 3): "5abaf606b1b972187a9b48758c12b4104506064ff93448d6929e7701957eb438",
    ("lr", 4): "49e926c857c860534de2cb55f96e658ccbc439d9c4ed032b9cad12c161f3d882",
    ("lr", 5): "a9b01b0164ee8969ddce6c287be213f292a7f61f135e8f141f1deb13f0f47b52",
    ("lr", 6): "a5bc232c78fac7883a017e2361d541d612fd3ab5f65a1c1a27f5e7785ea7295e",
    ("aft", 1): "59f4d8b555269513b832cb259239d40b4057ce12285cfcd13f829f91cac1e4f4",
    ("aft", 2): "8c0d7112c3942c2a6557c62584512f20123fcde3bcf30e78208c64417445f42c",
    ("aft", 3): "b581733218db3d35057c2b7b614ec2064dcaee67edcb87d72bc083a1fa490c52",
    ("aft", 4): "e544612a8f21b0444fe5fe3392262bf4797033567042dc1b255467bb8af5a694",
    ("aft", 5): "7592ee258d7f2e40fd79d7c5a26715092f428e662e864ff5e22656251270f806",
    ("aft", 6): "770fb2a6415883104dcbb5db45287762b04848fbc50726366d65b63d3bf67ff4",
}


@pytest.mark.parametrize("M", [*range(1, 7), 8, 9, 10])
@pytest.mark.parametrize("model", ["lr", "aft"])
def test_path_sweep_bytes_pinned(model, M):
    """The pinned bytes, and every cd path run with ``verify_partitions``
    equal to the unchecked one: the check passes through exact ties, zero
    denominators, both penalty modes and lambda up to 50, and moves no bit."""
    digest = hashlib.sha256()
    for ctx, groups, config, lockstep in _sweep_runs(model, M):
        got = _path_bytes(_path(ctx, groups, config, lockstep=lockstep))
        for b in got:
            digest.update(b)
        if not lockstep:
            assert _path_bytes(_path(ctx, groups, config, verify_partitions=True)) == got
    assert digest.hexdigest() == _PATH_SWEEP_SHA256[model, M], pin_message()


@pytest.mark.parametrize("M", range(1, 7))
@pytest.mark.parametrize("model", ["lr", "aft"])
def test_path_sweep_selections_pinned(model, M):
    """The selection-level twin of the byte pin, which holds under more
    OpenBLAS cores: no increment, loss or trace bit enters it."""
    digest = hashlib.sha256()
    for ctx, groups, config, lockstep in _sweep_runs(model, M):
        path = _path(ctx, groups, config, lockstep=lockstep)
        digest.update(path.s.tobytes())
        digest.update(repr(path.partitions).encode())
    assert digest.hexdigest() == _PATH_SWEEP_SELECTIONS_SHA256[model, M], pin_message()


def _split_sweep_paths(model, M):
    """cd paths with ``verify_partitions``, T=120, lambda in {0, 0.3}, both
    penalty modes, one and two groups, on M datasets of 30 rows and six
    covariates, each dataset with a signal of its own on every covariate
    (for aft about a quarter of the rows censored).  Their classes split in
    every group, so some subsets come to lie inside no class of any group
    and stay in the candidate table as rows that never win."""
    rng = np.random.default_rng(2000 + M)
    bundles = []
    for m in range(M):
        X = standardize_columns(rng.standard_normal((30, 6)))
        y = X @ rng.uniform(-3.0, 3.0, 6) + 0.3 * rng.standard_normal(30)
        delta = None if model == "lr" else (rng.random(30) < 0.75).astype(int)
        bundles.append(DatasetBundle(X=X, y=y, delta=delta, id=m))
    ctx = build_context(bundles, model)
    for K in (1, 2):
        for lam in (0.0, 0.3):
            for mode in ("all_pairs", "ordered"):
                config = BoostConfig(T=120, lam=lam, penalty_mode=mode, model=model)
                path = _path(ctx, tiny_groups(6, K), config, verify_partitions=True)
                assert any(not any(set(A) <= set(c) for part in path.partitions for c in part)
                           for size in range(2, M + 1)
                           for A in itertools.combinations(range(M), size))
                yield path


# sha256 over the paths of ``_split_sweep_paths``, recorded when every split
# rebuilt the candidate table without the subsets it left inside no class,
# under SkylakeX
_SPLIT_SWEEP_SHA256 = {
    ("lr", 2): "39c5339056fa836b28bbb1f29cd0e1f37128914b87b78c4d96bb0265b3c09bc4",
    ("lr", 3): "548260934bf9ebc061f89ccc208c8a7ae90f223ae9a1f87eea4cb2bd794d8792",
    ("lr", 4): "228a70aa997191e892a4c8160cab72b261fcef947836cb0cd6ea291d5b4036f2",
    ("lr", 5): "ed0c86b140512c2e6b73370c6bde17b9eb3106d49bb41973d3c557ecdb447ccf",
    ("lr", 6): "4fd51a60c60e67e257cfe98050e93c7abfd00410a8921dbda55e9530b51ea552",
    ("lr", 8): "71171b329a7c913240e16cf2ab836d855c3a7b0e1d84b31fc0b103e8c0cf9dc1",
    ("lr", 9): "158f8d0559d9767b0d40673e0354204cce2398d8ca2dc6c42f4babbd39b9bcaa",
    ("lr", 10): "44d385bc0cfeb34f17418bbc05c7e7c60c5b55a2cef9a02cc30c9938b7cb3fbb",
    ("aft", 2): "2496c4779c9cd0b2d90e01728220184f990be01165aa48c1163735ad15df4f87",
    ("aft", 3): "f074ad13f2fab13978acb01886200ac88206f7d03bd9769a816e10ed60a28424",
    ("aft", 4): "abda85bc7316eaf731a0dae33bd973324e87630fd3281b0b6014dd8f451d6663",
    ("aft", 5): "08d979a636920dfebfe1b5c692ca394a98a0f27377080ec437c9748432b4f4d7",
    ("aft", 6): "90af3b56c3dba5e6f5af572586e10542b8bcbf0df5de122153d28a729f4b06ce",
    ("aft", 8): "784ec8e67705e21bbc1775eb37c0aacc88796d21f7638cad882da9caa0ada202",
    ("aft", 9): "34dbee64a11757673e3a501ff3027a956b4f5169d16e1ece02c6bdfd96e090d2",
    ("aft", 10): "f3e4757a902dc55423fb8fb0cce9de9fa36644e0d8fa4c0a802c313770f75e05",
}

# sha256 over only the covariates stepped and the final classes of the same
# paths, recorded under SkylakeX; the same under Haswell and Zen
_SPLIT_SWEEP_SELECTIONS_SHA256 = {
    ("lr", 2): "d61ab0d2185edb05eb0ac35dc000be371b16ee13199218ed8653cf617be223b6",
    ("lr", 3): "1c6f4e15f80eff0fdf843056b09737aea7c9d2647720ff99ce4498a43d899f99",
    ("lr", 4): "c24de6aad504e31ac6df3cd452f4c894f5a08231e4ff0776150ef87fc1920dcd",
    ("lr", 5): "035a9aa1f0dc00e497de9ec0d45e0123c15134411493fdd73dd35c261a20dea2",
    ("lr", 6): "f0c0f58c7aef8c4307ffa4eaa75143e08a7ad55868801798c5e44a332a9b5a9a",
    ("lr", 8): "2fbce428295862741df85277fbe74db7f705a3c9c4824f0efb71a7ae5e6fd81f",
    ("lr", 9): "657c4cfdb42991941a63969e85b0abc51497d9115978a0c99b3414c1628bc08b",
    ("lr", 10): "c6a0f0e55eaf40db1fd8590d4fb07c5b247bab4853bd209b9f085f5921d30e94",
    ("aft", 2): "55725b951dca977e23085f3acb994c6c515989f590a523e3187aadefad886e0a",
    ("aft", 3): "531e33d82d1344a6a4412a3cbc3d09dec6d112bde626e3d85fe52f4becaa55c5",
    ("aft", 4): "7c80ef9f291665d05866f336a14487141d428537fff30a258ec0e318afea9198",
    ("aft", 5): "63804c6fac6fc6b17e92dfb31bbbfe93a24c8bfd3adb83f5b596818613651877",
    ("aft", 6): "ae483a7d1487596306a3afc1af95b04ef4e4211c9bab9525fdbdb1f7b4b5907e",
    ("aft", 8): "0da3d63e33a64e53b78967c57e5bc438a252c0061b6033a0ec971f43c399d3f5",
    ("aft", 9): "9e70a3547de1126f20fda9e3a13cd71121d2ec07dcef298584e17d0f731456eb",
    ("aft", 10): "f8157e8f919fbae9110e2c671039bd8a90eb832b21424bceebef06f8c1720fab",
}


@pytest.mark.parametrize("M", [*range(2, 7), 8, 9, 10])
@pytest.mark.parametrize("model", ["lr", "aft"])
def test_split_sweep_bytes_pinned(model, M):
    """Paths whose splits leave subsets inside no class of any group keep
    their pinned bytes."""
    digest = hashlib.sha256()
    for path in _split_sweep_paths(model, M):
        for b in _path_bytes(path):
            digest.update(b)
    assert digest.hexdigest() == _SPLIT_SWEEP_SHA256[model, M], pin_message()


@pytest.mark.parametrize("M", [*range(2, 7), 8, 9, 10])
@pytest.mark.parametrize("model", ["lr", "aft"])
def test_split_sweep_selections_pinned(model, M):
    """The selection-level twin of the split sweep byte pin."""
    digest = hashlib.sha256()
    for path in _split_sweep_paths(model, M):
        digest.update(path.s.tobytes())
        digest.update(repr(path.partitions).encode())
    assert digest.hexdigest() == _SPLIT_SWEEP_SELECTIONS_SHA256[model, M], pin_message()


def _pinned_fit_bundles(model):
    """Three datasets of 30 rows, 24 covariates and a weak two-covariate
    signal; for aft the same rows with about 30% of them censored."""
    rng = np.random.default_rng(17)
    bundles = make_lr_bundles(rng, M=3, n=30, p=24, scale=0.5)
    if model == "lr":
        return bundles
    return [DatasetBundle(X=b.X, y=b.y, delta=(rng.random(b.n) < 0.7).astype(int), id=b.id)
            for b in bundles]


# sha256 over every field of the FitResult of each algorithm through ``fit``,
# lambda 0.2, nu 0.5, T=150; every stop falls below T; recorded before the
# fitters shared one stop helper, under SkylakeX
_FIT_SHA256 = {
    ("lr", "sboost"): "fa4b7874e53e60ed5fb2a8650fdf72af6e86162bc1f5e622effc19e0aa25b2b4",
    ("lr", "sep_sboost"): "b95ca3c84f3ace69d98e34af5af23e992affc8a330b32544b451cd4d8dd26f37",
    ("lr", "int_sboost"): "d434294c5acedfb5c70ab9543ac361758a42c482c4ff4596023cb39a467ebe8d",
    ("lr", "pool_sboost"): "8f77058176a802382e26ad2e0f0461c0e1e5de1dd2368ad94bfd44390943fe48",
    ("lr", "cd_sboost"): "e7d9466d77048ff4eb3765fad3ee09beda9cccda8c4d3b8d654d187cb370bdf2",
    ("aft", "sboost"): "47e08fe65e8f93335a9947b69adc22a2b54b5c23b074f4e5cd4e265ce9caf03b",
    ("aft", "sep_sboost"): "ab7e63a8f12c9696802355f88f1ada67f891ce33dc971cd59729ec83a03902c5",
    ("aft", "int_sboost"): "71eef118419f29f5ae5ce1a454a97fffe7180a55c0173e8247ca784f6074503e",
    ("aft", "pool_sboost"): "d0da45d17d3e94351157e58ce0fd1e3d2a54be0de31d51a7f127b87b61684a1a",
    ("aft", "cd_sboost"): "77852e426048edd17cc832f1f57c3a9a487d631820fee5d913d8f52600020c39",
}


@pytest.mark.parametrize("algorithm", ["sboost", "sep_sboost", "int_sboost", "pool_sboost",
                                       "cd_sboost"])
@pytest.mark.parametrize("model", ["lr", "aft"])
def test_fit_result_bytes_pinned(model, algorithm):
    bundles = _pinned_fit_bundles(model)
    config = BoostConfig(T=150, lam=0.2, nu=0.5, model=model, algorithm=algorithm)
    res = fit(bundles[:1] if algorithm == "sboost" else bundles, tiny_groups(24, 4), config)
    assert res.t_hat < config.T
    digest = hashlib.sha256(repr(fit_bytes(res)).encode()).hexdigest()
    assert digest == _FIT_SHA256[model, algorithm], pin_message()

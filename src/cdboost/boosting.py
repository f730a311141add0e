"""Componentwise sparse boosting, separately and across multiple datasets.

One engine, ``_path``, runs every fitter.  Each iteration it scores every
covariate s against every candidate dataset subset A -- a non-empty subset of
one equality class of s's group, datasets in a class holding identical
coefficient blocks -- with the shared closed-form increment over A and the
change of the objective: loss + BIC-type sparsity term + commonality penalty
(lam times the fraction of (group, dataset-pair) blocks that differ).
Applying an increment to a proper subset of a class splits the class;
classes never merge.  The path holds each group's classes as one label row
(entry m is the smallest dataset in m's class): ``_split`` is the split
rule, and ``_unequal`` counts differing pairs, both for the penalty trace
and, on every candidate's split-off row at once, for the split costs of
``_SubsetTasks``.  A fitter's kind sets its starting classes and which
candidates step; the fitters also differ in where they stop.  The cd and
lockstep fitters report the classes at their stop from the coefficients, by
exact block comparison (``data.block_partitions``):

* ``cd_sboost_fit``   -- all datasets start in one class per group; each
  iteration the single best candidate steps; stops at the first argmin of
  the summed objective trace.
* ``sep_sboost_fit``  -- the lockstep path: every dataset is its own class
  (no penalty), and each iteration every dataset steps with its own best
  covariate: M independent single-dataset paths.  Each dataset stops at
  the argmin of its own trace.
* ``int_sboost_fit``  -- the same paths, one shared stop at the argmin of the
  summed trace.
* ``sboost_fit``      -- one dataset: the M=1 case of the separate fit.
* ``pool_sboost_fit`` -- all rows concatenated into one dataset, fit by
  ``sboost_fit``, the coefficient vector broadcast to every dataset.

All selections are deterministic: objective ties are broken toward the
largest dataset subset, then the smallest covariate index, then the
lexicographically smallest subset.
"""

import itertools
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .data import (
    BoostConfig,
    DatasetBundle,
    FitResult,
    GroupStructure,
    Partition,
    ValidationError,
    all_common_partition,
    block_labels,
    block_partitions,
    label_classes,
    validate,
)
from .losses import LossContext, build_context, survival_order


def _split(labels: list[list[int]], k: int, A: tuple[int, ...], g: float) -> bool:
    """Split A off its class in group k's label row when the increment g is
    nonzero and A is a proper subset of the class; return whether it split.

    A lies inside one class, as every candidate does.  Its members take the
    label A[0] and the rest of the class its smallest remaining member, so
    the row stays canonical.
    """
    row = labels[k]
    c = row[A[0]]
    if g == 0.0 or len(A) == row.count(c):
        return False
    rest = [m for m, label in enumerate(row) if label == c and m not in A]
    for m in A:
        row[m] = A[0]
    for m in rest:
        row[m] = rest[0]
    return True


def _unequal(labels, mode: str) -> np.ndarray:
    """Counted dataset pairs whose labels differ, per label row (datasets on
    the last axis): all pairs, or the adjacent ones under ``ordered``."""
    labels = np.asarray(labels)
    if mode == "ordered":
        return np.count_nonzero(labels[..., 1:] != labels[..., :-1], axis=-1)
    return np.count_nonzero(labels[..., :, None] != labels[..., None, :], axis=(-2, -1)) // 2


def _nonempty_subsets(cls: tuple[int, ...]):
    """Non-empty subsets of a class, largest first, then lexicographic."""
    for size in range(len(cls), 0, -1):
        yield from itertools.combinations(cls, size)


class _SubsetTasks:
    """Candidate subsets of the current classes, in vectorized form.

    A subset A is a candidate for covariate s when A lies inside one
    equality class of s's group; splitting a proper superclass raises the
    penalty by pen_scale times the number of newly differing pairs.  With M
    datasets there are at most 2^M - 1 distinct subsets, ordered largest
    first then lexicographic (the tie-break order).

    Within-class invariant: datasets of one equality class hold identical
    coefficient blocks, so wherever A is a candidate for s, beta[s, m] is
    the same for every m in A.  The sparsity change of a candidate is then
    that of A's first member (``first``) times A's summed penalty factors
    (``pf_sum``); no (subset, covariate, dataset) array is needed.  Rebuilt
    only when a class splits.
    """

    def __init__(self, labels, assignment, col_norms, pf, mode, pen_scale):
        classes = {tuple(m for m, c in enumerate(row) if c == label)
                   for row in labels for label in set(row)}
        self.subsets = sorted(
            {A for c in classes for A in _nonempty_subsets(c)},
            key=lambda A: (-len(A), A),
        )
        labels = np.asarray(labels)                 # (K, M)
        S, M = len(self.subsets), labels.shape[1]
        self.ind = np.zeros((S, M))
        self.ind[np.repeat(np.arange(S), [len(A) for A in self.subsets]),
                 list(itertools.chain.from_iterable(self.subsets))] = 1.0
        self.first = np.array([A[0] for A in self.subsets])
        inA = self.ind[:, None, :] > 0              # (S, 1, M)
        # A is a candidate in group k when it lies inside one class there;
        # its split cost counts the pairs that relabelling A apart adds
        valid = ((labels == labels[:, self.first].T[:, :, None]) | ~inA).all(axis=2)
        split = np.where(inA, -1, labels)           # (S, K, M)
        dsplit = pen_scale * np.where(valid, _unequal(split, mode) - _unequal(labels, mode), 0)
        self.pf_sum = self.ind @ pf                 # (S,)
        self.denA = self.ind @ col_norms            # (S, p)
        self.okA = self.denA > 0
        self.invalid_sp = ~valid[:, assignment]     # (S, p)
        self.any_invalid = bool(self.invalid_sp.any())
        self.dsplit_sp = dsplit[:, assignment]


def _sparsity_change(tasks: _SubsetTasks, coef: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Sparsity-term change of every tentative update, shape (S, p).

    ``coef`` is the (M, p) coefficient matrix and ``gamma`` the (S, p)
    unscaled increments.  Exact wherever the subset is a candidate for the
    covariate (see ``_SubsetTasks``); other entries are masked by the caller.
    """
    b0 = coef[tasks.first]                          # (S, p)
    dnnz = ((b0 + gamma) != 0).astype(float) - (b0 != 0)
    dnnz *= tasks.pf_sum[:, None]
    return dnnz


class _Path(NamedTuple):
    """What ``_path`` returns; iteration t is row t of the step arrays and
    column t of the traces.  Steps live in arrays rather than one Python
    tuple each, which would cost about five times the memory over the M * T
    steps of a lockstep path."""

    subsets: list             # per iteration, the candidate subsets scored
    rows: np.ndarray          # (T, R) stepping rows of those subsets
    s: np.ndarray             # (T, R) covariate of each step
    gamma: np.ndarray         # (T, R) unscaled increment of each step
    loss: np.ndarray          # (M, T) loss of each dataset after each iteration
    sparsity: np.ndarray      # (M, T) sparsity term of each dataset
    penalty: np.ndarray       # (T,) commonality penalty
    partitions: list[Partition]  # per-group classes after iteration T

    def steps(self, t):
        """The (s, A, gamma) updates of iteration t, in the order applied."""
        subsets = self.subsets[t]
        return [(s, subsets[i], g) for i, s, g in
                zip(self.rows[t].tolist(), self.s[t].tolist(), self.gamma[t].tolist())]


def _path(ctx: LossContext, groups: GroupStructure, config: BoostConfig,
          verify_partitions=False, lockstep=False) -> _Path:
    """Greedy boosting path over all T iterations.

    Each iteration scores every candidate (covariate, subset) pair.  By
    default every group starts with all datasets in one class and the single
    best candidate steps.  With ``lockstep`` every dataset starts in a class
    of its own, which never splits, and each dataset steps with its own best
    covariate: M independent single-dataset paths in lockstep.  Each
    candidate subset lies inside one equality class of its covariate's
    group, which is what makes the per-subset sparsity term of
    ``_SubsetTasks`` exact.  The penalty counts all dataset pairs, or the
    adjacent ones under ``ordered``.

    ``verify_partitions`` checks the all-common path: after every step, and
    again after the loop, the tracked classes must equal exact block
    comparison of the coefficients, or ``AssertionError`` is raised.
    """
    M, p, K = ctx.M, ctx.p, groups.K
    nu, T, lam, mode = config.nu, config.T, config.lam, config.penalty_mode
    assignment = groups.assignment
    pf = np.asarray(ctx.penalty_factor)
    col_norms = np.vstack(ctx.col_norms)
    normalizer = (M - 1) * K if mode == "ordered" else M * (M - 1) // 2 * K
    pen_scale = lam / normalizer if normalizer > 0 else 0.0

    # one list per group, as _split edits the rows in place
    labels = [list(range(M)) if lockstep else [0] * M for _ in range(K)]
    unequal = int(_unequal(labels, mode).sum())
    coef = np.zeros((M, p))          # beta transposed: one row per dataset
    nnz = [0] * M                    # running nonzero count per dataset
    resid = [ctx.y[m].astype(float).copy() for m in range(M)]
    numer = np.vstack([ctx.X[m].T @ (ctx.weights[m] * resid[m]) for m in range(M)])

    tasks = _SubsetTasks(labels, assignment, col_norms, pf, mode, pen_scale)
    R = len(tasks.subsets) if lockstep else 1
    subsets = []
    rows = np.empty((T, R), dtype=np.int64)
    s_steps = np.empty((T, R), dtype=np.int64)
    g_steps = np.empty((T, R))
    loss = np.empty((M, T))
    sparsity = np.empty((M, T))
    penalty = np.empty(T)
    group_idx = [groups.indices(k) for k in range(K)] if verify_partitions else None

    for t in range(T):
        numA = tasks.ind @ numer                                    # (S, p)
        gamma = np.divide(numA, tasks.denA, out=np.zeros(numA.shape),
                          where=tasks.okA)
        dobj = -gamma * numA + 0.5 * gamma * gamma * tasks.denA
        dobj += _sparsity_change(tasks, coef, gamma)
        if pen_scale > 0.0:
            np.add(dobj, tasks.dsplit_sp, out=dobj, where=gamma != 0)
        if tasks.any_invalid:
            dobj[tasks.invalid_sp] = np.inf

        js = dobj.argmin(axis=1).tolist()  # per subset: first minimum, smallest s
        candidates = tasks.subsets
        if lockstep:
            stepping = range(R)
        else:   # ties: largest subset, then smallest s, then smallest subset
            stepping = [min(range(len(candidates)), key=lambda i: (
                float(dobj[i, js[i]]), -len(candidates[i]), js[i], candidates[i]))]
        subsets.append(candidates)

        for r, i in enumerate(stepping):
            s_hat, A_hat, g_hat = js[i], candidates[i], float(gamma[i, js[i]])
            rows[t, r], s_steps[t, r], g_steps[t, r] = i, s_hat, g_hat
            k_hat = int(assignment[s_hat])
            if _split(labels, k_hat, A_hat, g_hat):
                unequal = int(_unequal(labels, mode).sum())
                tasks = _SubsetTasks(labels, assignment, col_norms, pf, mode, pen_scale)
            step = nu * g_hat
            for m in A_hat:
                was_nonzero = coef[m, s_hat] != 0
                coef[m, s_hat] += step
                nnz[m] += int(coef[m, s_hat] != 0) - int(was_nonzero)
                resid[m] -= step * ctx.X[m][:, s_hat]
                numer[m] = ctx.X[m].T @ (ctx.weights[m] * resid[m])
            # only group k_hat changed; untouched groups agree by induction,
            # and the full state is re-checked after the loop
            if verify_partitions and labels[k_hat] != block_labels(
                    coef[:, group_idx[k_hat]].T):
                raise AssertionError(
                    f"iteration {t + 1}: tracked partition of group {k_hat} "
                    f"diverged from element-wise comparison"
                )

        for m in range(M):
            loss[m, t] = 0.5 * float(ctx.weights[m] @ (resid[m] * resid[m]))
            sparsity[m, t] = pf[m] * nnz[m]
        penalty[t] = lam * unequal / normalizer if normalizer > 0 else 0.0

    if verify_partitions and labels != [block_labels(coef[:, idx].T) for idx in group_idx]:
        raise AssertionError(
            "final state: tracked partitions diverged from element-wise "
            "comparison"
        )
    return _Path(subsets, rows, s_steps, g_steps, loss, sparsity, penalty,
                 [label_classes(row) for row in labels])


def _replay(path: _Path, nu, p, t_stop):
    """Coefficients after the first ``t_stop[m]`` iterations for dataset m."""
    beta = np.zeros((p, len(t_stop)))
    for t in range(max(t_stop)):
        for s, A, g in path.steps(t):
            for m in A:
                if t < t_stop[m]:
                    beta[s, m] += nu * g
    return beta


def _first_argmin(trace) -> int:
    """Selected iteration (1-based): first minimum of the trace."""
    return int(np.argmin(trace)) + 1


def _lockstep_fit(bundles, groups: GroupStructure, config: BoostConfig,
                  shared_stop: bool) -> FitResult:
    """Independent single-dataset paths of every dataset, run as one path.

    Each dataset stops at the first argmin of its own objective trace (loss +
    sparsity term) or, with ``shared_stop``, all at that of the summed trace.
    """
    bundles = list(bundles)
    validate(bundles, groups, config.model)
    ctx = build_context(bundles, config.model)
    path = _path(ctx, groups, replace(config, lam=0.0), lockstep=True)
    objective = path.loss + path.sparsity
    total = np.sum(objective, axis=0)
    if shared_stop:
        t_stop = [_first_argmin(total)] * ctx.M
    else:
        t_stop = [_first_argmin(trace) for trace in objective]
    beta = _replay(path, config.nu, ctx.p, t_stop)
    return FitResult(
        beta_hat=beta,
        t_hat=max(t_stop),
        partitions=block_partitions(beta, groups),
        objective_trace=total,
        loss_trace=np.sum(path.loss, axis=0),
    )


def sep_sboost_fit(bundles, groups: GroupStructure, config: BoostConfig) -> FitResult:
    """Fit every dataset separately (its own stopping point); combine columns."""
    return _lockstep_fit(bundles, groups, config, shared_stop=False)


def int_sboost_fit(bundles, groups: GroupStructure, config: BoostConfig) -> FitResult:
    """Integrative variant: independent per-dataset steps, one shared t-hat
    minimizing the summed objective trace."""
    return _lockstep_fit(bundles, groups, config, shared_stop=True)


def sboost_fit(bundle: DatasetBundle, groups: GroupStructure, config: BoostConfig) -> FitResult:
    """Sparse boosting on a single dataset: per step the (covariate,
    increment) pair minimizing loss + sparsity term; stops at the trace
    argmin."""
    return sep_sboost_fit([bundle], groups, config)


def _pooled_bundle(bundles) -> DatasetBundle:
    """All datasets' rows as one bundle.  LR stacks them in dataset order.
    AFT writes each dataset's rows once, straight to their places in the
    ``survival_order`` of the stacked rows, which ``build_context`` sorts
    them in too; it then finds them sorted and makes no second copy."""
    y = np.concatenate([b.y for b in bundles])
    if bundles[0].delta is None:
        return DatasetBundle(X=np.vstack([b.X for b in bundles]), y=y, id=0)
    delta = np.concatenate([b.delta for b in bundles])
    order = survival_order(y, delta)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    X = np.empty((y.size, bundles[0].p))
    start = 0
    for b in bundles:
        X[rank[start:start + b.n]] = b.X
        start += b.n
    return DatasetBundle(X=X, y=y[order], delta=delta[order], id=0)


def pool_sboost_fit(bundles, groups: GroupStructure, config: BoostConfig) -> FitResult:
    """Row-concatenate all datasets, fit once, broadcast the coefficients."""
    bundles = list(bundles)
    validate(bundles, groups, config.model)
    M = len(bundles)
    single = sboost_fit(_pooled_bundle(bundles), groups, config)
    beta = np.repeat(single.beta_hat, M, axis=1)
    return FitResult(
        beta_hat=beta,
        t_hat=single.t_hat,
        partitions=[all_common_partition(M)] * groups.K,
        objective_trace=single.objective_trace,
        loss_trace=single.loss_trace,
    )


def cd_sboost_fit(
    bundles,
    groups: GroupStructure,
    config: BoostConfig,
    verify_partitions: bool = False,
) -> FitResult:
    """Joint fit identifying commonality and difference across datasets.

    Every group starts with all datasets in one class.  Per iteration every
    covariate contributes candidates (single-dataset and shared within-class
    increments); the global objective (loss + sparsity + commonality
    penalty) picks one, the update is applied to all datasets of the chosen
    subset simultaneously, and the containing equality class splits when
    the subset is proper.  With one dataset this reduces exactly to
    ``sboost_fit``.

    ``partitions`` are the classes at ``t_hat``, read off ``beta_hat`` by
    exact block comparison; ``final_partitions`` are the tracked classes
    after iteration T.  ``verify_partitions`` cross-checks the tracked
    classes at every iteration against exact block comparison of the
    coefficients.
    """
    bundles = list(bundles)
    validate(bundles, groups, config.model)
    ctx = build_context(bundles, config.model)
    path = _path(ctx, groups, config, verify_partitions)
    loss = sum(path.loss)
    trace = loss + sum(path.sparsity) + path.penalty
    t_hat = _first_argmin(trace)
    beta = _replay(path, config.nu, ctx.p, [t_hat] * ctx.M)
    return FitResult(beta_hat=beta, t_hat=t_hat, partitions=block_partitions(beta, groups),
                     objective_trace=trace, loss_trace=loss, final_partitions=path.partitions)


def _single_sboost_fit(bundles, groups: GroupStructure, config: BoostConfig) -> FitResult:
    if len(bundles) > 1:
        raise ValidationError("sboost takes a single dataset; use sep-sboost")
    return sep_sboost_fit(bundles, groups, config)


_FITTERS = {
    "sboost": _single_sboost_fit,
    "sep_sboost": sep_sboost_fit,
    "int_sboost": int_sboost_fit,
    "pool_sboost": pool_sboost_fit,
    "cd_sboost": cd_sboost_fit,
}


def fit(bundles, groups: GroupStructure, config: BoostConfig, **kwargs) -> FitResult:
    """Dispatch to the algorithm named in the config; keyword arguments go to
    that fitter (only ``cd_sboost_fit`` takes any)."""
    return _FITTERS[config.algorithm](list(bundles), groups, config, **kwargs)

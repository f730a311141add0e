"""Componentwise sparse boosting, separately and across multiple datasets.

Four fitting strategies share one per-step building block (the closed-form
single-covariate increment of the loss module):

* ``sboost_fit``      -- one dataset; per step the (covariate, increment)
  pair minimizing loss + a BIC-type sparsity term; stops at the trace argmin.
* ``sep_sboost_fit``  -- each dataset fit separately, results combined.
* ``int_sboost_fit``  -- each dataset steps independently per iteration but
  all share one selected number of iterations (argmin of the summed trace).
* ``cd_sboost_fit``   -- all increments determined simultaneously.  Datasets
  whose coefficient block for the covariate's group is currently identical
  may receive one shared increment (any non-empty subset of such an equality
  class); the objective adds a commonality penalty counting, per group and
  dataset pair, blocks that differ.  Applying a shared increment to a proper
  subset of a class splits it; classes never merge.
* ``pool_sboost_fit`` -- all rows concatenated into one dataset, single
  coefficient vector broadcast to every dataset.

All selections are deterministic: objective ties are broken toward the
largest dataset subset, then the smallest covariate index, then the
lexicographically smallest subset.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .data import (
    BoostConfig,
    CoefficientState,
    DatasetBundle,
    FitResult,
    GroupStructure,
    Partition,
    all_common_partition,
    block_partition,
    canonical_partition,
    partition_refresh,
    split_class,
    validate,
)
from .losses import LossContext, build_context, optimal_increment_joint, weighted_loss


@dataclass(frozen=True)
class Candidate:
    """One tentative update: covariate s, dataset subset A, shared increment."""

    s: int
    A: tuple[int, ...]
    gamma: float
    objective: float | None = None


@dataclass(frozen=True)
class PenaltySpec:
    """Commonality penalty parameters.

    The penalty is lam times the fraction of (group, dataset-pair) blocks
    that differ, pairs being all unordered pairs (``all_pairs``) or the
    adjacent pairs of a naturally ordered dataset sequence (``ordered``).
    It therefore lies in [0, lam]: 0 when every group behaves the same in
    all datasets, lam when every group differs in every counted pair.
    """

    lam: float
    M: int
    K: int
    mode: str = "all_pairs"

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.mode not in ("all_pairs", "ordered"):
            raise ValueError(f"unknown penalty mode {self.mode!r}")

    @property
    def normalizer(self) -> int:
        if self.mode == "ordered":
            return (self.M - 1) * self.K
        return self.M * (self.M - 1) // 2 * self.K


def _unequal_pairs(partition: Partition, M: int, mode: str) -> int:
    """Counted dataset pairs whose blocks differ under this partition."""
    if mode == "ordered":
        cls = {}
        for i, c in enumerate(partition):
            for m in c:
                cls[m] = i
        return sum(1 for m in range(M - 1) if cls[m] != cls[m + 1])
    same = sum(len(c) * (len(c) - 1) // 2 for c in partition)
    return M * (M - 1) // 2 - same


def _split_delta(cls: tuple[int, ...], A: tuple[int, ...], mode: str) -> int:
    """Increase in unequal pairs when class ``cls`` splits into A and cls\\A."""
    if mode == "ordered":
        inA = set(A)
        incls = set(cls)
        return sum(
            1
            for m in cls
            if m + 1 in incls and (m in inA) != (m + 1 in inA)
        )
    return len(A) * (len(cls) - len(A))


def _class_containing(partition: Partition, A: tuple[int, ...]) -> tuple[int, ...]:
    for c in partition:
        if A[0] in c:
            return c
    raise ValueError(f"no class contains {A}")


def commonality_penalty(state: CoefficientState, spec: PenaltySpec) -> float:
    """lam * (number of differing (group, pair) blocks) / normalizer.

    Computed from the tracked partitions, never from float comparison.
    Defined as 0 for a single dataset.
    """
    if spec.M <= 1:
        return 0.0
    count = sum(_unequal_pairs(pt, spec.M, spec.mode) for pt in state.partitions)
    return spec.lam * count / spec.normalizer


def _nonempty_subsets(cls: tuple[int, ...]):
    """Non-empty subsets of a class, largest first, then lexicographic."""
    for size in range(len(cls), 0, -1):
        yield from itertools.combinations(cls, size)


def candidate_set(
    ctx: LossContext, state: CoefficientState, groups: GroupStructure, s: int
) -> list[Candidate]:
    """All tentative increments for covariate s.

    For each equality class of the covariate's group, every non-empty
    dataset subset of the class is a candidate, with the shared increment
    minimizing the summed loss over the subset. When every class is a
    singleton this reduces to the M single-dataset increments.
    """
    k = int(groups.assignment[s])
    out = []
    for cls in state.partitions[k]:
        for A in _nonempty_subsets(cls):
            gamma = optimal_increment_joint(ctx, state, s, A)
            out.append(Candidate(s=s, A=A, gamma=gamma))
    return out


def cd_objective(
    ctx: LossContext,
    state: CoefficientState,
    groups: GroupStructure,
    cand: Candidate,
    spec: PenaltySpec,
) -> float:
    """Full objective of one candidate, evaluated from scratch.

    Sum over datasets of loss at the tentative (unscaled) update plus the
    sparsity term, plus the commonality penalty at the tentatively split
    partition.
    """
    beta = state.beta.copy()
    beta[cand.s, list(cand.A)] += cand.gamma
    k = int(groups.assignment[cand.s])
    parts = list(state.partitions)
    cls = _class_containing(parts[k], cand.A)
    if cand.gamma != 0 and len(cand.A) < len(cls):
        parts[k] = split_class(parts[k], cand.A)
    total = 0.0
    for m in range(ctx.M):
        total += weighted_loss(ctx, beta[:, m], m)
        total += ctx.penalty_factor[m] * np.count_nonzero(beta[:, m])
    tentative = CoefficientState(beta=beta, partitions=parts, iteration=state.iteration)
    return total + commonality_penalty(tentative, spec)


# ---------------------------------------------------------------------------
# Single-dataset engine
# ---------------------------------------------------------------------------


def _sboost_path(X, y, w, pf, nu, T):
    """Greedy componentwise path on one dataset.

    Returns the chosen covariate and unscaled increment per iteration plus
    the stopping objective trace F[t] = loss + pf * nnz, t = 1..T.
    """
    n, p = X.shape
    col_norm = (w[:, None] * X * X).sum(axis=0)
    ok = col_norm > 0
    beta = np.zeros(p)
    nnz = 0                      # running count of nonzero coefficients
    r = y.astype(float).copy()
    steps = np.empty(T, dtype=np.int64)
    gammas = np.empty(T)
    trace = np.empty(T)
    losses = np.empty(T)
    for t in range(T):
        numer = X.T @ (w * r)
        gamma = np.divide(numer, col_norm, out=np.zeros(p), where=ok)
        dloss = -gamma * numer + 0.5 * gamma * gamma * col_norm
        dnnz = ((beta + gamma) != 0).astype(float) - (beta != 0)
        obj = dloss + pf * dnnz
        s = int(np.argmin(obj))
        g = float(gamma[s])
        was_nonzero = beta[s] != 0
        beta[s] += nu * g
        nnz += int(beta[s] != 0) - int(was_nonzero)
        r -= (nu * g) * X[:, s]
        steps[t] = s
        gammas[t] = g
        losses[t] = 0.5 * float(w @ (r * r))
        trace[t] = losses[t] + pf * nnz
    return steps, gammas, trace, losses


def _replay_single(steps, gammas, nu, p, t_stop):
    beta = np.zeros(p)
    for t in range(t_stop):
        beta[steps[t]] += nu * gammas[t]
    return beta


def _first_argmin(trace) -> int:
    """Selected iteration (1-based): first minimum of the trace."""
    return int(np.argmin(trace)) + 1


def sboost_fit(bundle: DatasetBundle, groups: GroupStructure, config: BoostConfig) -> FitResult:
    """Sparse boosting on a single dataset."""
    prob = validate([bundle], groups, config.model)
    ctx = build_context(prob.bundles, config.model)
    steps, gammas, trace, losses = _sboost_path(
        ctx.X[0], ctx.y[0], ctx.weights[0], ctx.penalty_factor[0], config.nu, config.T
    )
    t_hat = _first_argmin(trace)
    beta = _replay_single(steps, gammas, config.nu, ctx.p, t_hat)
    return FitResult(
        beta_hat=beta[:, None],
        t_hat=t_hat,
        partitions=[all_common_partition(1)] * groups.K,
        objective_trace=trace,
        loss_trace=losses,
    )


def sep_sboost_fit(bundles, groups: GroupStructure, config: BoostConfig) -> FitResult:
    """Fit every dataset separately (its own stopping point); combine columns.

    Partitions are computed afterward by exact block comparison.
    """
    prob = validate(bundles, groups, config.model)
    ctx = build_context(prob.bundles, config.model)
    M = ctx.M
    beta = np.zeros((ctx.p, M))
    traces = []
    losses = []
    t_hats = []
    for m in range(M):
        steps, gammas, trace, loss = _sboost_path(
            ctx.X[m], ctx.y[m], ctx.weights[m], ctx.penalty_factor[m], config.nu, config.T
        )
        t_m = _first_argmin(trace)
        beta[:, m] = _replay_single(steps, gammas, config.nu, ctx.p, t_m)
        traces.append(trace)
        losses.append(loss)
        t_hats.append(t_m)
    state = partition_refresh(
        CoefficientState(beta=beta, partitions=[], iteration=max(t_hats)), groups
    )
    return FitResult(
        beta_hat=beta,
        t_hat=max(t_hats),
        partitions=state.partitions,
        objective_trace=np.sum(traces, axis=0),
        loss_trace=np.sum(losses, axis=0),
    )


def int_sboost_fit(bundles, groups: GroupStructure, config: BoostConfig) -> FitResult:
    """Integrative variant: independent per-dataset steps, one shared t-hat
    minimizing the summed objective trace."""
    prob = validate(bundles, groups, config.model)
    ctx = build_context(prob.bundles, config.model)
    M = ctx.M
    paths = [
        _sboost_path(ctx.X[m], ctx.y[m], ctx.weights[m], ctx.penalty_factor[m], config.nu, config.T)
        for m in range(M)
    ]
    total = np.sum([tr for _, _, tr, _ in paths], axis=0)
    t_hat = _first_argmin(total)
    beta = np.zeros((ctx.p, M))
    for m, (steps, gammas, _, _) in enumerate(paths):
        beta[:, m] = _replay_single(steps, gammas, config.nu, ctx.p, t_hat)
    state = partition_refresh(
        CoefficientState(beta=beta, partitions=[], iteration=t_hat), groups
    )
    return FitResult(
        beta_hat=beta, t_hat=t_hat, partitions=state.partitions, objective_trace=total,
        loss_trace=np.sum([lo for _, _, _, lo in paths], axis=0),
    )


def _pooled_bundle(bundles) -> DatasetBundle:
    X = np.vstack([b.X for b in bundles])
    y = np.concatenate([b.y for b in bundles])
    delta = None
    if bundles[0].delta is not None:
        delta = np.concatenate([b.delta for b in bundles])
    return DatasetBundle(X=X, y=y, delta=delta, id=0)


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


# ---------------------------------------------------------------------------
# Commonality/difference engine
# ---------------------------------------------------------------------------


class _SubsetTasks:
    """Candidate subsets of the current partitions, in vectorized form.

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

    def __init__(self, parts, M, assignment, col_norms, pf, mode, pen_scale):
        K = len(parts)
        classes = sorted({c for pt in parts for c in pt}, key=lambda c: (-len(c), c))
        self.subsets = sorted(
            {A for c in classes for A in _nonempty_subsets(c)},
            key=lambda A: (-len(A), A),
        )
        S = len(self.subsets)
        self.ind = np.zeros((S, M))
        valid = np.zeros((S, K), dtype=bool)
        dsplit = np.zeros((S, K))
        for i, A in enumerate(self.subsets):
            self.ind[i, list(A)] = 1.0
            Aset = frozenset(A)
            for k, pt in enumerate(parts):
                cls = _class_containing(pt, A[:1])
                if Aset <= frozenset(cls):
                    valid[i, k] = True
                    if len(A) < len(cls):
                        dsplit[i, k] = pen_scale * _split_delta(cls, A, mode)
        self.first = np.array([A[0] for A in self.subsets])
        self.pf_sum = self.ind @ pf                 # (S,)
        self.denA = self.ind @ col_norms            # (S, p)
        self.okA = self.denA > 0
        self.invalid_sp = ~valid[:, assignment]     # (S, p)
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


def _cd_path(ctx: LossContext, groups: GroupStructure, config: BoostConfig,
             spec: PenaltySpec, initial_partitions, verify_partitions):
    """Greedy commonality/difference path over all T iterations.

    Returns the (s, A, gamma) record of every iteration, the stopping
    objective and the summed loss per iteration, and the per-group
    partitions after iteration T.  Each candidate subset lies
    inside one equality class of its covariate's group, which is what makes
    the per-subset sparsity term of ``_SubsetTasks`` exact.
    """
    M, p, K = ctx.M, ctx.p, groups.K
    nu, T = config.nu, config.T
    assignment = groups.assignment
    pf = np.asarray(ctx.penalty_factor)
    col_norms = np.vstack(ctx.col_norms)
    pen_scale = spec.lam / spec.normalizer if spec.normalizer > 0 else 0.0

    parts: list[Partition] = list(initial_partitions)
    unequal = sum(_unequal_pairs(pt, M, spec.mode) for pt in parts)
    coef = np.zeros((M, p))          # beta transposed: one row per dataset
    nnz = [0] * M                    # running nonzero count per dataset
    resid = [ctx.y[m].astype(float).copy() for m in range(M)]
    numer = np.vstack([ctx.X[m].T @ (ctx.weights[m] * resid[m]) for m in range(M)])

    records: list[tuple[int, tuple[int, ...], float]] = []
    trace = np.empty(T)
    losses = np.empty(T)
    tasks = _SubsetTasks(parts, M, assignment, col_norms, pf, spec.mode, pen_scale)
    group_idx = [groups.indices(k) for k in range(K)] if verify_partitions else None

    for t in range(T):
        numA = tasks.ind @ numer                                    # (S, p)
        gamma = np.divide(numA, tasks.denA, out=np.zeros_like(numA),
                          where=tasks.okA)
        dobj = -gamma * numA + 0.5 * gamma * gamma * tasks.denA
        dobj += _sparsity_change(tasks, coef, gamma)
        if pen_scale > 0.0:
            np.add(dobj, tasks.dsplit_sp, out=dobj, where=gamma != 0)
        dobj[tasks.invalid_sp] = np.inf

        js = np.argmin(dobj, axis=1)   # per subset: first minimum, smallest s
        best_key = None
        best = None
        for i, A in enumerate(tasks.subsets):
            j = int(js[i])
            key = (float(dobj[i, j]), -len(A), j, A)
            if best_key is None or key < best_key:
                best_key, best = key, (j, A, float(gamma[i, j]))

        s_hat, A_hat, g_hat = best
        k_hat = int(assignment[s_hat])
        cls = _class_containing(parts[k_hat], A_hat)
        if g_hat != 0.0 and len(A_hat) < len(cls):
            unequal += _split_delta(cls, A_hat, spec.mode)
            parts[k_hat] = split_class(parts[k_hat], A_hat)
            tasks = _SubsetTasks(parts, M, assignment, col_norms, pf, spec.mode, pen_scale)
        step = nu * g_hat
        for m in A_hat:
            was_nonzero = coef[m, s_hat] != 0
            coef[m, s_hat] += step
            nnz[m] += int(coef[m, s_hat] != 0) - int(was_nonzero)
            resid[m] -= step * ctx.X[m][:, s_hat]
            numer[m] = ctx.X[m].T @ (ctx.weights[m] * resid[m])
        records.append((s_hat, A_hat, g_hat))

        loss = sum(0.5 * float(ctx.weights[m] @ (resid[m] * resid[m])) for m in range(M))
        sparsity = sum(pf[m] * nnz[m] for m in range(M))
        pen = spec.lam * unequal / spec.normalizer if spec.normalizer > 0 else 0.0
        losses[t] = loss
        trace[t] = loss + sparsity + pen

        if verify_partitions:
            # only group k_hat changed this iteration; untouched groups agree
            # by induction, and the full state is re-checked after the loop
            if block_partition(coef[:, group_idx[k_hat]].T) != parts[k_hat]:
                raise AssertionError(
                    f"iteration {t + 1}: tracked partition of group {k_hat} "
                    f"diverged from element-wise comparison"
                )

    if verify_partitions and T > 0:
        refreshed = partition_refresh(
            CoefficientState(beta=coef.T, partitions=parts, iteration=T), groups
        )
        if refreshed.partitions != parts:
            raise AssertionError(
                "final state: tracked partitions diverged from element-wise "
                "comparison"
            )
    return records, trace, losses, parts


def _replay_cd(records, groups: GroupStructure, nu, p, M, initial_partitions, t_stop):
    beta = np.zeros((p, M))
    parts = list(initial_partitions)
    for s, A, g in records[:t_stop]:
        k = int(groups.assignment[s])
        if g != 0.0:
            cls = _class_containing(parts[k], A)
            if len(A) < len(cls):
                parts[k] = split_class(parts[k], A)
        for m in A:
            beta[s, m] += nu * g
    return beta, parts


def cd_sboost_fit(
    bundles,
    groups: GroupStructure,
    config: BoostConfig,
    spec: PenaltySpec | None = None,
    initial_partitions: list[Partition] | None = None,
    verify_partitions: bool = False,
) -> FitResult:
    """Joint fit identifying commonality and difference across datasets.

    Per iteration every covariate contributes candidates (single-dataset
    and shared within-class increments); the global objective (loss +
    sparsity + commonality penalty) picks one, the update is applied to all
    datasets of the chosen subset simultaneously, and the containing
    equality class splits when the subset is proper. With one dataset this
    reduces exactly to ``sboost_fit``.

    ``initial_partitions`` overrides the all-common starting classes (used
    in tests); ``verify_partitions`` cross-checks the tracked classes
    against element-wise comparison at every iteration.
    """
    bundles = list(bundles)
    prob = validate(bundles, groups, config.model)
    ctx = build_context(prob.bundles, config.model)
    M = ctx.M
    if spec is None:
        spec = PenaltySpec(lam=config.lam, M=M, K=groups.K, mode=config.penalty_mode)
    if initial_partitions is None:
        initial_partitions = [all_common_partition(M)] * groups.K
    else:
        initial_partitions = [canonical_partition(pt) for pt in initial_partitions]
    records, trace, losses, final = _cd_path(ctx, groups, config, spec, initial_partitions,
                                             verify_partitions)
    t_hat = _first_argmin(trace)
    beta, parts = _replay_cd(records, groups, config.nu, ctx.p, M, initial_partitions, t_hat)
    return FitResult(beta_hat=beta, t_hat=t_hat, partitions=parts, objective_trace=trace,
                     loss_trace=losses, final_partitions=final)


_FITTERS = {
    "sboost": lambda bundles, groups, config: sboost_fit(bundles[0], groups, config),
    "sep_sboost": sep_sboost_fit,
    "int_sboost": int_sboost_fit,
    "pool_sboost": pool_sboost_fit,
    "cd_sboost": cd_sboost_fit,
}


def fit(bundles, groups: GroupStructure, config: BoostConfig, **kwargs) -> FitResult:
    """Dispatch to the algorithm named in the config."""
    fitter = _FITTERS[config.algorithm]
    if config.algorithm == "cd_sboost":
        return fitter(bundles, groups, config, **kwargs)
    return fitter(list(bundles), groups, config)

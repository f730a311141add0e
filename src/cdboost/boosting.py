"""Componentwise sparse boosting, separately and across multiple datasets.

One engine, ``_path``, runs every fitter.  Each iteration it scores every
covariate s against every candidate dataset subset A -- a non-empty subset of
one equality class of s's group, datasets in a class holding identical
coefficient blocks -- with the shared closed-form increment over A and the
change of the objective: loss + BIC-type sparsity term + commonality penalty
(lam times the fraction of (group, dataset-pair) blocks that differ).
Applying an increment to a proper subset of a class splits the class;
classes never merge.  The candidate table ``_SubsetTasks`` owns the classes,
one label row per group (entry m is the smallest dataset in m's class), the
split rule, the pricing and the scoring, and ``_path`` only steps and
records.  A split re-prices only its group: ``_unequal`` counts the group's
differing pairs for the penalty and, on every candidate's split-off row at
once, its split costs; the table keeps every sparsity term in place.
Every fitter is a path plus a stop: its kind sets the path's starting
classes and which candidates step, and its stopping rule picks each
dataset's iteration, from which ``_stop`` replays the path and reads the
classes off the coefficients by exact block comparison
(``data.block_partitions``).  ``verify_partitions`` checks the tracked
classes after every step: one gather compares every coefficient with that
of its class's labelling dataset, in every group at once.  The fitters:

* ``cd_sboost_fit``   -- all datasets start in one class per group; each
  iteration the single best candidate steps; stops at the first argmin of
  the summed objective trace.
* ``sep_sboost_fit``  -- the lockstep path: every dataset is its own class
  (no penalty), and each iteration every dataset steps with its own best
  covariate: M independent single-dataset paths.  Each dataset stops at
  the argmin of its own trace.
* ``int_sboost_fit``  -- the same paths, one shared stop at the argmin of the
  summed trace.  Int and sep share the path: ``lockstep_path`` builds it
  once, and each of them then only stops on it.
* ``sboost_fit``      -- one dataset: the M=1 case of the separate fit.
* ``pool_sboost_fit`` -- all rows concatenated into one dataset, fit by
  ``sboost_fit``, the coefficient vector broadcast to every dataset.

All selections are deterministic: objective ties are broken toward the
largest dataset subset, then the smallest covariate index, then the
lexicographically smallest subset.  The path records its updates in two
(T, M) arrays, entry (t, m) the covariate (-1 if none) and increment of
dataset m's update at iteration t, which ``_stop`` replays.
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
    block_partitions,
    label_classes,
    validate,
)
from .losses import LossContext, build_context, survival_order


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
    """The classes of a path and its candidate subsets, in vectorized form.

    The table owns each group's classes as one label row (``labels``: one
    class, or singletons under ``lockstep``), the split rule (``split``),
    the pricing of candidates and penalty (``price``, ``pen``) and the
    scoring (``score``).  It holds every non-empty subset of a starting
    class, ordered largest first then lexicographic (the tie-break order);
    with M datasets there are at most 2^M - 1.  A subset A is a candidate
    for covariate s when A lies inside one equality class of s's group.
    Classes only split, so a split never adds a subset: it only changes
    which rows are candidates in the split group's columns and what they
    cost there, which ``price`` sets from that group's label row, with its
    counted pairs (``pairs``).  A row inside no class of any group stays,
    all inf.

    Within-class invariant: datasets of one equality class hold identical
    coefficient blocks, so wherever A is a candidate for s, beta[s, m] is
    the same for every m in A.  The sparsity change of a candidate is then
    that of A's first member (``first``) times A's summed penalty factors
    (``pf_sum``); no (subset, covariate, dataset) array is needed.

    The sparsity row ``pf_new`` (S, p) is ``pf_sum`` where A's first member
    holds a zero coefficient, else 0, kept in place by ``hold``; ``held``
    indexes its zeros, where only an exact cancellation counts.

    ``numA``, ``gamma``, ``dobj`` and ``zero`` are the (S, p) working set of
    ``score``, written in place every iteration.  ``gamma`` starts at 0 and
    stays 0 where ``denA`` is.
    """

    def __init__(self, lockstep, assignment, col_norms, pf, mode, lam):
        (M, p), K = col_norms.shape, int(assignment.max()) + 1
        # one list per group, as split edits the rows in place
        self.labels = [list(range(M)) if lockstep else [0] * M for _ in range(K)]
        self.subsets = list(itertools.chain.from_iterable(
            map(_nonempty_subsets, label_classes(self.labels[0]))))
        S = len(self.subsets)
        self.rows = np.arange(S)
        self.neg_len = -np.array([len(A) for A in self.subsets])
        self.ind = np.zeros((S, M))
        self.ind[np.repeat(self.rows, -self.neg_len),
                 list(itertools.chain.from_iterable(self.subsets))] = 1.0
        self.first = np.array([A[0] for A in self.subsets])
        self.pf_sum = self.ind @ pf                 # (S,)
        self.denA = self.ind @ col_norms            # (S, p)
        self.all_ok = bool((self.denA > 0).all())
        self.assignment, self.mode, self.lockstep, self.lam = assignment, mode, lockstep, lam
        self.normalizer = (M - 1) * K if mode == "ordered" else M * (M - 1) // 2 * K
        self.pen_scale = lam / self.normalizer if self.normalizer > 0 else 0.0
        self.numA, self.gamma, self.dobj, self.pen_sp = np.zeros((4, S, p))
        self.zero = np.empty((S, p), dtype=bool)
        self.pf_new = np.repeat(self.pf_sum[:, None], p, axis=1)
        self.lead = self.first == np.arange(M)[:, None]     # (M, S): rows m leads
        self.hold(np.zeros((M, p)), 0)
        self.pairs = np.zeros(K, dtype=int)
        self.price(range(K))

    def price(self, ks) -> None:
        """Price the groups ``ks``, which share one label row: write into
        their columns of ``pen_sp`` each subset's split cost where it is a
        candidate, inf where it is not, and their counted pairs into
        ``pairs``; ``pen`` is then the penalty of every group's pairs, and
        ``any_pen`` tells whether ``pen_sp`` holds a nonzero."""
        row, inA = np.asarray(self.labels[ks[0]]), self.ind > 0   # (M,), (S, M)
        # A is a candidate when it lies inside one class; its split cost
        # counts the pairs that relabelling A apart adds
        valid = ((row == row[self.first][:, None]) | ~inA).all(axis=1)
        pairs = _unequal(row, self.mode)
        split = _unequal(np.where(inA, -1, row), self.mode)   # (S,)
        cost = np.where(valid, self.pen_scale * (split - pairs), np.inf)
        self.pen_sp[:, np.isin(self.assignment, ks)] = cost[:, None]
        self.pairs[ks] = pairs
        self.pen = (self.lam * int(self.pairs.sum()) / self.normalizer
                    if self.normalizer > 0 else 0.0)
        self.any_pen = bool(self.pen_sp.any())

    def split(self, k: int, A: tuple[int, ...], g: float) -> int | None:
        """Split A off its class in group k's label row when the increment g
        is nonzero and A is a proper subset of the class, and re-price group
        k; return the label of the rest of the class, or None when nothing
        splits.

        A lies inside one class, as every candidate does.  Its members take
        the label A[0] and the rest of the class its smallest remaining
        member, so the row stays canonical.
        """
        row = self.labels[k]
        c = row[A[0]]
        if g == 0.0 or len(A) == row.count(c):
            return None
        rest = [m for m, label in enumerate(row) if label == c and m not in A]
        for m in A:
            row[m] = A[0]
        for m in rest:
            row[m] = rest[0]
        self.price([k])
        return rest[0]

    def hold(self, coef: np.ndarray, s: int) -> None:
        """Rewrite column s of the sparsity row from ``coef``, index the
        entries whose first member holds a nonzero and count each dataset's
        nonzeros: once per step that moved a coefficient of s into or out
        of the support."""
        self.pf_new[:, s] = np.where(coef[self.first, s] == 0, self.pf_sum, 0.0)
        ms, cols = np.nonzero(coef)
        i, rows = np.nonzero(self.lead[ms])
        self.held = rows, cols[i], ms[i], -self.pf_sum[rows]
        self.nnz = np.bincount(ms, minlength=len(coef))

    def add_sparsity(self, dobj: np.ndarray, coef: np.ndarray, gamma: np.ndarray) -> None:
        """Add to ``dobj`` the sparsity-term change of every nonzero increment
        in ``gamma``, which is exact wherever the subset is a candidate for
        the covariate; the entries of zero increments are left to the caller."""
        dobj += self.pf_new
        rows, cols, firsts, pf_drop = self.held
        if rows.size:
            cancel = coef[firsts, cols] + gamma[rows, cols] == 0
            if cancel.any():
                dobj[rows[cancel], cols[cancel]] += pf_drop[cancel]

    def score(self, numer: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score every candidate into ``gamma`` and ``dobj``, written with
        ``out=``: the same ops in the same order as on fresh arrays.  Return
        the rows that step (all under ``lockstep``, else the one best) and
        each row's best covariate."""
        numA, gamma, dobj, denA = self.numA, self.gamma, self.dobj, self.denA
        np.matmul(self.ind, numer, out=numA)                        # (S, p)
        if self.all_ok:
            np.divide(numA, denA, out=gamma)
        else:
            np.divide(numA, denA, out=gamma, where=denA > 0)
        # h - gamma*numA with h = ((0.5*gamma)*gamma)*denA: the bits of
        # -gamma*numA + h, in the working set with no temporaries
        np.multiply(0.5, gamma, out=dobj)
        dobj *= gamma
        dobj *= denA
        numA *= gamma
        dobj -= numA
        # the sparsity change and split cost of every nonzero increment, inf
        # for a non-candidate; dobj is finite and never -0.0 (a zero split
        # cost leaves it as it is)
        self.add_sparsity(dobj, coef, gamma)
        if self.any_pen:
            dobj += self.pen_sp
        if np.count_nonzero(gamma) < gamma.size:
            # a zero increment changes no term: 0 for a candidate, else inf
            np.equal(gamma, 0.0, out=self.zero)
            dobj[self.zero] = 0.0
            dobj[self.zero & np.isinf(self.pen_sp)] = np.inf

        js = dobj.argmin(axis=1)  # per subset: first minimum, smallest s
        # ties: largest subset, then smallest s, then subset order (lexicographic)
        stepping = self.rows if self.lockstep else np.lexsort(
            (js, self.neg_len, dobj[self.rows, js]))[:1]
        return stepping, js


class _Path(NamedTuple):
    """What ``_path`` returns; iteration t is row t of the step arrays and
    column t of the traces.  Entry (t, m) of ``s`` and ``gamma`` is dataset
    m's update at iteration t, covariate -1 where m did not step.  A lockstep
    path steps each dataset alone, the all-common path one subset jointly."""

    s: np.ndarray             # (T, M) covariate of each dataset's update, or -1
    gamma: np.ndarray         # (T, M) unscaled increment of that update, or 0
    loss: np.ndarray          # (M, T) loss of each dataset after each iteration
    sparsity: np.ndarray      # (M, T) sparsity term of each dataset
    penalty: np.ndarray       # (T,) commonality penalty
    partitions: list[Partition]  # per-group classes after iteration T
    lockstep: bool


def _path(ctx: LossContext, groups: GroupStructure, config: BoostConfig,
          verify_partitions=False, lockstep=False) -> _Path:
    """Greedy boosting path over all T iterations.

    Each iteration the candidate table ``_SubsetTasks`` scores every
    (covariate, subset) pair.  By default every group starts with all
    datasets in one class and the single best candidate steps.  With
    ``lockstep`` every dataset starts in a class of its own, which never
    splits, and each dataset steps with its own best covariate: M
    independent single-dataset paths in lockstep.  A candidate subset lies
    inside one class of its covariate's group, so its members hold one
    coefficient there: the path steps each subset once, and ``hold`` runs
    once if that coefficient enters or leaves the support.

    ``verify_partitions`` checks the invariant the engine relies on after
    every step, in every group: each coefficient equals that of the dataset
    labelling its class, one gather through the (M, p) map ``rep`` of flat
    indices into ``coef``, and a split leaves the two halves holding
    different blocks.  Otherwise ``AssertionError`` names the first failing
    group.
    """
    M, p, nu, T = ctx.M, ctx.p, config.nu, config.T
    assignment = groups.assignment
    pf = np.asarray(ctx.penalty_factor)

    def loss_of(m):
        return 0.5 * float(ctx.weights[m] @ (resid[m] * resid[m]))

    tasks = _SubsetTasks(lockstep, assignment, np.vstack(ctx.col_norms), pf,
                         config.penalty_mode, config.lam)
    coef = np.zeros((M, p))          # beta transposed: one row per dataset
    resid = [ctx.y[m].copy() for m in range(M)]
    numer = np.vstack([ctx.X[m].T @ (ctx.weights[m] * resid[m]) for m in range(M)])
    cur_loss = [loss_of(m) for m in range(M)]

    s_steps = np.full((T, M), -1)
    g_steps = np.zeros((T, M))
    loss = np.empty((M, T))
    sparsity = np.empty((M, T))
    penalty = np.empty(T)
    # entry (m, s): covariate s of the dataset whose label names m's class
    # in s's group; a split rewrites only its group's columns
    rep = np.asarray(tasks.labels)[assignment].T * p + np.arange(p) if verify_partitions else None

    for t in range(T):
        stepping, js = tasks.score(numer, coef)
        for i in stepping.tolist():
            s_hat, A_hat, g_hat = int(js[i]), tasks.subsets[i], float(tasks.gamma[i, js[i]])
            k_hat = int(assignment[s_hat])
            rest = tasks.split(k_hat, A_hat, g_hat)
            step = nu * g_hat
            old = float(coef[A_hat[0], s_hat])
            new = old + step
            for m in A_hat:
                s_steps[t, m], g_steps[t, m] = s_hat, g_hat
                coef[m, s_hat] = new
                resid[m] -= step * ctx.X[m][:, s_hat]
                np.dot(ctx.X[m].T, ctx.weights[m] * resid[m], out=numer[m])
                cur_loss[m] = loss_of(m)
            if (new != 0.0) != (old != 0.0):
                tasks.hold(coef, s_hat)
            if verify_partitions:
                if rest is not None:
                    cols = groups.indices(k_hat)
                    rep[:, cols] = np.asarray(tasks.labels[k_hat])[:, None] * p + cols
                # each half holds one block once the map check passes
                bad = assignment[(coef.take(rep) != coef).any(axis=0)]
                if bad.size or rest is not None and (
                        coef[A_hat[0], cols] == coef[rest, cols]).all():
                    raise AssertionError(
                        f"iteration {t + 1}: tracked partition of group "
                        f"{int(bad.min()) if bad.size else k_hat} "
                        f"disagrees with element-wise comparison"
                    )

        loss[:, t] = cur_loss
        sparsity[:, t] = tasks.nnz
        penalty[t] = tasks.pen
    sparsity *= pf[:, None]
    return _Path(s_steps, g_steps, loss, sparsity, penalty,
                 [label_classes(row) for row in tasks.labels], lockstep)


def _stop(path: _Path, groups: GroupStructure, nu, t_stop, trace, loss,
          final_partitions=None) -> FitResult:
    """The fit that stops dataset m after its first ``t_stop[m]`` updates of
    ``path``, reporting the given traces.  ``np.add.at`` adds unbuffered and
    in index order, so each coefficient sums its increments in step order,
    as the path did; the classes are read off the coefficients."""
    beta = np.zeros((groups.p, len(t_stop)))
    for m, stop in enumerate(t_stop):
        s, g = path.s[:stop, m], path.gamma[:stop, m]
        on = s >= 0
        np.add.at(beta[:, m], s[on], nu * g[on])
    return FitResult(beta_hat=beta, t_hat=max(t_stop), partitions=block_partitions(beta, groups),
                     objective_trace=trace, loss_trace=loss, final_partitions=final_partitions)


def _first_argmin(trace) -> int:
    """Selected iteration (1-based): first minimum of the trace."""
    return int(np.argmin(trace)) + 1


def lockstep_path(bundles, groups: GroupStructure, config: BoostConfig) -> _Path:
    """The lockstep path that ``sep_sboost_fit`` and ``int_sboost_fit`` stop
    on: the data validated, one loss context, every dataset in a class of
    its own, lambda 0.  Either fitter takes it as ``path`` and then only
    stops on it, so int and sep can share one path."""
    bundles = list(bundles)
    validate(bundles, groups, config.model)
    ctx = build_context(bundles, config.model)
    return _path(ctx, groups, replace(config, lam=0.0), lockstep=True)


def _lockstep_fit(bundles, groups: GroupStructure, config: BoostConfig,
                  shared_stop: bool, path: _Path | None) -> FitResult:
    """Independent single-dataset paths of every dataset, run as one path.

    Each dataset stops at the first argmin of its own objective trace (loss +
    sparsity term) or, with ``shared_stop``, all at that of the summed trace.
    """
    bundles = list(bundles)
    if path is None:
        path = lockstep_path(bundles, groups, config)
    elif not path.lockstep or path.s.shape != (config.T, len(bundles)):
        raise ValidationError("path is not the lockstep path of these datasets and T")
    objective = path.loss + path.sparsity
    total = np.sum(objective, axis=0)
    if shared_stop:
        t_stop = [_first_argmin(total)] * len(bundles)
    else:
        t_stop = [_first_argmin(trace) for trace in objective]
    return _stop(path, groups, config.nu, t_stop, total, np.sum(path.loss, axis=0))


def sep_sboost_fit(bundles, groups: GroupStructure, config: BoostConfig,
                   path: _Path | None = None) -> FitResult:
    """Fit every dataset separately (its own stopping point); combine columns.
    ``path``, when given, is the ``lockstep_path`` of the same arguments."""
    return _lockstep_fit(bundles, groups, config, shared_stop=False, path=path)


def int_sboost_fit(bundles, groups: GroupStructure, config: BoostConfig,
                   path: _Path | None = None) -> FitResult:
    """Integrative variant: independent per-dataset steps, one shared t-hat
    minimizing the summed objective trace.  ``path``, when given, is the
    ``lockstep_path`` of the same arguments."""
    return _lockstep_fit(bundles, groups, config, shared_stop=True, path=path)


def sboost_fit(bundles, groups: GroupStructure, config: BoostConfig) -> FitResult:
    """Sparse boosting on a single dataset, given as a one-element list: per
    step the (covariate, increment) pair minimizing loss + sparsity term;
    stops at the trace argmin."""
    if len(bundles) > 1:
        raise ValidationError("sboost takes a single dataset; use sep-sboost")
    return sep_sboost_fit(bundles, groups, config)


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
    single = sboost_fit([_pooled_bundle(bundles)], groups, config)
    return replace(single, beta_hat=np.repeat(single.beta_hat, M, axis=1),
                   partitions=[all_common_partition(M)] * groups.K)


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
    t_stop = [_first_argmin(trace)] * ctx.M
    return _stop(path, groups, config.nu, t_stop, trace, loss, path.partitions)


_FITTERS = {
    "sboost": sboost_fit,
    "sep_sboost": sep_sboost_fit,
    "int_sboost": int_sboost_fit,
    "pool_sboost": pool_sboost_fit,
    "cd_sboost": cd_sboost_fit,
}


def fit(bundles, groups: GroupStructure, config: BoostConfig, **kwargs) -> FitResult:
    """Dispatch to the algorithm named in the config; keyword arguments go to
    that fitter (``verify_partitions`` to cd, ``path`` to sep and int)."""
    return _FITTERS[config.algorithm](list(bundles), groups, config, **kwargs)

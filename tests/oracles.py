"""Independent reference implementations used to cross-check the package.

Everything here is written from the definitions, in the most literal way
possible (explicit loops, full recomputation), and must not import any
fitting internals (``cdboost.boosting``, ``cdboost.losses``,
``cdboost.tuning``). Slow on purpose.
"""

import csv
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from cdboost.data import CoefficientState, DatasetBundle, all_common_partition
from cdboost.simulate import (
    P_COVARIATES,
    gen_truth,
    simulate_replicate,
    small_example_design,
    stream,
)


# ---------------------------------------------------------------------------
# 1-D minimization
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, iters=200):
    """Golden-section search for the minimum of a unimodal f on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def bracket_minimum(f, width=50.0, points=2001):
    """Coarse scan for a bracketing interval of the minimizer."""
    xs = np.linspace(-width, width, points)
    vals = np.array([f(x) for x in xs])
    i = int(np.argmin(vals))
    assert 0 < i < points - 1, "minimum at scan boundary; widen the bracket"
    return xs[i - 1], xs[i + 1]


def quadratic_vertex(f, x, h=1e-3):
    """Parabola vertex through (x-h, x, x+h); exact when f is quadratic.

    Golden section alone stalls near sqrt(eps) around a flat minimum, so it
    is refined with one interpolation step. Falls back to x when the local
    curvature is not positive.
    """
    fa, fb, fc = f(x - h), f(x), f(x + h)
    denom = fa - 2.0 * fb + fc
    if denom <= 0.0 or not math.isfinite(denom):
        return x
    return x + h * (fa - fc) / (2.0 * denom)


# ---------------------------------------------------------------------------
# Kaplan-Meier
# ---------------------------------------------------------------------------


def km_jump_weights(y_sorted, delta_sorted):
    """Jumps of the Kaplan-Meier estimator at the (untied) sorted times.

    Walks the survival curve one subject at a time: at an event the curve
    drops by S_prev / (at risk), which is that observation's weight.
    """
    n = len(y_sorted)
    surv = 1.0
    w = np.zeros(n)
    for i in range(n):
        at_risk = n - i
        if delta_sorted[i] == 1:
            drop = surv / at_risk
            w[i] = drop
            surv -= drop
    return w


# ---------------------------------------------------------------------------
# Losses and closed-form increments
# ---------------------------------------------------------------------------
#
# ``ctx`` is a loss context: per-dataset lists ``X``, ``y``, ``weights``,
# ``col_norms`` and ``penalty_factor``, rows already in the model's order.


def weighted_loss(ctx, beta_col, m):
    """L^m(beta) = (1/2) sum_i w_i (y_i - x_i'beta)^2."""
    r = ctx.y[m] - ctx.X[m] @ beta_col
    return 0.5 * float(ctx.weights[m] @ (r * r))


def lr_loss(ctx, beta_col, m):
    """Least-squares loss (1/(2n)) * RSS for dataset m."""
    return weighted_loss(ctx, beta_col, m)


def aft_loss(ctx, beta_col, m):
    """Kaplan-Meier-weighted least-squares loss for dataset m."""
    return weighted_loss(ctx, beta_col, m)


def residuals(ctx, beta_col, m):
    return ctx.y[m] - ctx.X[m] @ beta_col


def optimal_increment_single(ctx, state, s, m):
    """Closed-form minimizer of L^m(beta^m + gamma * e_s) over gamma.

    gamma = (sum_i w_i x_is r_i) / (sum_i w_i x_is^2) with the working
    residual r = y - X beta^m. Degenerate columns yield 0.
    """
    denom = ctx.col_norms[m][s]
    if denom == 0:
        return 0.0
    r = residuals(ctx, state.beta[:, m], m)
    numer = float((ctx.weights[m] * ctx.X[m][:, s]) @ r)
    return numer / denom


def optimal_increment_joint(ctx, state, s, A):
    """Minimizer of sum_{m in A} L^m(beta^m + gamma * e_s) over a shared gamma."""
    num = 0.0
    den = 0.0
    for m in A:
        den += ctx.col_norms[m][s]
        if ctx.col_norms[m][s] == 0:
            continue
        r = residuals(ctx, state.beta[:, m], m)
        num += float((ctx.weights[m] * ctx.X[m][:, s]) @ r)
    if den == 0:
        return 0.0
    return num / den


def sparsity_term(ctx, m, beta_col):
    """(log n^m / n^m) times the number of nonzero coefficients."""
    return ctx.penalty_factor[m] * int(np.count_nonzero(beta_col))


# ---------------------------------------------------------------------------
# Commonality penalty and single candidates
# ---------------------------------------------------------------------------


def initial_state(p, M, K):
    """All-zero coefficients; every group common across all datasets."""
    return CoefficientState(beta=np.zeros((p, M)),
                            partitions=[all_common_partition(M)] * K)


@dataclass(frozen=True)
class Candidate:
    """One tentative update: covariate s, dataset subset A, shared increment."""

    s: int
    A: tuple
    gamma: float


@dataclass(frozen=True)
class PenaltySpec:
    """Commonality penalty weight, dataset and group counts, and which
    dataset pairs are counted (``all_pairs`` or adjacent ``ordered``)."""

    lam: float
    M: int
    K: int
    mode: str = "all_pairs"


def unequal_pairs(partition, M, mode):
    """Counted dataset pairs (all pairs, or adjacent ones when ``ordered``)
    whose datasets lie in different classes."""
    where = {}
    for ci, c in enumerate(partition):
        for m in c:
            where[m] = ci
    if mode == "ordered":
        return sum(1 for m in range(M - 1) if where[m] != where[m + 1])
    return sum(
        1 for m1, m2 in itertools.combinations(range(M), 2)
        if where[m1] != where[m2]
    )


def canonical_partition(classes):
    """Sort members within classes and classes by smallest member."""
    cs = [tuple(sorted(c)) for c in classes]
    cs.sort(key=lambda c: c[0])
    return tuple(cs)


def partition_labels(partition):
    """Label row of a partition: entry m is the smallest member of m's class."""
    labels = [0] * sum(map(len, partition))
    for c in partition:
        low = min(c)
        for m in c:
            labels[m] = low
    return labels


def split(partition, A):
    """Split the class holding the datasets of A into A and the rest."""
    out = []
    sA = set(A)
    for c in partition:
        if sA and sA.issubset(set(c)) and len(c) > len(A):
            rest = tuple(m for m in c if m not in sA)
            out.extend([tuple(sorted(A)), rest])
        else:
            out.append(c)
    return sorted((tuple(sorted(c)) for c in out), key=lambda c: c[0])


def commonality_penalty(state, spec):
    """lam * (differing (group, counted pair) blocks) / (counted blocks);
    0 for a single dataset."""
    M, K = spec.M, spec.K
    if M <= 1:
        return 0.0
    normalizer = (M - 1) * K if spec.mode == "ordered" else M * (M - 1) // 2 * K
    count = sum(unequal_pairs(pt, M, spec.mode) for pt in state.partitions)
    return spec.lam * count / normalizer


def candidate_set(ctx, state, groups, s):
    """Every non-empty subset of every class of s's group, with its shared
    increment."""
    k = int(groups.assignment[s])
    out = []
    for cls in state.partitions[k]:
        for size in range(len(cls), 0, -1):
            for A in itertools.combinations(cls, size):
                out.append(Candidate(s=s, A=A,
                                     gamma=optimal_increment_joint(ctx, state, s, A)))
    return out


def cd_objective(ctx, state, groups, cand, spec):
    """Full objective of one candidate, evaluated from scratch: losses plus
    sparsity terms at the tentative (unscaled) update, plus the commonality
    penalty at the tentatively split partition."""
    beta = state.beta.copy()
    for m in cand.A:
        beta[cand.s, m] += cand.gamma
    k = int(groups.assignment[cand.s])
    parts = list(state.partitions)
    cls = next(c for c in parts[k] if cand.A[0] in c)
    if cand.gamma != 0 and len(cand.A) < len(cls):
        parts[k] = split(parts[k], cand.A)
    total = 0.0
    for m in range(ctx.M):
        total += weighted_loss(ctx, beta[:, m], m)
        total += ctx.penalty_factor[m] * np.count_nonzero(beta[:, m])
    return total + commonality_penalty(CoefficientState(beta=beta, partitions=parts), spec)


# ---------------------------------------------------------------------------
# Brute-force commonality/difference path
# ---------------------------------------------------------------------------


def brute_cd_path(Xs, ys, ws, assignment, nu, T, lam, mode="all_pairs"):
    """Literal implementation of the joint boosting path.

    Per iteration: enumerate every covariate s and every non-empty subset A
    of the equality class of s's group containing it; the shared increment
    is the exact minimizer of the summed loss over A; evaluate the FULL
    objective (losses + sparsity terms + commonality penalty) at the
    tentative unscaled update; pick the candidate minimizing
    (objective, -|A|, s, A); apply nu times the increment to all of A and
    split the class if A is proper. Returns the (s, A, gamma) record list.
    """
    M = len(Xs)
    p = Xs[0].shape[1]
    K = int(max(assignment)) + 1
    if mode == "ordered":
        normalizer = (M - 1) * K
    else:
        normalizer = M * (M - 1) // 2 * K
    pf = [math.log(len(y)) / len(y) for y in ys]
    beta = np.zeros((p, M))
    parts = [[tuple(range(M))] for _ in range(K)]

    def objective(beta_t, parts_t):
        total = 0.0
        for m in range(M):
            r = ys[m] - Xs[m] @ beta_t[:, m]
            total += 0.5 * float(ws[m] @ (r * r))
            total += pf[m] * int(np.count_nonzero(beta_t[:, m]))
        if normalizer > 0:
            pen = sum(unequal_pairs(pt, M, mode) for pt in parts_t)
            total += lam * pen / normalizer
        return total

    records = []
    trace = []
    for _ in range(T):
        best_key = None
        best = None
        for s in range(p):
            k = int(assignment[s])
            for cls in parts[k]:
                for size in range(len(cls), 0, -1):
                    for A in itertools.combinations(cls, size):
                        num = 0.0
                        den = 0.0
                        for m in A:
                            r = ys[m] - Xs[m] @ beta[:, m]
                            num += float((ws[m] * Xs[m][:, s]) @ r)
                            den += float(ws[m] @ (Xs[m][:, s] ** 2))
                        gamma = num / den if den > 0 else 0.0
                        beta_t = beta.copy()
                        for m in A:
                            beta_t[s, m] += gamma
                        parts_t = [list(pt) for pt in parts]
                        if gamma != 0.0 and len(A) < len(cls):
                            parts_t[k] = split(parts_t[k], A)
                        key = (objective(beta_t, parts_t), -len(A), s, A)
                        if best_key is None or key < best_key:
                            best_key, best = key, (s, A, gamma)
        s, A, gamma = best
        k = int(assignment[s])
        cls = next(c for c in parts[k] if A[0] in c)
        if gamma != 0.0 and len(A) < len(cls):
            parts[k] = split(parts[k], A)
        for m in A:
            beta[s, m] += nu * gamma
        records.append((s, tuple(A), gamma))
        trace.append(objective(beta, parts))
    return records, np.array(trace), beta, parts


def path_steps(path, t):
    """The (s, A, gamma) updates of iteration t of a boosting path, in the
    order applied, from its (T, M) step arrays: one per dataset on a
    lockstep path, else the one subset of datasets that stepped jointly."""
    s, gamma = path.s[t].tolist(), path.gamma[t].tolist()
    if path.lockstep:
        return [(s[m], (m,), gamma[m]) for m in range(len(s))]
    A = tuple(m for m, j in enumerate(s) if j >= 0)
    return [(s[A[0]], A, gamma[A[0]])]


# ---------------------------------------------------------------------------
# Metrics, the long way
# ---------------------------------------------------------------------------


def hdbic_direct(beta, Xs, ys, deltas, model):
    total = 0.0
    p = beta.shape[0]
    for m in range(len(Xs)):
        r = ys[m] - Xs[m] @ beta[:, m]
        df = int(np.count_nonzero(beta[:, m]))
        if model == "aft":
            order = np.lexsort((1 - deltas[m], ys[m]))
            w = km_jump_weights(ys[m][order], deltas[m][order])
            rs = r[order]
            wrss = float(np.sum(w * rs * rs))
            n_ev = int(deltas[m].sum())
            total += n_ev * math.log(max(wrss, 1e-12)) + df * math.log(p) * math.log(n_ev)
        else:
            n = len(ys[m])
            rss = float(r @ r)
            total += n * math.log(max(rss, 1e-12) / n) + df * math.log(p) * math.log(n)
    return total


def ermse_direct(beta_hat, beta_true):
    total = 0.0
    for j in range(beta_hat.shape[0]):
        for m in range(beta_hat.shape[1]):
            total += (beta_hat[j, m] - beta_true[j, m]) ** 2
    return math.sqrt(total)


def ooi_direct(selections, top=15):
    """Mean of the `top` largest selection frequencies across splits."""
    counts = {}
    for sel in selections:
        for j in set(sel):
            counts[j] = counts.get(j, 0) + 1
    freqs = sorted((c / len(selections) for c in counts.values()), reverse=True)
    freqs += [0.0] * max(0, top - len(freqs))
    return sum(freqs[:top]) / top


def quad_form_direct(sigma_fn, p, d):
    total = 0.0
    for i in range(p):
        for j in range(p):
            total += d[i] * sigma_fn(i, j) * d[j]
    return total


def true_covariance(design):
    """Dense covariate correlation matrix implied by the generator."""
    b = design.between_corr
    rho = design.rho_within
    cov = np.full((design.p, design.p), b)
    start = 0
    for g in design.sizes:
        idx = np.arange(g)
        block = b + (1 - b) * rho ** np.abs(idx[:, None] - idx[None, :])
        cov[start:start + g, start:start + g] = block
        start += g
    return cov


def design_sigma_fn(design):
    """Entry (i, j) of the population covariate covariance for a design."""
    sizes = list(design.sizes)
    bounds = np.cumsum([0] + sizes)
    group_of = np.repeat(np.arange(design.K), sizes)
    b = design.between_corr
    rho = design.rho_within

    def sigma(i, j):
        if i == j:
            return 1.0
        if group_of[i] != group_of[j]:
            return b
        return b + (1.0 - b) * rho ** abs(i - j)

    return sigma


def gen_small_example(seed=0, replicate=0, model="lr"):
    """The fixed 4-group demonstration design: M=3, n=50, p=200.

    Group 1 is fully common, group 2 differs everywhere, groups 3 and 4 are
    partially common (sub-cases (a) and (b)); every nonzero coefficient is 1.
    """
    design = small_example_design(seed, model)
    truth = gen_truth(design, replicate,
                      scenarios=("full", "none", "partial_a", "partial_b"))
    bundles, _ = simulate_replicate(design, replicate, truth=truth)
    return bundles, truth, design


def write_dataset_csv_cellwise(path, X, y, delta=None, names=None):
    """The dataset CSV as ``csv.writer`` writes it, one cell at a time:
    ``repr(float(...))`` of each numpy scalar, ``str(int(...))`` of each
    event indicator."""
    p = X.shape[1]
    if names is None:
        names = [f"x{j + 1}" for j in range(p)]
    header = ["y"] + (["delta"] if delta is not None else []) + list(names)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i in range(X.shape[0]):
            row = [repr(float(y[i]))]
            if delta is not None:
                row.append(str(int(delta[i])))
            row.extend(repr(float(v)) for v in X[i])
            w.writerow(row)


# ---------------------------------------------------------------------------
# Whole-array references for the column-blocked and in-place code
# ---------------------------------------------------------------------------


def gen_covariates_whole(design, replicate=0):
    """The simulation covariates with every stage as its own n x p array:
    the noise z, the chain u, the mixed X and its standardized copy."""
    b, rho = design.between_corr, design.rho_within
    out = []
    for m in range(design.M):
        rng = stream(design.seed, replicate, m + 1, P_COVARIATES)
        z0 = rng.standard_normal((design.n, 1))
        z = rng.standard_normal((design.n, design.p))
        u = np.empty_like(z)
        start = 0
        for g in design.sizes:
            u[:, start] = z[:, start]
            for j in range(start + 1, start + g):
                u[:, j] = rho * u[:, j - 1] + math.sqrt(1 - rho * rho) * z[:, j]
            start += g
        out.append(standardize_whole(math.sqrt(b) * z0 + math.sqrt(1 - b) * u))
    return out


def col_norms_whole(X, w):
    """sum_i w_i x_is^2 for every column, as one n x p expression."""
    return (w[:, None] * X * X).sum(axis=0)


def column_mean_whole(X):
    return X.mean(axis=0)


def column_std_whole(X):
    return X.std(axis=0)


def standardize_whole(X):
    """Columns centered and scaled by their whole-array mean and standard
    deviation; constant columns centered only."""
    sd = column_std_whole(X)
    return (X - column_mean_whole(X)) / np.where(sd > 0, sd, 1.0)


def stacked_bundle(bundles):
    """Every dataset's rows stacked in dataset order, as one bundle."""
    delta = None
    if bundles[0].delta is not None:
        delta = np.concatenate([b.delta for b in bundles])
    return DatasetBundle(X=np.vstack([b.X for b in bundles]),
                         y=np.concatenate([b.y for b in bundles]), delta=delta, id=0)


def load_truth(path):
    """The coefficient matrix and payload of a written ``truth.json``."""
    with open(path) as fh:
        payload = json.load(fh)
    beta = np.zeros((payload["p"], payload["M"]))
    for j, m, value in payload["beta"]:
        beta[j, m] = value
    return beta, payload


def logrank_statistic(time, delta, group):
    """Two-group logrank (Mantel-Haenszel) chi-square statistic."""
    time = np.asarray(time, dtype=float)
    delta = np.asarray(delta, dtype=int)
    group = np.asarray(group, dtype=int)
    O1 = E1 = V = 0.0
    for t in sorted(set(time[delta == 1])):
        at = time >= t
        n = int(at.sum())
        n1 = int((at & (group == 1)).sum())
        d = int(((time == t) & (delta == 1)).sum())
        d1 = int(((time == t) & (delta == 1) & (group == 1)).sum())
        O1 += d1
        E1 += d * n1 / n
        if n > 1:
            V += d * (n1 / n) * (1 - n1 / n) * (n - d) / (n - 1)
    if V == 0:
        raise ZeroDivisionError("degenerate logrank table")
    return (O1 - E1) ** 2 / V


# Ten subjects, hand-worked. Group 0: times 1, 3, 5, 7, 9 with events at
# 1, 3, 7; group 1: times 2, 4, 6, 8, 10 with events at 2, 6, 8.
# Event-time table (n at risk, n1 at risk, group-1 events):
#   t=1: 10, 5, 0   t=2: 9, 5, 1   t=3: 8, 4, 0
#   t=6:  5, 3, 1   t=7: 4, 2, 0   t=8: 3, 2, 1
# O1 = 3, E1 = 1/2 + 5/9 + 1/2 + 3/5 + 1/2 + 2/3 = 299/90,
# V = 1/4 + 20/81 + 1/4 + 6/25 + 1/4 + 2/9 = 11819/8100,
# statistic = (3 - 299/90)^2 / V = 841 / 11819.
HAND_LOGRANK_TIME = np.array([1.0, 3, 5, 7, 9, 2, 4, 6, 8, 10])
HAND_LOGRANK_DELTA = np.array([1, 1, 0, 1, 0, 1, 0, 1, 1, 0])
HAND_LOGRANK_GROUP = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
HAND_LOGRANK_VALUE = 841.0 / 11819.0

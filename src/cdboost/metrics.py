"""Selection, estimation, and prediction metrics plus the benchmark harness.

Group-level positives are counted over adjacent dataset pairs (m, m+1): a
positive is a pair whose estimated coefficient blocks for a group are exactly
equal element-wise (both all-zero counts); it is true when the underlying
truth blocks are equal as well.  With three datasets a fully common group
can contribute 2 positives, a partially common one 1, matching the intended
totals (a pooled fit always produces exactly K*(M-1) positives).
"""

import math
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import (
    ALGORITHMS,
    BoostConfig,
    DatasetBundle,
    FitResult,
    GroupStructure,
    NumericError,
    ValidationError,
    _run_in_order,
    adjacent_equal_pairs,
)
from .boosting import fit as run_fit, lockstep_path
from .losses import survival_order, survival_sorted
from .simulate import (
    P_SPLIT,
    GroundTruth,
    SimDesign,
    covariance_quad_form,
    scenario_counts,
    simulate_replicate,
    stream,
)
from .tuning import select_lambda

# each algorithm by its name, its hyphenated name and its short name
METHOD_ALIASES = {alias: name for name in ALGORITHMS
                  for alias in (name, name.replace("_", "-"), name.split("_")[0])}

METRIC_FIELDS = ("variable_tp", "variable_fp", "group_tp", "group_fp", "ermse", "prmse")


def canonical_method(name: str) -> str:
    try:
        return METHOD_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValidationError(f"unknown method {name!r}") from None


def canonical_methods(methods) -> tuple[str, ...]:
    """The algorithm of each method; two names for one algorithm are refused,
    as they would fit it twice and count each replicate twice."""
    seen = {}
    for method in methods:
        algo = canonical_method(method)
        if algo in seen:
            raise ValidationError(f"methods {seen[algo]!r} and {method!r} both name {algo}")
        seen[algo] = method
    return tuple(seen)


def group_tp_fp(fit: FitResult, truth: GroundTruth, groups: GroupStructure) -> tuple[int, int]:
    """Adjacent-pair commonality positives split into true and false."""
    if fit.beta_hat.shape != truth.beta.shape:
        raise ValidationError("fit and truth dimensions differ")
    tp = fp = 0
    for k, est in enumerate(adjacent_equal_pairs(fit.beta_hat, groups)):
        for i, equal in enumerate(est):
            if equal:
                if truth.equal_pairs[k][i]:
                    tp += 1
                else:
                    fp += 1
    return tp, fp


def variable_tp_fp(fit: FitResult, truth: GroundTruth) -> tuple[int, int]:
    """Covariate selection counts summed over datasets."""
    est = fit.beta_hat != 0
    true = truth.beta != 0
    tp = int(np.sum(est & true))
    fp = int(np.sum(est & ~true))
    return tp, fp


def ermse(fit: FitResult, truth: GroundTruth) -> float:
    """Root of the summed squared coefficient errors across datasets."""
    return float(np.sqrt(np.sum((fit.beta_hat - truth.beta) ** 2)))


def prmse_lr(fit: FitResult, test_bundles) -> float:
    """Root of the summed squared prediction errors on held-out data."""
    total = 0.0
    for m, b in enumerate(test_bundles):
        r = b.y - b.X @ fit.beta_hat[:, m]
        total += float(r @ r)
    return math.sqrt(total)


def prmse_aft(fit: FitResult, truth: GroundTruth, design: SimDesign) -> float:
    """(1/sigma) root of the summed quadratic forms under the true covariate
    covariance (computed from the design's factor structure)."""
    if design.sigma <= 0:
        raise ValidationError("sigma must be positive")
    total = 0.0
    for m in range(truth.beta.shape[1]):
        d = fit.beta_hat[:, m] - truth.beta[:, m]
        total += covariance_quad_form(design, d)
    return math.sqrt(total) / design.sigma


def ooi(selection_lists, top: int = 15) -> float:
    """Mean of the ``top`` largest per-covariate selection frequencies.

    Each entry of ``selection_lists`` is the set of covariates selected on
    one split; a covariate's frequency is the fraction of splits selecting
    it.  Covariates never selected have frequency zero, so with fewer than
    ``top`` ever-selected covariates the zeros pull the mean down (warned).
    """
    lists = [set(map(int, sel)) for sel in selection_lists]
    if len(lists) < 2:
        raise ValidationError("need at least 2 splits for stability")
    counts = Counter()
    for sel in lists:
        counts.update(sel)
    freqs = sorted((c / len(lists) for c in counts.values()), reverse=True)
    if len(freqs) < top:
        warnings.warn(f"only {len(freqs)} covariates ever selected (< {top})")
        freqs += [0.0] * (top - len(freqs))
    return float(np.mean(freqs[:top]))


def logrank_score(fit: FitResult, test_bundle: DatasetBundle, m: int = 0) -> float:
    """Two-sample logrank chi-square after a median split of predicted risk.

    Subjects with x'beta above the median form the high-risk group; the
    statistic is (O - E)^2 / V over the distinct event times.
    """
    if test_bundle.delta is None:
        raise ValidationError("logrank evaluation needs censored survival data")
    risk = test_bundle.X @ fit.beta_hat[:, m]
    high = risk > np.median(risk)
    if not high.any() or high.all():
        raise NumericError("degenerate risk split: all predictions on one side")
    y, delta = test_bundle.y, test_bundle.delta
    if not (delta[high].any() and delta[~high].any()):
        raise NumericError("no events in one risk group")
    O = E = V = 0.0
    for t in np.unique(y[delta == 1]):
        at_risk = y >= t
        n_j = int(at_risk.sum())
        n1_j = int((at_risk & high).sum())
        events = (y == t) & (delta == 1)
        d_j = int(events.sum())
        O += int((events & high).sum())
        E += d_j * n1_j / n_j
        if n_j > 1:
            V += d_j * (n1_j / n_j) * (1 - n1_j / n_j) * (n_j - d_j) / (n_j - 1)
    if V <= 0:
        raise NumericError("zero logrank variance")
    return (O - E) ** 2 / V


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicateMetrics:
    method: str
    replicate: int
    variable_tp: int
    variable_fp: int
    group_tp: int
    group_fp: int
    ermse: float
    prmse: float
    t_hat: int
    lam: float


@dataclass
class MetricReport:
    design: SimDesign
    methods: tuple[str, ...]
    replicates: int
    rows: list[ReplicateMetrics] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def rows_for(self, method: str) -> list[ReplicateMetrics]:
        return [r for r in self.rows if r.method == method]

    def aggregate(self) -> dict:
        """Per method, mean and SD of every metric (SD 0 for one replicate)."""
        out = {}
        for method in self.methods:
            rows = self.rows_for(method)
            stats = {}
            for name in METRIC_FIELDS:
                vals = np.array([getattr(r, name) for r in rows], dtype=float)
                if vals.size == 0:
                    stats[name] = {"mean": float("nan"), "sd": float("nan")}
                else:
                    sd = float(np.std(vals, ddof=1)) if vals.size > 1 else 0.0
                    stats[name] = {"mean": float(vals.mean()), "sd": sd}
            out[method] = stats
        return out

    def to_json(self) -> dict:
        return {
            "design": asdict(self.design),
            "methods": list(self.methods),
            "replicates": self.replicates,
            "rows": [asdict(r) for r in self.rows],
            "aggregates": self.aggregate(),
            "failures": list(self.failures),
        }

    def to_table(self) -> str:
        """Aligned text table: variable TP/FP, group TP/FP, ERMSE, PRMSE."""
        agg = self.aggregate()
        headers = ["method", "var TP", "var FP", "grp TP", "grp FP", "ERMSE", "PRMSE"]
        lines = [headers]
        for method in self.methods:
            cells = [method]
            for name in METRIC_FIELDS:
                s = agg[method][name]
                cells.append(f"{s['mean']:.1f} ({s['sd']:.1f})")
            lines.append(cells)
        widths = [max(len(row[i]) for row in lines) for i in range(len(headers))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in lines
        )


# the fitters that stop on one lockstep path
_LOCKSTEP = frozenset({"sep_sboost", "int_sboost"})


def _fit_methods(methods, bundles, groups, config, tune, verify):
    """Yield (method, FitResult, lambda used) for each method, in order.

    When int and sep are both asked for they stop on one ``lockstep_path``,
    built as the first of them is fit and dropped after the second, so it is
    held during no other method's fit.  Every method is one ``run_fit`` or
    ``select_lambda`` call either way.
    """
    algos = [canonical_method(method) for method in methods]
    sharing = set(_LOCKSTEP) if _LOCKSTEP <= set(algos) else set()
    path = None
    for method, algo in zip(methods, algos):
        cfg = replace(config, algorithm=algo)
        kwargs = {}
        if algo in sharing:
            if path is None:
                path = lockstep_path(bundles, groups, cfg)
            kwargs["path"] = path
            sharing.remove(algo)
            if not sharing:
                path = None
        if algo != "cd_sboost":
            yield method, run_fit(bundles, groups, cfg, **kwargs), 0.0
        elif tune:
            lam, result = select_lambda(bundles, groups, cfg, verify_partitions=verify)
            yield method, result, lam
        else:
            yield method, run_fit(bundles, groups, cfg, verify_partitions=verify), cfg.lam


def _benchmark_replicate(args):
    design, methods, replicate, config, tune, verify = args
    groups = design.groups()
    bundles, truth = simulate_replicate(design, replicate)
    bundles = [survival_sorted(b) for b in bundles]

    # realized truth must reproduce the designed positive count
    n_f, n_p, _ = scenario_counts(design.K, design.rho_f, design.rho_p, design.rho_n)
    if truth.n_ig != 2 * n_f + n_p:
        raise AssertionError(
            f"replicate {replicate}: N_ig {truth.n_ig} != {2 * n_f + n_p}"
        )

    test_bundles = None
    if design.model == "lr":
        test_bundles, _ = simulate_replicate(design, replicate, truth=truth, test=True)

    rows = []
    for method, result, lam in _fit_methods(methods, bundles, groups, config, tune, verify):
        gtp, gfp = group_tp_fp(result, truth, groups)
        if canonical_method(method) == "pool_sboost":
            if gtp + gfp != groups.K * (design.M - 1):
                raise AssertionError(
                    f"pooled fit: group TP+FP {gtp + gfp} != K(M-1)"
                )
        vtp, vfp = variable_tp_fp(result, truth)
        if design.model == "lr":
            prmse = prmse_lr(result, test_bundles)
        else:
            prmse = prmse_aft(result, truth, design)
        rows.append(ReplicateMetrics(
            method=method, replicate=replicate,
            variable_tp=vtp, variable_fp=vfp, group_tp=gtp, group_fp=gfp,
            ermse=ermse(result, truth), prmse=prmse,
            t_hat=result.t_hat, lam=lam,
        ))
    return rows


def _replicate_or_failure(args):
    """A replicate's rows, or the text of the exception that ended it."""
    try:
        return _benchmark_replicate(args)
    except Exception as exc:  # recorded, not fatal
        return f"replicate {args[2]}: {exc}"


def benchmark(
    design: SimDesign,
    methods,
    replicates: int,
    config: BoostConfig | None = None,
    tune: bool = True,
    workers: int = 1,
    verify: bool = True,
) -> MetricReport:
    """Generate, fit, and score ``replicates`` draws for each method.

    ``tune`` selects the cd_sboost penalty weight per replicate by HDBIC
    grid search.  ``verify`` cross-checks tracked equality classes against
    element-wise comparison inside every cd fit.  Per-replicate failures are
    recorded in the report, not raised.  Replicates run in order on
    ``workers`` processes, and each cd grid search stops at its first
    split-free lambda (see ``select_lambda``); results are identical for
    any worker count (replicate-indexed streams, ordered aggregation).
    """
    methods = tuple(methods)
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    if "sboost" in canonical_methods(methods):
        raise ValidationError("sboost is single-dataset; use sep_sboost")
    if config is None:
        config = BoostConfig(model=design.model)
    if config.model != design.model:
        raise ValidationError("config model differs from design model")
    jobs = [(design, methods, r, config, tune, verify) for r in range(replicates)]
    report = MetricReport(design=design, methods=methods, replicates=replicates)
    for out in _run_in_order(_replicate_or_failure, jobs, workers):
        if isinstance(out, str):
            report.failures.append(out)
        else:
            report.rows.extend(out)
    return report


# ---------------------------------------------------------------------------
# Stability analysis over random train/test splits
# ---------------------------------------------------------------------------


_TRAIN_FRAC = 0.75


def split_bundles(bundles, seed: int, split: int):
    """Random per-dataset row split, ``_TRAIN_FRAC`` of the rows for training.

    Test rows keep the dataset's row order.  Training rows do too, except
    that those of survival data come in ``survival_order``, the order every
    AFT fit takes them in, so no fit on them sorts or copies them again.
    """
    train, test = [], []
    for m, b in enumerate(bundles):
        rng = stream(seed, split, m + 1, P_SPLIT)
        perm = rng.permutation(b.n)
        n_test = max(1, int(round(b.n * (1 - _TRAIN_FRAC))))
        te = np.sort(perm[:n_test])
        tr = np.sort(perm[n_test:])
        if b.delta is not None:
            tr = tr[survival_order(b.y[tr], b.delta[tr])]
        train.append(DatasetBundle(
            X=b.X[tr], y=b.y[tr],
            delta=None if b.delta is None else b.delta[tr], id=b.id))
        test.append(DatasetBundle(
            X=b.X[te], y=b.y[te],
            delta=None if b.delta is None else b.delta[te], id=b.id))
    return train, test


def _stability_split(args):
    bundles, groups, config, methods, seed, split, tune = args
    train, test = split_bundles(bundles, seed, split)
    out = {}
    for method, result, lam in _fit_methods(methods, train, groups, config, tune, False):
        selected = sorted(set(
            int(j) for m in range(result.M) for j in result.selected[m]
        ))
        if config.model == "lr":
            score = prmse_lr(result, test)
        else:
            per_ds = []
            for m in range(result.M):
                try:
                    per_ds.append(logrank_score(result, test[m], m))
                except NumericError:
                    per_ds.append(float("nan"))
            score = float(np.nanmean(per_ds)) if per_ds else float("nan")
        out[method] = (selected, score, lam)
    return out


def stability(
    bundles,
    groups: GroupStructure,
    config: BoostConfig,
    methods,
    n_splits: int = 100,
    seed: int = 0,
    tune: bool = False,
    workers: int = 1,
) -> dict:
    """Repeated 3:1 split evaluation: selection stability and prediction.

    Per split each method is refit on the training rows; the selection set
    is the union of per-dataset supports. Reports the top-frequency OOI and
    the mean/SD of the prediction score (summed-RSS root for uncensored
    data, mean per-dataset logrank chi-square for censored data).
    """
    methods = tuple(methods)
    canonical_methods(methods)
    bundles = list(bundles)
    if n_splits < 2:
        raise ValidationError("need at least 2 splits")
    jobs = [(bundles, groups, config, methods, seed, s, tune) for s in range(n_splits)]
    per_split = list(_run_in_order(_stability_split, jobs, workers))
    report = {}
    for method in methods:
        selections = [ps[method][0] for ps in per_split]
        scores = np.array([ps[method][1] for ps in per_split], dtype=float)
        finite = scores[np.isfinite(scores)]
        report[method] = {
            "ooi": ooi(selections),
            "score_mean": float(finite.mean()) if finite.size else float("nan"),
            "score_sd": float(finite.std(ddof=1)) if finite.size > 1 else 0.0,
            "degenerate_splits": int(np.sum(~np.isfinite(scores))),
            "splits": n_splits,
        }
    return report

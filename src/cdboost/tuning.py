"""HDBIC model scoring and grid search for the commonality penalty weight.

HDBIC = sum over datasets of  n log(RSS/n) + df * log(p) * log(n)
with natural logarithms, df the per-dataset count of nonzero coefficients,
and (p, n) the covariate and sample counts.  Under the censored model the
residual sum of squares is replaced by its Kaplan-Meier-weighted version and
n by the event count; for fully uncensored data this reduces to the plain
formula.  A lower score is better.
"""

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    BoostConfig,
    FitResult,
    GroupStructure,
    NumericError,
    ValidationError,
    _run_in_order,
    all_common_partition,
)
# ``build_context`` is no longer called here; it stays a name of this module
# because perfbench's span tracer wraps ``tuning.build_context``
from .losses import build_context, weighted_rows  # noqa: F401

RSS_FLOOR = 1e-12


def hdbic(fit, bundles) -> float:
    """Score a fit on the data it was fit to.

    ``fit`` may be a FitResult or a bare (p, M) coefficient array.  The
    model is taken from the bundles: presence of censoring indicators means
    the weighted variant.  Each dataset's rows and weights are its
    ``weighted_rows``, those of the fit's loss context; no column norm is
    computed.  A zero residual sum of squares is floored at 1e-12 (with a
    warning) so the log stays finite.
    """
    beta = fit.beta_hat if isinstance(fit, FitResult) else np.asarray(fit, dtype=float)
    bundles = list(bundles)
    model = "aft" if bundles[0].delta is not None else "lr"
    p = bundles[0].p
    if beta.shape != (p, len(bundles)):
        raise ValueError(f"coefficient shape {beta.shape} != {(p, len(bundles))}")
    log_p = math.log(p)
    total = 0.0
    for m, b in enumerate(bundles):
        X, y, w, n_events = weighted_rows(b, model)
        r = y - X @ beta[:, m]
        df = int(np.count_nonzero(beta[:, m]))
        if model == "aft":
            what, rss = "weighted RSS", float(w @ (r * r))
        else:
            what, rss = "RSS", float(r @ r)
        if rss < RSS_FLOOR:
            warnings.warn(f"dataset {m}: {what} floored at {RSS_FLOOR}")
            rss = RSS_FLOOR
        # n_events is n under LR, whose RSS is divided by n
        log_rss = math.log(rss) if model == "aft" else math.log(rss / n_events)
        total += n_events * log_rss + df * log_p * math.log(n_events)
    return total


@dataclass
class LambdaGrid:
    """Candidate penalty weights, ascending, plus each value's HDBIC score
    once ``select_lambda`` has searched them."""

    values: tuple[float, ...]
    scores: list[float] = field(default_factory=list)

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValidationError("empty lambda grid")
        if not all(math.isfinite(v) and v >= 0 for v in vals):
            raise ValidationError(f"lambda values must be finite and >= 0, got {vals}")
        if list(vals) != sorted(vals):
            raise ValidationError("lambda grid must be ascending")
        self.values = vals


def default_lambda_grid(bundles) -> LambdaGrid:
    """{0} plus 10 geometric points spanning two decades up to lambda_max.

    lambda_max = sum of log(n) over datasets, the scale of the per-step
    sparsity cost, so the largest grid value can actually move selections.
    """
    lam_max = sum(math.log(b.n) for b in bundles)
    vals = [0.0] + list(np.geomspace(0.01 * lam_max, lam_max, 10))
    return LambdaGrid(values=tuple(vals))


def _fit_and_score(args):
    lam, bundles, groups, config, verify_partitions = args
    from .boosting import cd_sboost_fit

    cfg = replace(config, lam=lam, algorithm="cd_sboost")
    fit = cd_sboost_fit(bundles, groups, cfg, verify_partitions=verify_partitions)
    return lam, hdbic(fit, bundles), fit


def select_lambda(
    bundles,
    groups: GroupStructure,
    config: BoostConfig,
    grid: LambdaGrid | None = None,
    workers: int = 1,
    verify_partitions: bool = False,
) -> tuple[float, FitResult]:
    """Fit cd_sboost at every grid value; return the HDBIC minimizer.

    Ties (including duplicate grid values) resolve to the smaller lambda.
    The grid object, when supplied, is filled with per-value scores.  The
    search keeps the scores and the best (lambda, score, fit) so far, not
    every fit: while a value is fitted it holds no other fit than the best
    one.  Fits run in grid order on ``workers`` processes; the scores and
    the winner are identical for any worker count.  ``verify_partitions``
    goes to every ``cd_sboost_fit``.

    The search stops fitting at the first grid value whose cd path leaves
    every group's partition a single class through iteration T (with more
    than one worker, fits not yet handed to a worker are cancelled); each
    later grid value reuses that value's score and fit, so it never beats
    it.  This is exact.  Lambda enters the path only through the split cost
    ``lam / normalizer * pairs`` added to the objective of a proper class
    subset with a nonzero increment; that rounded cost never falls as
    lambda rises, while the objective of a full class or a zero increment
    does not depend on lambda.  Every winner of a split-free path is of the
    second kind, so it stays the winner, tie break included, at any larger
    lambda, and the penalty term of the trace is lam * 0 / normalizer = 0.0
    throughout.  Paths, traces, t_hat, coefficients and scores are
    therefore bit-identical to a fresh fit.
    """
    bundles = list(bundles)
    if grid is None:
        grid = default_lambda_grid(bundles)
    jobs = [(lam, bundles, groups, config, verify_partitions) for lam in grid.values]
    whole = [all_common_partition(len(bundles))] * groups.K
    scores, best = [], None
    runs = _run_in_order(_fit_and_score, jobs, workers)
    for lam, score, fit in runs:
        scores.append(score)
        if math.isfinite(score) and (best is None or score < best[1]):
            best = (lam, score, fit)
        split_free = fit.final_partitions == whole
        del fit  # while the next value is fitted, hold no fit but the best
        if split_free:
            break
    runs.close()
    grid.scores = scores + [scores[-1]] * (len(jobs) - len(scores))
    if best is None:
        raise NumericError("no finite HDBIC score on the lambda grid")
    return best[0], best[2]

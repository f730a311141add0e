"""Per-dataset losses: Kaplan-Meier weights and the shared loss context.

Two models are supported:

* ``lr`` -- least squares, L(beta) = (1/(2n)) * sum_i (y_i - x_i'beta)^2.
* ``aft`` -- weighted least squares on observed log-times with
  Kaplan-Meier jump weights, L(beta) = (1/2) * sum_i w_(i) (y_(i) - x_(i)'beta)^2
  over the order statistics of log-time. Censored observations carry zero
  weight; with no censoring the weights reduce to 1/n and the two losses
  coincide exactly.

Both cases are handled uniformly through per-observation weights, so every
increment of the boosting engine is a weighted least-squares solution for one
covariate.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import DatasetBundle, NumericError, ValidationError, _by_column_blocks


@dataclass(frozen=True)
class LossContext:
    """Read-only per-dataset quantities shared by all fitting loops.

    For the survival model the rows of ``X``/``y`` are sorted by observed
    log-time (events before censored on ties) so they align with the
    Kaplan-Meier weights.
    """

    X: list[np.ndarray]
    y: list[np.ndarray]
    weights: list[np.ndarray]
    col_norms: list[np.ndarray]  # per dataset: sum_i w_i x_is^2 for each s
    penalty_factor: list[float]  # log(n)/n per dataset

    @property
    def M(self) -> int:
        return len(self.X)

    @property
    def p(self) -> int:
        return self.X[0].shape[1]


def km_weights(y_sorted: np.ndarray, delta_sorted: np.ndarray) -> np.ndarray:
    """Kaplan-Meier jump weights for sorted observed times.

    w_(1) = delta_(1)/n and
    w_(i) = delta_(i)/(n-i+1) * prod_{j<i} ((n-j)/(n-j+1))^delta_(j).
    Censored observations get exactly zero weight; with no censoring the
    weights are exactly 1/n.
    """
    delta = np.asarray(delta_sorted, dtype=float)
    n = delta.size
    if delta.sum() == 0:
        raise ValidationError("Kaplan-Meier weights undefined: all observations censored")
    # prod over j < i of ((n-j)/(n-j+1))^delta_j, via cumsum of logs
    j = np.arange(1, n, dtype=float)
    log_terms = delta[:-1] * (np.log(n - j) - np.log(n - j + 1.0))
    cum = np.concatenate(([0.0], np.cumsum(log_terms)))
    i = np.arange(1, n + 1, dtype=float)
    w = delta / (n - i + 1.0) * np.exp(cum)
    return w


def survival_order(y: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Row order by observed log-time, events before censored on ties,
    stable within: the order the AFT loss and its weights are taken in."""
    return np.lexsort((1 - delta, y))


def survival_sorted(bundle: DatasetBundle) -> DatasetBundle:
    """The bundle with its rows in ``survival_order``: the bundle itself when
    they already are or it has no event indicators, else a sorted copy.

    Sorting survival data once where it enters the program spares every
    later ``build_context`` its sorted copy.  It changes no result: a
    stable sort of sorted keys is the identity, so the context holds the
    same rows in the same order either way.
    """
    if bundle.delta is None:
        return bundle
    order = survival_order(bundle.y, bundle.delta)
    if (order == np.arange(bundle.n)).all():
        return bundle
    return DatasetBundle(X=bundle.X[order], y=bundle.y[order], delta=bundle.delta[order],
                         id=bundle.id)


def _col_norms(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i x_is^2 for each column s: the bits of
    ``(w[:, None] * X * X).sum(axis=0)``, one column block at a time."""
    def weighted_squares(block, axis):
        out = w[:, None] * block
        out *= block
        return out.sum(axis=axis)

    return _by_column_blocks(weighted_squares, X)


def weighted_rows(bundle: DatasetBundle, model: str):
    """``(X, y, w, n_events)``: the rows a dataset's loss is taken over, their
    weights and its event count.

    Under LR they are the bundle's own ``X`` and ``y``, weights 1/n and n
    events.  Under AFT they are those of ``survival_sorted(bundle)``, ``X``
    made C-contiguous, with Kaplan-Meier weights, so bundles already in
    survival order (as the CLI and the benchmark pass them) are shared, not
    copied; a copy is made only of rows out of that order or of an ``X``
    that is not C-contiguous.
    """
    if model == "aft":
        b = survival_sorted(bundle)
        return np.ascontiguousarray(b.X), b.y, km_weights(b.y, b.delta), int(b.delta.sum())
    n = bundle.n
    return bundle.X, bundle.y, np.full(n, 1.0 / n), n


def build_context(bundles: list[DatasetBundle], model: str) -> LossContext:
    """Precompute weights and column norms for a list of validated bundles.

    The context holds each bundle's ``weighted_rows``.  Column norms are
    summed one column block at a time.  A column norm or a response energy
    ``w @ (y * y)`` that overflows raises ``NumericError``: no increment or
    loss of such data would be finite.
    """
    Xs, ys, ws, norms, pf = [], [], [], [], []
    for b in bundles:
        X, y, w, _ = weighted_rows(b, model)
        with np.errstate(over="ignore", invalid="ignore"):
            cn = _col_norms(X, w)
            energy = float(w @ (y * y))
        if not (np.isfinite(cn).all() and math.isfinite(energy)):
            raise NumericError(f"dataset {b.id}: a weighted column norm or the response "
                               "energy overflows; rescale the data")
        if (cn == 0).any():
            bad = np.nonzero(cn == 0)[0]
            warnings.warn(
                f"dataset {b.id}: {bad.size} degenerate (zero-norm) columns, "
                f"e.g. {bad[:3].tolist()}; their increments are pinned to 0",
                stacklevel=2,
            )
        Xs.append(X)
        ys.append(y)
        ws.append(w)
        norms.append(cn)
        pf.append(np.log(b.n) / b.n)
    return LossContext(X=Xs, y=ys, weights=ws, col_norms=norms, penalty_factor=pf)

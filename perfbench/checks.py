"""Output checks. An operation whose output fails any of them counts as failed.

Every fitted model an operation produces becomes a ``FitRecord``. The checks:

* ``repeat``: the output is identical every time the run meets the same
  input (the warm-up and the untimed memory pass included);
* ``schema``: CLI JSON passes the schema the package ships;
* ``partitions``: the reported equality classes equal
  ``data.partition_refresh`` of the coefficients;
* ``t_hat``: t_hat is the first argmin of the objective trace (sep-sboost
  stops each dataset on its own, so its summed trace is exempt);
* ``lambda``: a tuned lambda is the grid-score argmin, ties going to the
  smaller lambda;
* ``digest``: on the recorded seed, t_hat, lambda, support and partitions
  equal the recorded digest exactly and the coefficients lie within
  ``COEF_TOL`` of it.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import jsonschema
import numpy as np

from cdboost.data import CoefficientState, GroupStructure, partition_refresh

COEF_TOL = 1e-10   # acceptance criterion 1's bound on coefficient drift
DIGEST_SEED = 0
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass
class FitRecord:
    method: str
    t_hat: int
    lam: float
    beta: np.ndarray                  # (p, M)
    partitions: list
    trace: np.ndarray
    groups: GroupStructure
    grid: tuple | None = None         # (lambda values, HDBIC scores)

    @classmethod
    def from_fit(cls, method, fit, lam, groups, grid):
        return cls(method=method, t_hat=int(fit.t_hat), lam=float(lam),
                   beta=fit.beta_hat, partitions=[tuple(map(tuple, pt)) for pt in fit.partitions],
                   trace=np.asarray(fit.objective_trace, dtype=float), groups=groups, grid=grid)

    def digest(self) -> dict:
        nz = np.nonzero(self.beta)
        return {
            "method": self.method,
            "t_hat": self.t_hat,
            "lambda": self.lam,
            "support": [[int(j), int(m)] for j, m in zip(*nz)],
            "partitions": [[list(c) for c in pt] for pt in self.partitions],
            "coefficients": [float(v) for v in self.beta[nz]],
        }

    def fingerprint(self) -> str:
        h = hashlib.sha256(json.dumps(self.digest(), sort_keys=True).encode())
        h.update(np.ascontiguousarray(self.beta).tobytes())
        h.update(np.ascontiguousarray(self.trace).tobytes())
        if self.grid is not None:
            h.update(repr(self.grid).encode())
        return h.hexdigest()


def _grid_choice(values, scores) -> float | None:
    best = None
    for lam, score in zip(values, scores):
        if math.isfinite(score) and (best is None or score < best[1]):
            best = (lam, score)
    return None if best is None else best[0]


def check_record(rec: FitRecord) -> list[str]:
    failed = []
    refreshed = partition_refresh(CoefficientState(beta=rec.beta, partitions=[]), rec.groups)
    if refreshed.partitions != rec.partitions:
        failed.append("partitions")
    if rec.method not in ("sep_sboost", "sep"):
        if rec.t_hat != int(np.argmin(rec.trace)) + 1:
            failed.append("t_hat")
    if rec.grid is not None:
        values, scores = rec.grid
        if len(scores) != len(values) or rec.lam != _grid_choice(values, scores):
            failed.append("lambda")
    return failed


def compare_digest(recs, expected) -> list[str]:
    """Exact match on t_hat, lambda, support, partitions; coefficients to COEF_TOL."""
    if len(recs) != len(expected):
        return ["digest"]
    for rec, exp in zip(recs, expected):
        got = rec.digest()
        for key in ("method", "t_hat", "lambda", "support", "partitions"):
            if got[key] != exp[key]:
                return ["digest"]
        diff = np.abs(np.array(got["coefficients"]) - np.array(exp["coefficients"]))
        if diff.size and diff.max() > COEF_TOL:
            return ["digest"]
    return []


class OutputChecker:
    """Runs every check on one operation's records; keeps first fingerprints."""

    def __init__(self, root, workload, seed):
        with open(os.path.join(root, "src", "cdboost", "schemas", "fit_result.schema.json")) as fh:
            self.schema = json.load(fh)
        self.seen = {}
        self.expected = None
        if seed == DIGEST_SEED:
            with open(EXPECTED_PATH) as fh:
                self.expected = json.load(fh)[workload]

    def __call__(self, index, recs, payload, fingerprint) -> list[str]:
        failed = []
        if payload is not None:
            try:
                jsonschema.validate(payload, self.schema)
            except jsonschema.ValidationError:
                failed.append("schema")
        for rec in recs:
            failed += check_record(rec)
        if self.seen.setdefault(index, fingerprint) != fingerprint:
            failed.append("repeat")
        if self.expected is not None:
            failed += compare_digest(recs, self.expected[index])
        return sorted(set(failed))

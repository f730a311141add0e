"""The four benchmark workloads.

Each workload has three parts:

* ``prepare(seed, workdir)`` runs in a fresh process and is what
  ``setup_s`` times: import cdboost, then generate (and, for the CLI
  workloads, write) the inputs derived from the seed.
* ``inputs(seed, workdir)`` returns the fixed cycle of operation inputs that
  a run walks through, in order.
* ``op(inp)`` is one timed operation; ``records(inp, result, captured)``
  turns its result into fit records (see ``checks.FitRecord``) for the
  output checks, plus the CLI JSON and a fingerprint of the output.

All workloads run closed loop: one client, one operation at a time,
``workers=1``.
"""

import hashlib
import json
import os

import numpy as np

from cdboost import boosting, cli, metrics
from cdboost.data import BoostConfig, DatasetBundle, GroupStructure, read_groups_tsv
from cdboost.simulate import SimDesign
from cdboost.tuning import default_lambda_grid

from checks import FitRecord

FIT_ITERS = 500          # cdboost fit --iters, as in the README headline command
AFT_ITERS = 1500         # T of one reduced-preset table replicate
M8_ITERS = 200           # T of the cd-m8 fit and the M sweep
M8_LAMBDA = 1.0


def stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def multi_dataset(seed: int, M: int, n: int = 100, p: int = 400, K: int = 8):
    """Linear-regression data for M datasets sharing p covariates in K groups.

    Groups cycle through four kinds: shared (one coefficient block for all
    datasets), partly shared (each half of the datasets has its own block),
    shared again, and null. The signal groups carry two important
    covariates each. The partly shared groups make the cd fit split
    classes; the null groups keep an all-common class alive, so the fit
    enumerates all 2^M - 1 subsets to the end and its work hardly depends on
    the seed. Columns are standardized.
    """
    assignment = np.repeat(np.arange(K), p // K)
    assignment = np.concatenate([assignment, np.full(p - assignment.size, K - 1)])
    groups = GroupStructure(assignment=assignment)
    rng = stream(seed, M, 0)
    beta = np.zeros((p, M))
    halves = (np.arange(M) * 2) // M
    for k in range(K):
        idx = rng.choice(groups.indices(k), 2, replace=False)
        if k % 4 == 3:
            continue
        if k % 2 == 0:
            beta[idx, :] = rng.uniform(0.5, 1.0, 2)[:, None]
        else:
            for h in (0, 1):
                beta[np.ix_(idx, np.flatnonzero(halves == h))] = rng.uniform(0.5, 1.0, (2, 1))
    bundles = []
    for m in range(M):
        r = stream(seed, M, m + 1)
        X = r.standard_normal((n, p))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        y = X @ beta[:, m] + r.standard_normal(n)
        bundles.append(DatasetBundle(X=X, y=y, id=m))
    return bundles, groups


def _csv_paths(workdir):
    return [os.path.join(workdir, f"dataset_{m}.csv") for m in (1, 2, 3)]


class _CliFit:
    """``cdboost fit`` on standard-preset CSVs (M=3, n=200, p=1000, K=20, LR)."""

    def prepare(self, seed, workdir):
        rc = cli.main(["simulate", "--preset", "standard", "--model", "lr",
                       "--seed", str(seed), "--outdir", workdir])
        if rc != 0:
            raise RuntimeError(f"cdboost simulate exited {rc}")

    def inputs(self, seed, workdir):
        with open(_csv_paths(workdir)[0]) as fh:
            names = fh.readline().strip().split(",")[1:]
        groups = read_groups_tsv(os.path.join(workdir, "groups.tsv"), names)
        out = os.path.join(workdir, "fit.json")
        base = ["fit", "--data", *_csv_paths(workdir),
                "--groups", os.path.join(workdir, "groups.tsv"),
                "--iters", str(FIT_ITERS), "--output", out]
        return [dict(argv=base + extra, out=out, groups=groups, p=len(names))
                for extra in self.variants]

    def op(self, inp):
        return cli.main(inp["argv"])

    def records(self, inp, rc, captured):
        if rc != 0:
            raise RuntimeError(f"cdboost fit exited {rc}")
        with open(inp["out"], "rb") as fh:
            raw = fh.read()
        payload = json.loads(raw)
        beta = np.zeros((inp["p"], 3))
        for j, m, v in payload["coefficients"]:
            beta[j, m] = v
        trace = np.array([np.inf if v is None else v for v in payload["objective_trace"]])
        grid = captured[0][1] if captured else None
        rec = FitRecord(
            method=payload["method"], t_hat=payload["t_hat"], lam=payload["lambda"],
            beta=beta, partitions=[tuple(tuple(c) for c in g["classes"])
                                   for g in payload["group_verdicts"]],
            trace=trace, groups=inp["groups"],
            grid=None if grid is None else (grid.values, grid.scores),
        )
        return [rec], payload, hashlib.sha256(raw).hexdigest()


class CliGrid(_CliFit):
    name = "cli-grid"
    variants = [["--method", "cd-sboost", "--lambda", "auto"]]


class CliBaselines(_CliFit):
    name = "cli-baselines"
    variants = [["--method", m] for m in ("sep-sboost", "int-sboost", "pool-sboost")]


class ReplicateAft:
    """One reduced-preset AFT row-replicate of the paper's table."""

    name = "replicate-aft"
    methods = ("cd", "int", "sep", "pool")

    def _design(self, seed):
        return SimDesign(M=3, n=100, p=400, K=8, model="aft", seed=seed)

    def prepare(self, seed, workdir):
        self._design(seed).groups()

    def inputs(self, seed, workdir):
        design = self._design(seed)
        config = BoostConfig(T=AFT_ITERS, model="aft")
        return [dict(design=design, config=config, groups=design.groups())]

    def op(self, inp):
        return metrics.benchmark(inp["design"], self.methods, replicates=1,
                                 config=inp["config"], tune=True, workers=1,
                                 verify=True)

    def records(self, inp, report, captured):
        if report.failures:
            raise RuntimeError(f"benchmark failures: {report.failures}")
        if len(captured) != len(self.methods):
            raise RuntimeError(f"captured {len(captured)} fits for {len(self.methods)} methods")
        recs = []
        for row, (fit, grid) in zip(report.rows, captured):
            if row.t_hat != fit.t_hat:
                raise RuntimeError(f"{row.method}: report t_hat {row.t_hat} != fit {fit.t_hat}")
            recs.append(FitRecord.from_fit(
                row.method, fit, row.lam, inp["groups"],
                None if grid is None else (grid.values, grid.scores)))
        payload = json.dumps(report.to_json(), sort_keys=True, default=float)
        digest = hashlib.sha256(payload.encode())
        for r in recs:
            digest.update(r.fingerprint().encode())
        return recs, None, digest.hexdigest()


class CdM8:
    """``boosting.fit`` with cd-sboost at M=8, n=100, p=400, K=8, T=200."""

    name = "cd-m8"
    M = 8

    def prepare(self, seed, workdir):
        multi_dataset(seed, self.M)

    def inputs(self, seed, workdir):
        bundles, groups = multi_dataset(seed, self.M)
        config = BoostConfig(T=M8_ITERS, lam=M8_LAMBDA, algorithm="cd_sboost")
        return [dict(bundles=bundles, groups=groups, config=config)]

    def op(self, inp):
        return boosting.fit(inp["bundles"], inp["groups"], inp["config"])

    def records(self, inp, fit, captured):
        rec = FitRecord.from_fit("cd_sboost", fit, M8_LAMBDA, inp["groups"], None)
        return [rec], None, rec.fingerprint()


WORKLOADS = {w.name: w for w in (CliGrid(), ReplicateAft(), CdM8(), CliBaselines())}


class Capture:
    """Keeps what the output checks need but the op's result omits.

    ``cdboost fit`` writes neither the lambda-grid scores nor the fits, and
    ``metrics.benchmark`` keeps only summary rows. While installed, this
    wraps ``cli.select_lambda``, ``metrics.select_lambda`` and
    ``metrics.run_fit`` where their callers look them up, and records each
    call's (fit, grid). Without a grid argument, ``select_lambda`` builds
    ``default_lambda_grid(bundles)`` itself; passing that same grid in
    changes nothing but lets the scores be read back.
    """

    def __init__(self):
        self.items = []
        self._saved = []

    def __enter__(self):
        def select(orig):
            def wrapper(bundles, groups, config, grid=None, **kw):
                bundles = list(bundles)
                if grid is None:
                    grid = default_lambda_grid(bundles)
                lam, fit = orig(bundles, groups, config, grid=grid, **kw)
                self.items.append((fit, grid))
                return lam, fit
            return wrapper

        def run_fit(orig):
            def wrapper(*args, **kw):
                fit = orig(*args, **kw)
                self.items.append((fit, None))
                return fit
            return wrapper

        for mod, name, make in ((cli, "select_lambda", select),
                                (metrics, "select_lambda", select),
                                (metrics, "run_fit", run_fit)):
            orig = getattr(mod, name)
            self._saved.append((mod, name, orig))
            setattr(mod, name, make(orig))
        return self

    def take(self):
        items, self.items = self.items, []
        return items

    def __exit__(self, *exc):
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()

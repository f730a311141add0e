"""Synthetic multi-dataset benchmark generator.

Three dataset-level commonality scenarios are allocated to covariate groups:
``full`` (all datasets share the group's important covariates and their
coefficients), ``partial`` (two of three datasets share: sub-case (a) is
datasets 1 and 2, sub-case (b) is datasets 2 and 3), and ``none`` (every
dataset has its own important pair).  Each group carries exactly two
important covariates per dataset.  ``_LAYOUT`` is the one statement of the
scenarios: for each, which datasets share each important pair and the
uniform range its coefficients are drawn from under the ``random`` scheme.
Under the ``fixed`` scheme every nonzero equals ``coef_value``.

Covariates follow a per-group autoregressive structure, optionally mixed
with a global factor: two covariates of the same group at positions i and j
correlate at ``between + (1-between) * rho_w**|i-j|``, cross-group pairs at
``between_corr`` (default 0), with rho_w chosen so adjacent same-group
correlation is exactly ``within_corr``.  Same-group pairs are therefore
always more correlated than cross-group pairs, decaying with distance.
Each dataset is column-standardized in sample, so the stored truth is
exact on the fitted scale.

All randomness flows through ``stream(seed, replicate, dataset, purpose)``:
one counter-based generator per (replicate, dataset, purpose), so replicates
can be generated in parallel, in any order, with identical output.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import (
    DatasetBundle,
    GroupStructure,
    NumericError,
    ValidationError,
    adjacent_equal_pairs,
    standardize_columns,
    write_dataset_csv,
    write_groups_tsv,
)

# purpose codes for the seed scheme; dataset slot is 0 where not applicable
P_TRUTH = 0
P_COVARIATES = 1
P_NOISE = 2
P_CENSORING = 3
P_TEST_COVARIATES = 4
P_TEST_NOISE = 5
P_SPLIT = 6

_SIZE_PATTERN = (20, 30, 40, 50, 60, 70, 80)

# per scenario, one (datasets, (lo, hi)) entry per important pair of a
# group, in draw order: the pair's coefficients are shared by ``datasets``
# and drawn from U[lo, hi] under the random scheme
_LAYOUT = {
    "full": [((0, 1, 2), (0.4, 0.7))],
    "partial_a": [((0, 1), (0.4, 0.7)), ((2,), (0.8, 1.0))],
    "partial_b": [((0,), (0.1, 0.3)), ((1, 2), (0.4, 0.7))],
    "none": [((0,), (0.1, 0.3)), ((1,), (0.4, 0.7)), ((2,), (0.8, 1.0))],
}
SCENARIOS = tuple(_LAYOUT)


class CalibrationError(NumericError):
    """Censoring-rate bisection failed to converge."""


def stream(seed: int, replicate: int, dataset: int, purpose: int) -> np.random.Generator:
    """Independent generator for one (replicate, dataset, purpose) slot."""
    if seed < 0 or replicate < 0:
        raise ValidationError(f"seed and replicate must be >= 0, got {seed} and {replicate}")
    return np.random.default_rng(np.random.SeedSequence([seed, replicate, dataset, purpose]))


def group_sizes(p: int, K: int) -> np.ndarray:
    """Cycle the pattern 20,30,...,80 over K groups, scale to sum to p.

    Scaling uses the largest-remainder rule so sizes are integers summing
    exactly to p (individual sizes may leave [20, 80] slightly).
    """
    if K <= 0 or p < K:
        raise ValidationError(f"cannot split p={p} covariates into K={K} groups")
    raw = np.array([_SIZE_PATTERN[k % len(_SIZE_PATTERN)] for k in range(K)], dtype=float)
    scaled = raw * (p / raw.sum())
    sizes = np.floor(scaled).astype(int)
    frac = scaled - sizes
    short = p - sizes.sum()
    for idx in np.argsort(-frac, kind="stable")[:short]:
        sizes[idx] += 1
    return sizes


def scenario_counts(K: int, rho_f: float, rho_p: float, rho_n: float) -> tuple[int, int, int]:
    """Group counts per scenario: round(K * rho), residual to the largest rho."""
    rhos = (rho_f, rho_p, rho_n)
    counts = [int(math.floor(K * r + 0.5)) for r in rhos]
    counts[int(np.argmax(rhos))] += K - sum(counts)
    if min(counts) < 0 or sum(counts) != K:
        raise ValidationError(f"infeasible scenario proportions {rhos}")
    return tuple(counts)


@dataclass(frozen=True)
class SimDesign:
    """Benchmark design parameters; defaults give the standard setting."""

    M: int = 3
    n: int = 200
    p: int = 1000
    K: int = 20
    rho_f: float = 0.8
    rho_p: float = 0.2
    rho_n: float = 0.0
    coef_scheme: str = "random"
    coef_value: float = 0.5
    sigma2: float = 1.0
    model: str = "lr"
    target_censoring: float = 0.25
    within_corr: float = 0.4
    between_corr: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.M < 1:
            raise ValidationError("M must be >= 1")
        if self.n < 2:
            raise ValidationError(f"n must be >= 2, got {self.n}")
        if abs(self.rho_f + self.rho_p + self.rho_n - 1.0) > 1e-9:
            raise ValidationError("scenario proportions must sum to 1")
        if min(self.rho_f, self.rho_p, self.rho_n) < 0:
            raise ValidationError("scenario proportions must be nonnegative")
        if self.coef_scheme not in ("random", "fixed"):
            raise ValidationError(f"unknown coef_scheme {self.coef_scheme!r}")
        if self.model not in ("lr", "aft"):
            raise ValidationError(f"unknown model {self.model!r}")
        if self.sigma2 <= 0:
            raise ValidationError("sigma2 must be positive")
        if not all(map(math.isfinite, (self.rho_f, self.rho_p, self.rho_n, self.sigma2))):
            raise ValidationError("scenario proportions and sigma2 must be finite")
        if not 0 < self.target_censoring < 1:
            raise ValidationError("target_censoring must lie in (0, 1)")
        if not 0 <= self.between_corr < self.within_corr < 1:
            raise ValidationError("need 0 <= between_corr < within_corr < 1")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        group_sizes(self.p, self.K)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def rho_within(self) -> float:
        """AR parameter of the within-group component; adjacent same-group
        covariates then correlate at exactly within_corr."""
        return (self.within_corr - self.between_corr) / (1.0 - self.between_corr)

    @property
    def sizes(self) -> np.ndarray:
        return group_sizes(self.p, self.K)

    def groups(self) -> GroupStructure:
        assignment = np.repeat(np.arange(self.K), self.sizes)
        return GroupStructure(assignment=assignment)


@dataclass(frozen=True)
class GroundTruth:
    """Realized coefficients plus the scenario bookkeeping behind them."""

    beta: np.ndarray                      # (p, M)
    scenarios: tuple[str, ...]            # per group
    equal_pairs: tuple[tuple[bool, ...], ...]  # per group, adjacent dataset pairs
    important: tuple[tuple[int, ...], ...]     # per dataset, sorted indices

    @property
    def n_ig(self) -> int:
        return sum(sum(pairs) for pairs in self.equal_pairs)


def _scenario_assignment(design: SimDesign, rng) -> tuple[str, ...]:
    n_f, n_p, n_n = scenario_counts(design.K, design.rho_f, design.rho_p, design.rho_n)
    order = rng.permutation(design.K)
    label = {}
    for k in order[:n_f]:
        label[int(k)] = "full"
    # partial sub-cases alternate a, b, a, ... over groups in index order
    for i, k in enumerate(sorted(int(k) for k in order[n_f:n_f + n_p])):
        label[k] = "partial_a" if i % 2 == 0 else "partial_b"
    for k in order[n_f + n_p:]:
        label[int(k)] = "none"
    return tuple(label[k] for k in range(design.K))


def gen_truth(design: SimDesign, replicate: int = 0,
              scenarios: tuple[str, ...] | None = None) -> GroundTruth:
    """Allocate scenarios to groups and draw the true coefficients.

    ``scenarios`` overrides the random allocation (used by the fixed small
    example); labels must come from SCENARIOS.
    """
    if design.M != 3:
        raise ValidationError("truth generation is defined for M=3 datasets")
    rng = stream(design.seed, replicate, 0, P_TRUTH)
    if scenarios is None:
        scenarios = _scenario_assignment(design, rng)
    else:
        scenarios = tuple(scenarios)
        if len(scenarios) != design.K or any(s not in SCENARIOS for s in scenarios):
            raise ValidationError("bad scenario override")
    sizes = design.sizes
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    beta = np.zeros((design.p, design.M))

    def draw(lo, hi):
        if design.coef_scheme == "fixed":
            return np.full(2, design.coef_value)
        return rng.uniform(lo, hi, 2)

    for k, scen in enumerate(scenarios):
        layout = _LAYOUT[scen]
        need = 2 * len(layout)
        if sizes[k] < need:
            raise ValidationError(f"group {k} of size {sizes[k]} cannot host {need} importants")
        pos = offsets[k] + rng.choice(sizes[k], need, replace=False)
        for i, (datasets, (lo, hi)) in enumerate(layout):
            beta[np.ix_(pos[2 * i:2 * i + 2], datasets)] = draw(lo, hi)[:, None]

    important = tuple(
        tuple(int(j) for j in np.flatnonzero(beta[:, m])) for m in range(design.M)
    )
    return GroundTruth(
        beta=beta,
        scenarios=scenarios,
        equal_pairs=adjacent_equal_pairs(beta, design.groups()),
        important=important,
    )


def gen_covariates(design: SimDesign, replicate: int = 0, test: bool = False) -> list[np.ndarray]:
    """Correlated covariates per dataset, column-standardized in sample.

    x_j = sqrt(b) z0 + sqrt(1-b) u_j with one global factor z0 per dataset
    and u an AR(rho_within) chain restarted at every group boundary.  Draw
    order per dataset: global factor, then the noise matrix.
    """
    purpose = P_TEST_COVARIATES if test else P_COVARIATES
    b = design.between_corr
    rho = design.rho_within
    sizes = design.sizes
    out = []
    for m in range(design.M):
        rng = stream(design.seed, replicate, m + 1, purpose)
        z0 = rng.standard_normal((design.n, 1))
        # the noise z becomes the chain u in place: column j reads column
        # j - 1 after its own update, as it would from a separate u
        u = rng.standard_normal((design.n, design.p))
        start = 0
        for g in sizes:
            for j in range(start + 1, start + g):
                u[:, j] = rho * u[:, j - 1] + math.sqrt(1 - rho * rho) * u[:, j]
            start += g
        # sqrt(1-b) u + sqrt(b) z0 is sqrt(b) z0 + sqrt(1-b) u exactly
        u *= math.sqrt(1 - b)
        u += math.sqrt(b) * z0
        out.append(standardize_columns(u, out=u))
    return out


# the censoring calibration stops within this much of the target fraction,
# or fails after this many steps
_CENSORING_TOL = 0.02
_CENSORING_MAX_STEPS = 60


def _calibrate_censoring(log_times: np.ndarray, target: float) -> float:
    """Upper bound c of the uniform censoring law, set by bisection.

    With censoring times U[0, c], the expected censored fraction given the
    drawn event times T is mean(min(T/c, 1)), decreasing in c.  Event times,
    or a bound c, past the float range raise before any bisection step.
    """
    with np.errstate(over="ignore"):
        T = np.exp(log_times)

    def rate(c):
        return float(np.minimum(T / c, 1.0).mean())

    steps = 0
    hi = float(T.max())
    while hi < math.inf and rate(hi) > target and steps < _CENSORING_MAX_STEPS:
        hi *= 2.0
        steps += 1
    if hi == math.inf:
        raise CalibrationError(
            f"censoring calibration overflows the float range: the largest log "
            f"event time is {float(log_times.max()):.6g}")
    lo = hi * 1e-12
    while steps < _CENSORING_MAX_STEPS:
        mid = 0.5 * (lo + hi)
        r = rate(mid)
        if abs(r - target) <= _CENSORING_TOL:
            return mid
        if r > target:
            lo = mid
        else:
            hi = mid
        steps += 1
    raise CalibrationError(
        f"censoring calibration did not converge in {_CENSORING_MAX_STEPS} steps")


def gen_responses(design: SimDesign, truth: GroundTruth, X: list[np.ndarray],
                  replicate: int = 0, test: bool = False):
    """Responses per dataset: (y, delta) with delta None under the LR model.

    AFT: y is the observed log time, min(log event time, log censoring
    time), censoring uniform on [0, c] with c calibrated per dataset.
    """
    noise_purpose = P_TEST_NOISE if test else P_NOISE
    out = []
    for m in range(design.M):
        rng = stream(design.seed, replicate, m + 1, noise_purpose)
        signal = X[m] @ truth.beta[:, m]
        y = signal + design.sigma * rng.standard_normal(X[m].shape[0])
        if design.model == "lr":
            out.append((y, None))
            continue
        c = _calibrate_censoring(y, design.target_censoring)
        crng = stream(design.seed, replicate, m + 1, P_CENSORING)
        cens = crng.uniform(0.0, c, X[m].shape[0])
        log_cens = np.log(np.maximum(cens, 1e-300))  # U[0,c) can return 0.0
        delta = (y <= log_cens).astype(int)
        out.append((np.minimum(y, log_cens), delta))
    return out


def simulate_replicate(design: SimDesign, replicate: int = 0,
                       truth: GroundTruth | None = None, test: bool = False):
    """One full draw: (bundles, truth).

    Passing an existing truth (with test=True) yields an independent test
    draw of the same size under the same coefficients.
    """
    if truth is None:
        truth = gen_truth(design, replicate)
    X = gen_covariates(design, replicate, test=test)
    resp = gen_responses(design, truth, X, replicate, test=test)
    bundles = [
        DatasetBundle(X=X[m], y=y, delta=delta, id=m)
        for m, (y, delta) in enumerate(resp)
    ]
    return bundles, truth


# the small example's groups, one per scenario
SMALL_EXAMPLE_SCENARIOS = ("full", "none", "partial_a", "partial_b")


def small_example_design(seed: int = 0, model: str = "lr") -> SimDesign:
    return SimDesign(
        M=3, n=50, p=200, K=4, rho_f=0.25, rho_p=0.5, rho_n=0.25,
        coef_scheme="fixed", coef_value=1.0, sigma2=1.0, model=model, seed=seed,
    )


def covariance_quad_form(design: SimDesign, d: np.ndarray) -> float:
    """d' Sigma d from the generator's structure, block by block."""
    b = design.between_corr
    rho = design.rho_within
    total = float(d.sum())
    out = b * total * total
    start = 0
    for g in design.sizes:
        dk = d[start:start + g]
        idx = np.arange(g)
        block = rho ** np.abs(idx[:, None] - idx[None, :])
        out += (1 - b) * float(dk @ block @ dk)
        start += g
    return out


def covariate_names(p: int) -> list[str]:
    width = len(str(p))
    return [f"x{j + 1:0{width}d}" for j in range(p)]


def truth_payload(design: SimDesign, truth: GroundTruth) -> dict:
    """JSON-ready description of the realized truth."""
    nz = np.nonzero(truth.beta)
    return {
        "model": design.model,
        "sigma2": design.sigma2,
        "p": design.p,
        "M": design.M,
        "K": design.K,
        "n_ig": truth.n_ig,
        "scenarios": list(truth.scenarios),
        "equal_pairs": [list(map(bool, pairs)) for pairs in truth.equal_pairs],
        "beta": [
            [int(j), int(m), float(truth.beta[j, m])] for j, m in zip(*nz)
        ],
        "important": [list(idx) for idx in truth.important],
    }


def write_simulation(outdir, design: SimDesign, replicate: int = 0,
                     scenarios: tuple[str, ...] | None = None):
    """Emit dataset_<m>.csv files, groups.tsv, and truth.json."""
    import os

    os.makedirs(outdir, exist_ok=True)
    truth = gen_truth(design, replicate, scenarios=scenarios)
    bundles, truth = simulate_replicate(design, replicate, truth=truth)
    names = covariate_names(design.p)
    paths = []
    for m, bundle in enumerate(bundles):
        path = os.path.join(outdir, f"dataset_{m + 1}.csv")
        write_dataset_csv(path, bundle.X, bundle.y, delta=bundle.delta, names=names)
        paths.append(path)
    groups_path = os.path.join(outdir, "groups.tsv")
    write_groups_tsv(groups_path, design.groups(), names=names)
    truth_path = os.path.join(outdir, "truth.json")
    with open(truth_path, "w") as fh:
        json.dump(truth_payload(design, truth), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths, groups_path, truth_path

"""Shared data model: dataset bundles, group structure, fit configuration
and results.

All fitting algorithms operate on a list of ``DatasetBundle`` objects that
share the same covariates (p columns in identical order) and a
``GroupStructure`` partitioning the covariates into K non-overlapping groups.
``CoefficientState`` (a p x M coefficient matrix with per-group equality
classes) and ``partition_refresh`` serve no fitter: only
``perfbench/checks.py`` and the tests use them.

The boosting path tracks equality classes structurally, as one label row
per group (entry m is the smallest dataset in m's class): datasets that
receive identical joint increments keep exactly equal coefficient blocks, so
its step loop compares no floats.  The classes the cd and lockstep fitters
report are read off the coefficients by exact block comparison instead,
through ``block_partitions``, which builds each group's label row with
``block_labels``, the one exact block comparison: ``adjacent_equal_pairs``
compares its labels.  The cd path's ``verify_partitions`` check instead
compares each coefficient with that of the dataset labelling its tracked
class, which needs no pairwise (M, M) table.

A bundle owns its arrays.  The CSV reader puts the covariate cells of
each row into one float64 table and collects ``y`` and ``delta`` apart;
``X`` is a view of that table, standardized in place, which no other
object holds.  Dropping a bundle frees all that was loaded.  Column means,
standard deviations and norms are taken a block of columns at a time
(``_by_column_blocks``, 32 KiB blocks unless two columns take more), with
the bits of numpy's whole-array reductions, and finiteness is read off an
array's minimum and maximum (``_all_finite``), so no stage holds a second
n x p array or an n x p mask.  The CLI and the benchmark put survival rows
in the order the loss takes them in (``losses.survival_sorted``) once, as
the data is loaded or simulated, so no fit copies them again.

``_run_in_order`` is the one place where independent jobs (grid values,
benchmark replicates, stability splits) fan out to worker processes.
"""

import array
import collections
import concurrent.futures
import csv
import math
from dataclasses import dataclass

import numpy as np

# A partition of datasets {0..M-1} is stored canonically as a tuple of
# classes, each class a sorted tuple of dataset indices, classes ordered by
# their smallest member.
Partition = tuple[tuple[int, ...], ...]

ALGORITHMS = ("sboost", "int_sboost", "sep_sboost", "cd_sboost", "pool_sboost")
MODELS = ("lr", "aft")


class ParseError(ValueError):
    """Malformed input file (ragged rows, non-numeric cells, bad header)."""


class ValidationError(ValueError):
    """Structurally inconsistent problem (dimensions, groups, censoring)."""


class NumericError(RuntimeError):
    """Numeric failure: degenerate fits, failed calibration, bad splits."""


def _all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` of a float array without an ``a``-sized mask:
    a NaN propagates through ``min`` and ``max``, and an infinity is one of
    them.  An empty array is finite."""
    return a.size == 0 or (math.isfinite(a.min()) and math.isfinite(a.max()))


def _integers(values, what: str) -> np.ndarray:
    """``values`` as an int array, not copied where it already is one;
    ``ValidationError`` unless every value is a whole number, so that no
    fraction is truncated away."""
    a = np.asarray(values)
    if a.dtype.kind not in "biu":
        try:
            a = a.astype(float)
        except (TypeError, ValueError):
            raise ValidationError(f"{what}: expected whole numbers") from None
        if not (_all_finite(a) and (a == np.trunc(a)).all()):
            raise ValidationError(f"{what}: expected whole numbers")
    return np.asarray(a, dtype=int)


@dataclass(frozen=True)
class DatasetBundle:
    """One dataset: covariates, response, optional censoring indicators.

    Parameters
    ----------
    X : ndarray, shape (n, p)
        Covariate matrix (standardized at load time for file inputs).
    y : ndarray, shape (n,)
        Response; for survival data this is the observed log-time.
    delta : ndarray or None, shape (n,)
        Event indicator (1 = event, 0 = censored). Present for survival
        data only.
    id : int
        Dataset index.
    """

    X: np.ndarray
    y: np.ndarray
    delta: np.ndarray | None = None
    id: int = 0

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2:
            raise ValidationError(f"dataset {self.id}: X must be 2-D")
        if y.shape != (X.shape[0],):
            raise ValidationError(
                f"dataset {self.id}: y has length {y.shape[0]}, X has {X.shape[0]} rows"
            )
        if X.shape[0] < 2:
            raise ValidationError(f"dataset {self.id}: needs at least 2 rows")
        if not (_all_finite(X) and _all_finite(y)):
            raise ValidationError(f"dataset {self.id}: non-finite values")
        if self.delta is not None:
            d = _integers(self.delta, f"dataset {self.id}: delta")
            object.__setattr__(self, "delta", d)
            if d.shape != y.shape:
                raise ValidationError(f"dataset {self.id}: delta length mismatch")
            if not np.isin(d, (0, 1)).all():
                raise ValidationError(f"dataset {self.id}: delta must be 0/1")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class GroupStructure:
    """Partition of the p covariates into K non-overlapping groups.

    ``assignment[s]`` is the 0-based group index of covariate s. Groups must
    be non-empty and cover all covariates.
    """

    assignment: np.ndarray

    def __post_init__(self):
        a = _integers(self.assignment, "group ids")
        object.__setattr__(self, "assignment", a)
        if a.ndim != 1 or a.size == 0:
            raise ValidationError("group assignment must be a non-empty 1-D array")
        if a.min() < 0:
            raise ValidationError(f"group ids must be >= 0, got {int(a.min())}")
        counts = np.bincount(a)
        if (counts == 0).any():
            missing = np.nonzero(counts == 0)[0].tolist()
            raise ValidationError(f"empty groups: {missing}")

    @property
    def p(self) -> int:
        return self.assignment.size

    @property
    def K(self) -> int:
        return int(self.assignment.max()) + 1

    def indices(self, k: int) -> np.ndarray:
        """Covariate indices belonging to group k."""
        return np.nonzero(self.assignment == k)[0]


@dataclass(frozen=True)
class BoostConfig:
    """Fitting configuration shared by all boosting variants.

    ``lam`` is the commonality tuning parameter and is only consulted by
    the commonality/difference algorithm; ``penalty_mode`` selects between
    counting all dataset pairs or only adjacent pairs of an ordered sequence.
    """

    nu: float = 0.1
    T: int = 500
    lam: float = 0.0
    algorithm: str = "cd_sboost"
    model: str = "lr"
    penalty_mode: str = "all_pairs"

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ValidationError(f"step size nu must be in (0, 1], got {self.nu}")
        T = _integers(self.T, "iteration cap T")
        if T.ndim or T < 1:
            raise ValidationError(f"iteration cap T must be an integer >= 1, got {self.T!r}")
        object.__setattr__(self, "T", int(T))
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValidationError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.algorithm not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if self.model not in MODELS:
            raise ValidationError(f"unknown model {self.model!r}")
        if self.penalty_mode not in ("all_pairs", "ordered"):
            raise ValidationError(f"unknown penalty mode {self.penalty_mode!r}")


@dataclass
class CoefficientState:
    """p x M coefficient matrix plus per-group dataset equality classes; only
    ``perfbench/checks.py`` and the tests use it."""

    beta: np.ndarray
    partitions: list[Partition]


@dataclass
class FitResult:
    """Outcome of one fitting run at the selected iteration.

    ``beta_hat`` is p x M, ``partitions`` the per-group equality classes at
    the selected iteration, ``objective_trace`` the stopping objective for
    t = 1..T, and ``selected`` the per-dataset arrays of covariates with
    nonzero estimates.  ``final_partitions`` holds the classes after the
    last iteration T of the cd_sboost path (None for the other fitters).
    """

    beta_hat: np.ndarray
    t_hat: int
    partitions: list[Partition]
    objective_trace: np.ndarray
    loss_trace: np.ndarray | None = None  # summed pure loss per iteration
    final_partitions: list[Partition] | None = None

    @property
    def selected(self) -> list[np.ndarray]:
        return [np.nonzero(self.beta_hat[:, m])[0] for m in range(self.M)]

    @property
    def M(self) -> int:
        return self.beta_hat.shape[1]

    def group_verdicts(self) -> list[str]:
        """Per group: 'common', 'partial', or 'different' from the partition."""
        out = []
        for part in self.partitions:
            if len(part) == 1:
                out.append("common")
            elif all(len(c) == 1 for c in part):
                out.append("different")
            else:
                out.append("partial")
        return out


def all_common_partition(M: int) -> Partition:
    return (tuple(range(M)),)


def validate(bundles, groups: GroupStructure, model: str = "lr") -> None:
    """Check cross-dataset consistency.

    Raises ``ValidationError`` on dimension mismatch, sample sizes below 2,
    missing values, censoring indicators under the linear-regression model,
    missing or all-zero indicators under the survival model, or group
    structure not matching p.
    """
    bundles = list(bundles)
    if not bundles:
        raise ValidationError("no datasets given")
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}")
    p = bundles[0].p
    has_delta = bundles[0].delta is not None
    for b in bundles:
        if b.p != p:
            raise ValidationError(f"dataset {b.id}: p={b.p}, expected {p}")
        if b.n < 2:
            raise ValidationError(f"dataset {b.id}: needs at least 2 observations")
        if not (_all_finite(b.X) and _all_finite(b.y)):
            raise ValidationError(f"dataset {b.id}: non-finite values")
        if (b.delta is not None) != has_delta:
            raise ValidationError("censoring indicators must be present for all datasets or none")
    if model == "lr" and has_delta:
        raise ValidationError("censoring indicators present under the LR model")
    if model == "aft":
        if not has_delta:
            raise ValidationError("AFT model requires event indicators")
        for b in bundles:
            if b.delta.sum() == 0:
                raise ValidationError(f"dataset {b.id}: all observations censored")
    if groups.p != p:
        raise ValidationError(f"group structure covers {groups.p} covariates, data has {p}")


def label_classes(labels) -> Partition:
    """The canonical partition of a label row (entry m names m's class)."""
    classes: dict[int, list[int]] = {}
    for m, c in enumerate(labels):
        classes.setdefault(c, []).append(m)
    return tuple(map(tuple, classes.values()))


def block_labels(block: np.ndarray) -> list[int]:
    """Label row of the exact equality classes of the columns of a (rows, M)
    block: entry m is the first column equal to column m in every row (all
    columns are, with no rows).  Exact ``==`` is transitive on non-NaN
    floats, so equal columns share a label; a column holding NaN equals no
    column, itself included, and keeps its own label.
    """
    eq = (block[:, :, None] == block[:, None, :]).all(axis=0)
    return [row.index(True) if row[m] else m for m, row in enumerate(eq.tolist())]


def block_partitions(beta: np.ndarray, groups: GroupStructure) -> list[Partition]:
    """Per group, the exact equality classes of the datasets' coefficient
    blocks of a p x M ``beta``."""
    return [label_classes(block_labels(beta[groups.indices(k)])) for k in range(groups.K)]


def adjacent_equal_pairs(beta: np.ndarray, groups: GroupStructure) -> tuple[tuple[bool, ...], ...]:
    """Per group, exact block equality of each adjacent dataset pair (m, m+1)."""
    rows = (block_labels(beta[groups.indices(k)]) for k in range(groups.K))
    return tuple(tuple(a == b for a, b in zip(row, row[1:])) for row in rows)


def partition_refresh(state: CoefficientState, groups: GroupStructure) -> CoefficientState:
    """Recompute equality classes by exact element-wise block comparison."""
    return CoefficientState(beta=state.beta, partitions=block_partitions(state.beta, groups))


def _run_in_order(fn, jobs, workers: int = 1):
    """Yield ``fn(job)`` for every job, in job order.

    With ``workers > 1`` and more than one job the calls run in a pool of
    ``min(workers, len(jobs))`` processes that holds at most that many jobs
    ahead of the consumer: job i + workers is submitted only once result i
    has been taken.  Closing the generator early cancels the jobs not yet
    handed to a worker.  An exception raised by ``fn`` propagates either way.
    """
    if workers <= 1 or len(jobs) <= 1:
        yield from map(fn, jobs)
        return
    workers = min(workers, len(jobs))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        pending = collections.deque(pool.submit(fn, job) for job in jobs[:workers])
        try:
            for job in jobs[workers:]:
                yield pending.popleft().result()
                pending.append(pool.submit(fn, job))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


# ---------------------------------------------------------------------------
# File formats: one CSV per dataset (header row: y[,delta],<covariates...>)
# and a two-column TSV mapping covariate name -> group id.
# ---------------------------------------------------------------------------


def _parse_float(cell: str, where: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise ParseError(f"{where}: non-numeric cell {cell!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"{where}: non-finite cell {cell!r}")
    return v


def _csv_rows(path, delimiter=","):
    """The rows of a text table; one leading byte-order mark is dropped, and
    bytes that are not UTF-8 and rows the csv module rejects raise
    ``ParseError`` naming the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield from csv.reader(fh, delimiter=delimiter)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ParseError(f"{path}: {exc}") from None


def read_dataset_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, list[str]]:
    """Strictly parse one dataset CSV; returns (X, y, delta, covariate names).

    No standardization is applied here; values are returned exactly as
    written (bit-identical round trip with ``write_dataset_csv``).  The
    covariate cells of each row go into one float64 table as it is read and
    ``X`` is a C-contiguous view of that table; ``y`` and ``delta`` are
    collected apart from it.
    """
    reader = _csv_rows(path)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    if not header or header[0] != "y":
        raise ParseError(f"{path}: first column must be 'y'")
    has_delta = len(header) > 1 and header[1] == "delta"
    lead = 2 if has_delta else 1
    names = header[lead:]
    if not names:
        raise ParseError(f"{path}: no covariate columns")
    seen = set()
    for name in names:
        if name in seen:
            raise ParseError(f"{path}: covariate {name!r} appears twice in the header")
        seen.add(name)
    table = array.array("d")
    ys, deltas = [], []
    for i, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}:{i}: expected {len(header)} cells, got {len(row)}")
        try:
            values = list(map(float, row))
        except ValueError:
            values = None
        # any non-finite cell makes the row sum non-finite; the cell-by-
        # cell pass then reports the first bad cell (a sum that merely
        # overflows passes it unchanged)
        if values is None or not math.isfinite(sum(values)):
            values = [_parse_float(c, f"{path}:{i}") for c in row]
        ys.append(values[0])
        if has_delta:
            deltas.append(values[1])
        table.fromlist(values[lead:])
    if not table:
        raise ParseError(f"{path}: no data rows")
    X = np.frombuffer(table).reshape(-1, len(names))
    y = np.array(ys)
    if has_delta:
        delta = np.array(deltas)
        if not np.isin(delta, (0.0, 1.0)).all():
            raise ParseError(f"{path}: delta column must contain only 0/1")
        return X, y, delta.astype(int), names
    return X, y, None, names


# Column blocks hold at most this many elements (32 KiB of float64), so a
# reduction over the rows of an n x p array makes only bounded temporaries.
_BLOCK_ELEMENTS = 1 << 12


def _by_column_blocks(reduce, X: np.ndarray) -> np.ndarray:
    """``reduce(X, axis=0)`` of a float64 ``X`` with the same bits, applied
    to blocks of adjacent columns of at most ``max(2, _BLOCK_ELEMENTS // n)``
    columns.

    No block is one column wide unless X is: numpy reduces a lone column
    pairwise but several columns of a row-major array row by row, so such
    a block would round differently from the whole array.  A one-column
    tail therefore starts one column early; that column is computed twice,
    with the same bits.
    """
    n, p = X.shape
    width = max(2, _BLOCK_ELEMENTS // max(n, 1))
    out = np.empty(p)
    for j0 in range(0, p, width):
        j1 = min(j0 + width, p)
        cols = slice(max(0, min(j0, j1 - 2)), j1)
        out[cols] = reduce(X[:, cols], axis=0)
    return out


def standardize_columns(X: np.ndarray) -> np.ndarray:
    """Center the float64 ``X`` to mean 0 and scale it to unit variance, in
    place, and return it; constant columns are centered only.  A column
    whose mean or deviation overflows raises ``NumericError`` before ``X``
    is written: scaling by an infinite deviation would turn it into zeros."""
    with np.errstate(over="ignore", invalid="ignore"):
        mu = _by_column_blocks(np.mean, X)
        sd = _by_column_blocks(np.std, X)  # one block's deviations at a time
    if not (np.isfinite(mu).all() and np.isfinite(sd).all()):
        raise NumericError("a column mean or standard deviation overflows; rescale the data")
    sd = np.where(sd > 0, sd, 1.0)
    # the same IEEE operations as (X - mu) / sd
    X -= mu
    X /= sd
    return X


def load_dataset_csv(path, id: int = 0, standardize: bool = True) -> tuple[DatasetBundle, list[str]]:
    """Load and (by default) standardize one dataset CSV.

    The bundle owns its arrays: ``X`` is the parsed covariate table,
    standardized in place unless ``standardize`` is off, and nothing else
    holds it; ``y`` and ``delta`` are arrays of their own.
    """
    X, y, delta, names = read_dataset_csv(path)
    if standardize:
        try:
            standardize_columns(X)
        except NumericError as exc:
            raise NumericError(f"{path}: {exc}") from None
    return DatasetBundle(X=X, y=y, delta=delta, id=id), names


def load_bundles(paths, standardize: bool = True) -> tuple[list[DatasetBundle], list[str]]:
    """Load several dataset CSVs, enforcing a shared covariate ordering."""
    bundles = []
    names0: list[str] | None = None
    for i, path in enumerate(paths):
        b, names = load_dataset_csv(path, id=i, standardize=standardize)
        if names0 is None:
            names0 = names
        elif names != names0:
            raise ValidationError(f"{path}: covariate columns differ from {paths[0]}")
        bundles.append(b)
    return bundles, names0 or []


def read_groups_tsv(path, names: list[str]) -> GroupStructure:
    """Parse the covariate_name<TAB>group_id file against known covariates.

    Group ids may be arbitrary integers; they are normalized to contiguous
    0-based indices preserving numeric order.
    """
    mapping: dict[str, int] = {}
    for i, row in enumerate(_csv_rows(path, "\t"), start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ParseError(f"{path}:{i}: expected 2 tab-separated columns")
        name, gid = row[0].strip(), row[1].strip()
        try:
            g = int(gid)
        except ValueError:
            raise ParseError(f"{path}:{i}: non-integer group id {gid!r}") from None
        if name in mapping:
            raise ParseError(f"{path}:{i}: duplicate covariate {name!r}")
        mapping[name] = g
    missing = [n for n in names if n not in mapping]
    if missing:
        raise ValidationError(f"{path}: no group for covariates {missing[:5]}")
    extra = set(mapping) - set(names)
    if extra:
        raise ValidationError(f"{path}: unknown covariates {sorted(extra)[:5]}")
    ids = sorted(set(mapping.values()))
    remap = {g: i for i, g in enumerate(ids)}
    assignment = np.array([remap[mapping[n]] for n in names], dtype=int)
    return GroupStructure(assignment=assignment)


def write_dataset_csv(path, X: np.ndarray, y: np.ndarray, delta=None, names=None):
    """Write one dataset in the CSV format accepted by ``read_dataset_csv``.

    Each float is written as its shortest round-trip ``repr``, so a reload
    is bit-identical.  What the reader would reject, a non-finite ``X`` or
    ``y`` or a ``delta`` other than 0/1, raises ``ValidationError`` before
    the file is opened.

    Only the header goes through ``csv.writer``, as a covariate name may
    need quoting.  A data row is joined directly: a float's repr holds no
    comma, quote, CR or LF, so ``csv.writer`` never quoted a data cell, and
    its line terminator is ``"\\r\\n"``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ValidationError(f"{path}: X of shape {X.shape} and y of shape {y.shape} "
                              "are not n x p and n")
    if not (_all_finite(X) and _all_finite(y)):
        raise ValidationError(f"{path}: X and y must be finite")
    if delta is not None:
        delta = np.asarray(delta)
        if delta.shape != y.shape or not np.isin(delta, (0, 1)).all():
            raise ValidationError(f"{path}: delta must hold one 0 or 1 per row")
    if names is None:
        names = [f"x{j + 1}" for j in range(X.shape[1])]
    header = ["y"] + (["delta"] if delta is not None else []) + list(names)
    lead = [repr(v) for v in y.tolist()]
    if delta is not None:
        lead = [f"{cell},{int(d)}" for cell, d in zip(lead, delta.tolist())]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for cell, row in zip(lead, X):
            fh.write(",".join([cell, *map(repr, row.tolist())]) + "\r\n")


def write_groups_tsv(path, groups: GroupStructure, names=None):
    names = list(names) if names is not None else [f"x{j + 1}" for j in range(groups.p)]
    with open(path, "w", newline="") as fh:
        for name, g in zip(names, groups.assignment):
            fh.write(f"{name}\t{int(g) + 1}\n")

import ctypes
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cdboost.data import DatasetBundle, GroupStructure, standardize_columns


def _openblas(name: str, restype):
    """``scipy_openblas_get_<name>64_()`` of numpy's bundled OpenBLAS, or
    "unknown" where the library or the symbol is missing."""
    libs = sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"))
    lib = ctypes.CDLL(str(libs[0])) if libs else None
    fn = getattr(lib, f"scipy_openblas_get_{name}64_", None)
    if fn is None:
        return "unknown"
    fn.argtypes, fn.restype = [], restype
    value = fn()
    return value.decode() if isinstance(value, bytes) else value


def openblas_core() -> str:
    """The OpenBLAS core numpy's bundled library runs under: the sha256 pins
    of float results hold for the core they were recorded under."""
    return _openblas("corename", ctypes.c_char_p)


def pin_message() -> str:
    """The message of a failing sha256 pin, naming the core it was recorded
    under and the core running now."""
    return f"recorded under SkylakeX, running under {openblas_core()}"


def pytest_report_header(config):
    return f"openblas: core {openblas_core()}, threads {_openblas('num_threads', ctypes.c_int)}"


def fit_bytes(res):
    """Every field of a FitResult, arrays as bytes: equal tuples are
    bit-identical fits.  ``test_fit_result_bytes_pinned`` hashes its repr,
    so the order of the fields is part of that pin."""
    return (res.beta_hat.tobytes(), res.t_hat, res.partitions, res.final_partitions,
            res.objective_trace.tobytes(), res.loss_trace.tobytes())


def make_lr_bundles(rng, M=2, n=30, p=4, sparsity=2, scale=1.0):
    """Random standardized LR datasets with a shared sparse signal."""
    beta = np.zeros(p)
    support = rng.choice(p, size=sparsity, replace=False)
    beta[support] = scale * rng.uniform(0.5, 1.5, size=sparsity)
    out = []
    for m in range(M):
        X = standardize_columns(rng.standard_normal((n, p)))
        y = X @ beta + rng.standard_normal(n)
        out.append(DatasetBundle(X=X, y=y, delta=None, id=m))
    return out


def make_aft_bundles(rng, M=2, n=30, p=4, censor_frac=0.3):
    """Random AFT datasets: log-time responses with right censoring."""
    beta = np.zeros(p)
    beta[: max(1, p // 2)] = rng.uniform(0.5, 1.0, size=max(1, p // 2))
    out = []
    for m in range(M):
        X = standardize_columns(rng.standard_normal((n, p)))
        log_t = X @ beta + 0.5 * rng.standard_normal(n)
        log_c = np.quantile(log_t, 1 - censor_frac) + 0.2 * rng.standard_normal(n)
        y = np.minimum(log_t, log_c)
        delta = (log_t <= log_c).astype(int)
        if delta.sum() == 0:
            delta[0] = 1
        out.append(DatasetBundle(X=X, y=y, delta=delta, id=m))
    return out


def tiny_groups(p, K):
    sizes = [p // K] * K
    for i in range(p - sum(sizes)):
        sizes[i] += 1
    return GroupStructure(assignment=np.repeat(np.arange(K), sizes))


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def lr_problem(rng):
    bundles = make_lr_bundles(rng, M=3, n=40, p=6)
    return bundles, tiny_groups(6, 2)


@pytest.fixture
def aft_problem(rng):
    bundles = make_aft_bundles(rng, M=2, n=40, p=6)
    return bundles, tiny_groups(6, 2)


LAYOUTS = ("c", "f", "every_other_column", "every_other_row", "reversed_columns")


def laid_out(rng, n, p, layout):
    """An n x p float64 array of widely scaled values in one of ``LAYOUTS``:
    contiguous in C or Fortran order, or a view that is not contiguous."""
    base = rng.standard_normal((2 * n, 2 * p)) * 10.0 ** rng.uniform(-4, 4, 2 * p)
    return {
        "c": np.ascontiguousarray(base[:n, :p]),
        "f": np.asfortranarray(base[:n, :p]),
        "every_other_column": base[:n, ::2],
        "every_other_row": base[::2, :p],
        "reversed_columns": base[:n, p - 1::-1],
    }[layout]


def traced_peak(fn, *args, **kwargs):
    """``fn``'s result and the peak bytes traced by ``tracemalloc`` while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

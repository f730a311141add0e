"""Span tracing from outside the package.

``Tracer`` replaces module attributes with timing wrappers at the names the
callers look up: ``cli`` imports ``load_bundles``, ``run_fit`` and
``select_lambda`` by name, ``metrics`` imports ``run_fit``,
``simulate_replicate`` and ``select_lambda``, ``tuning`` looks up ``hdbic``
and ``build_context`` in its own namespace and imports ``cd_sboost_fit``
from ``boosting`` at call time, and ``boosting.fit`` dispatches through the
``_FITTERS`` table bound at import. ``src/`` is never edited; ``close``
puts every original back.

A span is [name, start, end, parent index, op id]; a layer is the module
prefix of the span name. A span's self time is its duration minus that of
its direct children.
"""

import os
import statistics
import time

from cdboost import boosting, cli, data, metrics, tuning

LAYERS = ("data", "losses", "boosting", "tuning", "simulate", "metrics", "cli")

_SCORE_FUNCS = ("group_tp_fp", "variable_tp_fp", "ermse", "prmse_lr", "prmse_aft")

# (owner, attribute, span name); the owner is a module or the _FITTERS dict
WRAP_POINTS = [
    (cli, "main", "cli.main"),
    (cli, "load_bundles", "data.load_bundles"),
    (cli, "read_groups_tsv", "data.read_groups_tsv"),
    (data, "read_dataset_csv", "data.read_dataset_csv"),
    (boosting, "validate", "data.validate"),
    (boosting, "build_context", "losses.build_context"),
    (tuning, "build_context", "losses.build_context"),
    (cli, "run_fit", "boosting.fit"),
    (metrics, "run_fit", "boosting.fit"),
    (boosting, "fit", "boosting.fit"),
    (boosting, "cd_sboost_fit", "boosting.cd_sboost_fit"),
    (boosting._FITTERS, "cd_sboost", "boosting.cd_sboost_fit"),
    (boosting._FITTERS, "sep_sboost", "boosting.sep_sboost_fit"),
    (boosting._FITTERS, "int_sboost", "boosting.int_sboost_fit"),
    (boosting._FITTERS, "pool_sboost", "boosting.pool_sboost_fit"),
    (cli, "select_lambda", "tuning.select_lambda"),
    (metrics, "select_lambda", "tuning.select_lambda"),
    (cli, "hdbic", "tuning.hdbic"),
    (tuning, "hdbic", "tuning.hdbic"),
    (metrics, "benchmark", "metrics.benchmark"),
    (metrics, "simulate_replicate", "simulate.simulate_replicate"),
    *[(metrics, f, "metrics.score") for f in _SCORE_FUNCS],
]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _fit_args(args, kwargs):
    bundles = args[0] if args else kwargs["bundles"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    return list(bundles), config


class Tracer:
    """Records spans and counts while installed (``install``/``close``)."""

    def __init__(self):
        self.spans = []
        self.counts = []          # (op id, counter name, value, span index)
        self.op_id = -1
        self.counter_s = 0.0      # time spent in counters, part of the overhead
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, tracer = self.spans, self._stack, self
        count = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                c0 = time.perf_counter()
                for key, value in count(args, kwargs, result):
                    tracer.counts.append((tracer.op_id, key, value, idx))
                tracer.counter_s += time.perf_counter() - c0
            return result

        return wrapper

    def install(self):
        for owner, attr, name in WRAP_POINTS:
            orig = _get(owner, attr)
            self._saved.append((owner, attr, orig))
            _set(owner, attr, self._wrap(orig, name))
        return self

    def close(self):
        for owner, attr, orig in reversed(self._saved):
            _set(owner, attr, orig)
        self._saved.clear()


def _count_csv(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    yield "data.csv_bytes", os.path.getsize(path)


def _count_cd(args, kwargs, fit):
    bundles, config = _fit_args(args, kwargs)
    M, p = len(bundles), bundles[0].X.shape[1]
    S = 2 ** M - 1          # non-empty subsets of the all-common start class
    yield "boosting.iterations", config.T
    yield "boosting.t_hat", fit.t_hat
    yield "boosting.subsets_at_start", S
    yield "boosting.tentative_mb_per_iter", S * p * M * 8 / 1e6
    yield "boosting.class_splits", sum(len(pt) - 1 for pt in fit.partitions)


def _count_single(args, kwargs, fit):
    bundles, config = _fit_args(args, kwargs)
    yield "boosting.iterations", config.T * len(bundles)
    yield "boosting.t_hat", fit.t_hat


def _count_pool(args, kwargs, fit):
    bundles, config = _fit_args(args, kwargs)
    yield "boosting.iterations", config.T
    yield "boosting.t_hat", fit.t_hat


_COUNTERS = {
    "data.read_dataset_csv": _count_csv,
    "boosting.cd_sboost_fit": _count_cd,
    "boosting.sep_sboost_fit": _count_single,
    "boosting.int_sboost_fit": _count_single,
    "boosting.pool_sboost_fit": _count_pool,
}


def wrapper_cost_s(calls=20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "calibrate")
    best = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best.append(time.perf_counter() - t0)
    return max(0.0, best[1] - best[0]) / calls


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, op_walls, wrapper_cost) -> dict:
    """Per-layer metrics from the spans of the traced ops (values only)."""
    spans = tracer.spans
    ops = sorted(op_walls)
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0

    per_op = {op: {} for op in ops}     # op -> {key: summed seconds}
    per_call = {}                        # span name -> [durations]
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        if op not in per_op:             # the op failed; its spans are dropped
            continue
        dur = t1 - t0
        acc = per_op[op]
        acc[name] = acc.get(name, 0.0) + dur
        for key in (name.split(".", 1)[0] + ".self", "all.self"):
            acc[key] = acc.get(key, 0.0) + dur - child_time[i]
        per_call.setdefault(name, []).append(dur)
        if name == "boosting.cd_sboost_fit" and parent >= 0 \
                and spans[parent][0] == "tuning.select_lambda":
            acc["tuning.grid_points"] = acc.get("tuning.grid_points", 0) + 1

    def op_median(key):
        return _median([per_op[op].get(key, 0.0) for op in ops])

    counts = {}
    cd_iter_us = []
    for op, key, value, idx in tracer.counts:
        if op not in per_op:
            continue
        counts.setdefault(key, {}).setdefault(op, []).append(value)
        if spans[idx][0] == "boosting.cd_sboost_fit" and key == "boosting.iterations":
            cd_iter_us.append((spans[idx][2] - spans[idx][1]) / value * 1e6)

    def count_per_op(key):
        return _median([sum(counts.get(key, {}).get(op, [])) for op in ops])

    def count_per_call(key):
        return _median([v for vals in counts.get(key, {}).values() for v in vals])

    csv_bytes = sum(v for vals in counts.get("data.csv_bytes", {}).values() for v in vals)
    csv_time = sum(per_call.get("data.read_dataset_csv", []))
    spans_per_op = len(spans) / max(1, len(ops))

    out = {
        "data.load_bundles_s": op_median("data.load_bundles"),
        "data.parse_mb_per_s": csv_bytes / 1e6 / csv_time if csv_time > 0 else 0.0,
        "data.read_groups_tsv_s": op_median("data.read_groups_tsv"),
        "boosting.cd_fit_s": _median(per_call.get("boosting.cd_sboost_fit", [])),
        "boosting.cd_iter_us": _median(cd_iter_us),
        "boosting.subsets_at_start": count_per_call("boosting.subsets_at_start"),
        "boosting.tentative_mb_per_iter": count_per_call("boosting.tentative_mb_per_iter"),
        "boosting.class_splits": count_per_op("boosting.class_splits"),
        "boosting.sep_fit_s": _median(per_call.get("boosting.sep_sboost_fit", [])),
        "boosting.int_fit_s": _median(per_call.get("boosting.int_sboost_fit", [])),
        "boosting.pool_fit_s": _median(per_call.get("boosting.pool_sboost_fit", [])),
        "boosting.iterations": count_per_op("boosting.iterations"),
        "boosting.t_hat": count_per_call("boosting.t_hat"),
        "tuning.select_lambda_s": op_median("tuning.select_lambda"),
        "tuning.hdbic_s": op_median("tuning.hdbic"),
        "tuning.grid_points": op_median("tuning.grid_points"),
        "losses.build_context_s": op_median("losses.build_context"),
        "simulate.simulate_replicate_s": op_median("simulate.simulate_replicate"),
        "metrics.score_s": op_median("metrics.score"),
        "metrics.benchmark_s": op_median("metrics.benchmark"),
        "cli.main_s": op_median("cli.main"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = op_median(f"{layer}.self")
    wall = _median([op_walls[op] for op in ops])
    overhead = spans_per_op * wrapper_cost + tracer.counter_s / max(1, len(ops))
    out["trace.overhead_frac"] = overhead / wall if wall > 0 else 0.0
    # share of each op's wall time outside every layer span (harness gap)
    out["trace.unattributed_frac"] = _median(
        [1.0 - per_op[op].get("all.self", 0.0) / op_walls[op] for op in ops])
    return out

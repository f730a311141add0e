"""cdboost benchmark: four closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload cli-grid --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``cli-grid``, ``replicate-aft``,
``cd-m8`` and ``cli-baselines``. One client runs one operation at a time
with ``workers=1``, cycling through a fixed list of inputs made from the
seed. ``BENCHMARK.json`` lists the first two only: on a 2-vCPU host whose
speed drifts, four workloads would fit the run budget only with runs too
short to be steady. The other two are run by hand the same way.

With ``--trace 0`` a run

1. times ``setup_s``: five fresh processes that each import cdboost and
   generate (or write) the inputs; the median is reported;
2. runs a warm-up pass over the input cycle, timed and printed separately;
3. times operations for ``--seconds`` seconds (at least one) and reports
   the median wall time ``op_p50_s``, the tail ``op_tail_s`` and the median
   process CPU time ``cpu_s_per_op``;
4. runs one more operation, on the last input of the cycle, under
   ``tracemalloc`` for ``peak_mem_mb``. It stays out of the timed pass,
   which it would slow by 2-5x. The last input is the largest one: on
   ``cli-baselines`` it is pool-sboost.

``op_tail_s`` is the highest percentile with at least 10 samples beyond it.
Below 21 operations no such percentile lies above the median, so the
run reports the maximum instead, and prints which one it took.

With ``--trace 1`` the timed operations run with span tracing installed
(``tracing.py``) and the run reports the per-layer metrics. On ``cd-m8`` it
adds a cd fit sweep over M = 2..10, and on ``replicate-aft`` the
workers=1 against workers=2 speed-up (``extras.py``).

Every operation's output is checked (``checks.py``); a failed check, an
exception or a non-zero exit counts the operation as failed. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = ("cli-grid", "replicate-aft", "cd-m8", "cli-baselines")


def metric_units(kind) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def child_env(extra=None):
    """Environment for the benchmark's own child processes: cdboost from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # older numpy prints instead of returning
        blas = None
    return {
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def tail(walls):
    """(value, percentile label, n): highest percentile with TAIL_BEYOND
    samples beyond it, or the maximum when that would not exceed the median."""
    xs = sorted(walls)
    n = len(xs)
    k = n - TAIL_BEYOND
    if 100 * k / n > 50:
        return xs[k - 1], f"p{math.floor(100 * k / n)}", n
    return xs[-1], "max", n


def time_setup(workload, seed, workdir, repeats):
    """Wall time of fresh processes that import cdboost and make the inputs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "setup_inputs.py"),
                        workload, str(seed), workdir],
                       cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs one workload's operations and counts failed ones."""

    def __init__(self, wl, inputs, checker, capture, corrupt=False):
        self.wl, self.inputs, self.checker, self.capture = wl, inputs, checker, capture
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = []            # (op number, reason)

    def call(self, i, peaks=None):
        """Run op on input i % len; returns (wall s, cpu s) or None if it failed.

        With a ``peaks`` list the op runs under tracemalloc and its peak
        traced bytes are appended.
        """
        index = i % len(self.inputs)
        inp = self.inputs[index]
        self.attempted += 1
        self.capture.take()
        if peaks is not None:
            tracemalloc.start()
        try:
            c0, t0 = time.process_time(), time.perf_counter()
            out = self.wl.op(inp)
            t1, c1 = time.perf_counter(), time.process_time()
            if peaks is not None:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            recs, payload, fp = self.wl.records(inp, out, self.capture.take())
            if self.corrupt and self.attempted == len(self.inputs) + 1:
                recs[0].beta[0, 0] += 1e-3      # self-check: must be caught
            h = hashlib.sha256(fp.encode())
            for rec in recs:
                h.update(rec.fingerprint().encode())
            bad = self.checker(index, recs, payload, h.hexdigest())
        except Exception as exc:  # a failed op is counted, not fatal
            tracemalloc.stop()
            self.failed.append((self.attempted, f"{type(exc).__name__}: {exc}"))
            return None
        if bad:
            self.failed.append((self.attempted, "checks failed: " + ",".join(bad)))
            return None
        return t1 - t0, c1 - c0


def run(workload, seed, seconds, trace, corrupt=False, out=print):
    """One benchmark run; returns the result object printed as the last line."""
    import checks
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload]
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_times = time_setup(workload, seed, workdir, 1 if trace else SETUP_REPEATS)
        inputs = wl.inputs(seed, workdir)
        checker = checks.OutputChecker(ROOT, workload, seed)
        with workloads.Capture() as capture:
            runner = Runner(wl, inputs, checker, capture, corrupt)
            warm = [runner.call(i) for i in range(len(inputs))]
            walls, cpus, op_walls = [], [], {}
            tracer = tracing.Tracer().install() if trace else None
            try:
                i, t_start = 0, time.perf_counter()
                while True:
                    if tracer:
                        tracer.op_id = i
                    res = runner.call(i)
                    if res:
                        walls.append(res[0])
                        cpus.append(res[1])
                        op_walls[i] = res[0]
                    i += 1
                    if time.perf_counter() - t_start >= seconds:
                        break
            finally:
                if tracer:
                    tracer.close()
            peaks = []
            if not trace:
                runner.call(len(inputs) - 1, peaks=peaks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    out(f"cdboost benchmark: workload={workload} seed={seed} seconds={seconds} trace={trace}")
    out("env: " + json.dumps(environment(), sort_keys=True))
    out("warmup_s: " + ", ".join("failed" if w is None else f"{w[0]:.4f} s" for w in warm)
        + " (one pass over the input cycle before timing; not in the medians)")
    for n, reason in runner.failed:
        out(f"failed op {n}: {reason}")
    failed = len(runner.failed)
    out(f"failed_frac: {failed / runner.attempted:.4f} ({failed} of {runner.attempted} ops)")
    if not walls:
        walls = cpus = [float("nan")]
    if trace:
        metrics = tracing.layer_metrics(tracer, op_walls, tracing.wrapper_cost_s())
        units = metric_units("per_layer")
        if workload == "cd-m8":
            import extras
            extras.m_sweep(seed, out)
        elif workload == "replicate-aft":
            import extras
            extras.workers2(seed, out)
    else:
        value, label, n = tail(walls)
        out(f"op_tail_s: {label} of n={n} timed ops")
        metrics = {
            "op_p50_s": statistics.median(walls),
            "op_tail_s": value,
            "cpu_s_per_op": statistics.median(cpus),
            "peak_mem_mb": max(peaks, default=float("nan")) / 1e6,
            "setup_s": statistics.median(setup_times),
        }
        out("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup_times))
        units = metric_units("end_to_end")
    for name in units:
        out(f"{name}: {metrics[name]:.6g} {units[name]}")
    values = list(metrics.values())
    correct = failed == 0 and all(math.isfinite(v) for v in values)
    return {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cdboost", "__init__.py")):
        print(f"error: no cdboost sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

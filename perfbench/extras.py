"""Extras of the traced runs.

* ``m_sweep``: one cd fit per M = 2..10 on the ``cd-m8`` generator at
  T=200, lambda=1: wall time, then ``tracemalloc`` peak in a second fit.
* ``workers2``: ``metrics.benchmark`` on two ``replicate-aft`` replicates,
  workers=1 against workers=2. It runs in a child process twice: once with
  the inherited (threaded) BLAS settings, once with every BLAS thread
  variable set to 1 in that child only.

Run directly, this file is that child:

    python3 perfbench/extras.py <seed>
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc

SWEEP_M = range(2, 11)
WORKERS2_REPLICATES = 2


def m_sweep(seed, out):
    from cdboost import boosting
    from cdboost.data import BoostConfig

    from workloads import M8_ITERS, M8_LAMBDA, multi_dataset

    config = BoostConfig(T=M8_ITERS, lam=M8_LAMBDA, algorithm="cd_sboost")
    for M in SWEEP_M:
        bundles, groups = multi_dataset(seed, M)
        t0 = time.perf_counter()
        boosting.fit(bundles, groups, config)
        wall = time.perf_counter() - t0
        tracemalloc.start()
        try:
            boosting.fit(bundles, groups, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out(f"sweep M={M}: cd fit {wall:.4f} s, tracemalloc peak {peak / 1e6:.3f} MB, "
            f"subsets at start {2 ** M - 1} (n=100, p=400, K=8, T={M8_ITERS})")


def workers2(seed, out):
    from run import BLAS_THREAD_VARS, HERE, ROOT, child_env

    for label, extra in (("inherited BLAS threads", {}),
                         ("BLAS threads=1 in the child", dict.fromkeys(BLAS_THREAD_VARS, "1"))):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "extras.py"), str(seed)],
                              cwd=ROOT, env=child_env(extra), capture_output=True, text=True,
                              check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        out(f"metrics.workers2_speedup ({label}): {res['workers1_s'] / res['workers2_s']:.4f} "
            f"(workers=1 {res['workers1_s']:.4f} s, workers=2 {res['workers2_s']:.4f} s, "
            f"{WORKERS2_REPLICATES} replicates, reports identical: {res['identical']})")


def _child(seed):
    from cdboost import metrics

    from workloads import ReplicateAft

    wl = ReplicateAft()
    inp = wl.inputs(seed, None)[0]
    times, reports = [], []
    for workers in (1, 2):
        t0 = time.perf_counter()
        report = metrics.benchmark(inp["design"], wl.methods, WORKERS2_REPLICATES,
                                   config=inp["config"], tune=True, workers=workers,
                                   verify=True)
        times.append(time.perf_counter() - t0)
        reports.append(json.dumps(report.to_json(), sort_keys=True, default=float))
    print(json.dumps({"workers1_s": times[0], "workers2_s": times[1],
                      "identical": reports[0] == reports[1]}))


if __name__ == "__main__":
    _child(int(sys.argv[1]))

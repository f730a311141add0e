"""Self-check of the benchmark itself. Run from the repository root:

    python3 perfbench/selfcheck.py

It asserts that

* each workload, run for one short op with tracing off and on, prints every
  metric that ``BENCHMARK.json`` names, with its unit, both as a text line and
  in the final JSON object, and counts no failed op;
* on ``cli-grid`` and ``replicate-aft`` the layer self times add up to the
  op wall time within ``trace.overhead_frac``;
* a deliberately corrupted output is counted as a failed op;
* without the package sources next to it, the benchmark exits non-zero
  without printing a result.

It takes a few minutes: the traced ``cd-m8`` run includes the M sweep.
"""

import json
import os
import shutil
import subprocess
import sys

from run import HERE, ROOT, SRC, WORKLOADS


def bench(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_printed(workload, trace, spec):
    proc = bench(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)])
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, (workload, trace, lines)
    assert set(result["metrics"]) == {m["name"] for m in spec}, (workload, trace)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (workload, m, got)
        assert any(l.startswith(f"{m['name']}: ") and l.endswith(f" {m['unit']}")
                   for l in lines[:-1]), f"{workload}: no printed line for {m['name']}"
    assert any(l.startswith("failed_frac: ") for l in lines), workload
    print(f"ok  {workload} trace={trace}: {len(spec)} metrics, "
          f"{result['attempted']} ops, 0 failed", flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_corruption_counted():
    sys.path.insert(0, SRC)
    import run

    lines = []
    result = run.run("cd-m8", 0, 0, 0, corrupt=True, out=lines.append)
    assert result["failed"] == 1 and not result["correct"], result
    assert any(l.startswith("failed_frac: ") and not l.startswith("failed_frac: 0.0000")
               for l in lines), lines
    print("ok  corrupted output counted in failed_frac", flush=True)


def check_bare_directory():
    bare = os.path.join(ROOT, ".perfbench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = bench(["--workload", "cd-m8", "--seed", "0", "--seconds", "1", "--trace", "0"],
                     cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout
    print("ok  no sources: exit", proc.returncode, "and no result", flush=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for workload in WORKLOADS:
        check_printed(workload, 0, spec["end_to_end"])
        layer = check_printed(workload, 1, spec["per_layer"])
        if workload in ("cli-grid", "replicate-aft"):
            gap = layer["trace.unattributed_frac"]
            assert 0 <= gap <= layer["trace.overhead_frac"], (workload, layer)
            print(f"ok  {workload}: layer self times = op wall within "
                  f"{layer['trace.overhead_frac']:.2e} (gap {gap:.2e})", flush=True)
    check_corruption_counted()
    check_bare_directory()
    try:
        os.rmdir(os.path.join(ROOT, ".perfbench_work"))
    except OSError:
        pass
    print("selfcheck passed")


if __name__ == "__main__":
    main()

"""Record the output digests that ``checks.py`` compares against.

Run from the repository root after a change that is meant to alter the
fitted outputs, and say why in the change:

    python3 perfbench/record.py

It runs every workload's input cycle once at the digest seed and rewrites
``perfbench/expected.json``.
"""

import json
import os
import shutil
import sys

from run import ROOT, SRC


def main():
    sys.path.insert(0, SRC)
    import checks
    import workloads

    expected = {}
    workdir = os.path.join(ROOT, ".perfbench_work", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with workloads.Capture() as capture:
            for name, wl in workloads.WORKLOADS.items():
                wl.prepare(checks.DIGEST_SEED, workdir)
                expected[name] = []
                for inp in wl.inputs(checks.DIGEST_SEED, workdir):
                    capture.take()
                    result = wl.op(inp)
                    recs, _, _ = wl.records(inp, result, capture.take())
                    expected[name].append([rec.digest() for rec in recs])
                print(f"{name}: {len(expected[name])} inputs recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

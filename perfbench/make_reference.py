"""Regenerate reference_digests.json from one pass of each workload.

    python3 perfbench/make_reference.py

Run it only when an output format changes on purpose; the digests pin the
bytes every data file had when they were made, for the reference seed.
"""

import json
import os
import sys

import run
import workloads


def main() -> int:
    nproc = run.cap_threads()
    sys.path.insert(0, run.SRC)
    ref = {"seed": run.REFERENCE_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        result = run.run(name, run.REFERENCE_SEED, 0, False, nproc, reference=False)
        if not result["correct"]:
            print(f"make_reference: {name} failed its checks", file=sys.stderr)
            return 1
        outroot = os.path.join(run.OUT, f"{name}-seed{run.REFERENCE_SEED}-trace0")
        with open(os.path.join(outroot, "env.json"), encoding="utf-8") as fh:
            env = json.load(fh)
        with open(os.path.join(outroot, "digests.json"), encoding="utf-8") as fh:
            ref["workloads"][name] = json.load(fh)
        ref["numpy"], ref["simd_targets"] = env["numpy"], env["simd_targets"]
    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the reference behaviour fingerprints that runs are compared against.

    python3 perfbench/record_reference.py --workload translation --seeds 0-9

Each workload seed goes through the benchmark's own path with no timed
seconds (set-up, warm-up, every iteration seed once, and the joint sweep on
``search``).  Its fingerprint is stored in ``perfbench/reference.json`` under
the workload and the seed.  A seed whose correctness checks fail is not
recorded.  Re-record only when behaviour changes on purpose, and say why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from run import ROOT, THREAD_VARS, WORKLOAD_NAMES


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True, type=seed_range, help="N or N-M")
    args = parser.parse_args()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src")]
    import harness

    reference = harness.load_reference()
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    for seed in args.seeds:
        scratch = tempfile.mkdtemp(prefix="reference-", dir=tmp_root)
        try:
            result = harness.run(args.workload, seed, 0.0, False, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        failures = result["checks"].failures
        if failures or result["fingerprint"] is None:
            print(f"seed {seed}: not recorded, {len(failures)} checks failed", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        reference.setdefault(args.workload, {})[str(seed)] = result["fingerprint"]
        print(f"{args.workload} seed {seed}: {result['fingerprint_match']}", flush=True)
    with open(harness.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    try:
        os.rmdir(tmp_root)
    except OSError:
        pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())

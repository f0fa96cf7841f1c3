"""Write the golden reference of every workload, for every seed in golden.SEEDS.

Run from the repository root, only at a commit whose outputs are accepted as
the reference (every check passes)::

    python3 perfbench/make_golden.py

Each seed runs in a fresh interpreter, exactly as a benchmark repetition does.
"""

from __future__ import annotations

import json
import sys

import golden
from run import WORKLOADS, launch


def main() -> int:
    golden.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        seeds = {}
        for seed in golden.SEEDS:
            record, _launched, error = launch(workload, seed)
            if record is None:
                raise SystemExit(f"{workload} seed {seed}: {error}")
            result = record["result"]
            failing = [c["name"] for c in result["checks"] if not c["passed"]]
            if failing:
                raise SystemExit(f"{workload} seed {seed}: checks FAIL {failing}")
            seeds[str(seed)] = result
            print(f"{workload} seed {seed}: {record['run_s']:.2f} s", flush=True)
        data = {"workload": workload, "rtol": golden.RTOL, "seeds": seeds}
        golden.path_for(workload).write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

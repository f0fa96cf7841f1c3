"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

A fresh interpreter per repetition matters: ``harness._FIT_CACHE`` is a
module global, so a second experiment in the same process would skip the
smallness-constant fit (about two thirds of ``picard-steady``).

Usage::

    python3 perfbench/child.py --workload picard-steady --seed 3 [--trace] [--setup-only]

Prints one JSON line: ``ready`` (the ``time.perf_counter`` reading once
``oseenlab`` is imported and the config is built; the parent subtracts its
launch reading to get the set-up time), the environment, and unless
``--setup-only`` the wall and CPU seconds of the experiment call, the peak
resident memory, the serialized result and, with ``--trace``, the spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    import numpy
    import scipy

    from oseenlab import fields

    get_workers = getattr(fields, "get_fft_workers", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "fft_workers": get_workers() if get_workers else None,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from oseenlab import cli, harness

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"oseenlab imported from {cli.__file__}, not {ROOT / 'src'}")
    cfg = dataclasses.replace(cli.default_config(args.workload), seed=args.seed)
    out = {"ready": time.perf_counter()}
    out["env"] = environment()
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import golden

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer().install()
    out["fit_cache_empty"] = not getattr(harness, "_FIT_CACHE", None)
    cpu_start = time.process_time()
    start = time.perf_counter()
    result = cli.run_experiment(cfg)
    out["run_s"] = time.perf_counter() - start
    out["cpu_s"] = time.process_time() - cpu_start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["result"] = golden.serialize(result)
    if tracer is not None:
        out["spans"] = tracer.report()
        out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time the built-in experiments, each in a fresh interpreter, into a JSON file.

Run from the repository root::

    python3 tools/bench_file.py OUT [--repeat N] [--src DIR]

Each experiment in ``oseenlab.harness.EXPERIMENTS`` runs N times (default
5) at its built-in configuration, in rounds through all of them.  Every run
is a fresh interpreter that imports ``oseenlab`` from DIR (default: the
``src`` directory beside this tool), works in a temporary directory, and
times only the ``oseenlab.cli.main`` call; its console output is discarded.
Its peak resident memory is ``ru_maxrss`` at the end, and its allocator
counters are ``ru_minflt`` (minor page faults) and ``ru_stime`` (system CPU
seconds) at the end, so all three include the imports.

OUT receives one JSON object: the Python, numpy and scipy versions, the CPU
count, the FFT worker count, ``git rev-parse HEAD`` of DIR's checkout (null
outside one), and per experiment every wall time, peak RSS, ``ru_minflt``
and ``ru_stime`` with their medians, and the exit codes.  The console gets
one line ``NAME: median T s, peak R MB, F minor faults, exit codes [..]``
per experiment.  The exit status is 1 when any run exits non-zero, else 0.
Standard library and the package only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

DEFAULT_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# The child prints one JSON line: its environment, exit code, wall time, peak
# RSS (ru_maxrss is in KiB on Linux), minor faults and system CPU seconds.
CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy, scipy, platform
from oseenlab import cli, fields
name = sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    status = cli.main([name, "--out", name + ".csv"])
    wall = time.perf_counter() - start
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "fft_workers": fields.get_fft_workers(),
    "exit_code": status,
    "wall_s": wall,
    "peak_rss_mb": usage.ru_maxrss / 1024.0,
    "ru_minflt": usage.ru_minflt,
    "ru_stime": usage.ru_stime,
}))
"""


# The per-run measures, each summarized with its median.
_MEASURES = ("wall_s", "peak_rss_mb", "ru_minflt", "ru_stime")


def record(src: pathlib.Path, name: str) -> dict:
    """One run of experiment ``name`` in a fresh interpreter importing from
    ``src``.  A child that dies before reporting gives its return code and
    null timings and counters."""
    with tempfile.TemporaryDirectory() as work:
        child = subprocess.run(
            [sys.executable, "-c", CHILD, str(src.resolve()), name],
            cwd=work, capture_output=True, text=True,
        )
    lines = child.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(child.stderr)
        return {"exit_code": child.returncode, **dict.fromkeys(_MEASURES)}


def _median(values: list) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(records: list[dict]) -> dict:
    """Every measure of one experiment's runs with its median, and the exit
    codes."""
    summary = {}
    for key in _MEASURES:
        values = [r[key] for r in records]
        summary["median_" + key], summary[key] = _median(values), values
    summary["exit_codes"] = [r["exit_code"] for r in records]
    return summary


def git_head(src: pathlib.Path) -> str | None:
    """``git rev-parse HEAD`` of the checkout holding ``src``, or None."""
    try:
        head = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError:
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def bench(src: pathlib.Path, repeat: int) -> dict:
    """The JSON object of the module docstring for ``repeat`` rounds."""
    sys.path.insert(0, str(src.resolve()))
    from oseenlab import harness

    names = list(harness.EXPERIMENTS)
    records: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(repeat):
        for name in names:
            records[name].append(record(src, name))
    first = next((r for runs in records.values() for r in runs if "numpy" in r), {})
    return {
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "scipy": first.get("scipy"),
        "cpu_count": os.cpu_count(),
        "fft_workers": first.get("fft_workers"),
        "commit": git_head(src),
        "repeat": repeat,
        "runs": {name: summarize(runs) for name, runs in records.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=pathlib.Path)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--src", type=pathlib.Path, default=DEFAULT_SRC)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")
    result = bench(args.src, args.repeat)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    failed = False
    for name, run in result["runs"].items():
        wall, rss, faults = (
            run["median_" + key] for key in ("wall_s", "peak_rss_mb", "ru_minflt")
        )
        shown_wall = "n/a" if wall is None else f"{wall:.2f}"
        shown_rss = "n/a" if rss is None else f"{rss:.1f}"
        shown_faults = "n/a" if faults is None else f"{faults:.0f}"
        print(
            f"{name}: median {shown_wall} s, peak {shown_rss} MB, "
            f"{shown_faults} minor faults, exit codes {run['exit_codes']}"
        )
        failed = failed or any(code != 0 for code in run["exit_codes"])
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())

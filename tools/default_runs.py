"""Run the built-in experiments, each in a fresh interpreter, record their
times and compare their outputs with an earlier run.

Run from the repository root::

    python3 tools/default_runs.py OUT [--repeat N] [--src DIR]
        [--against REF [--rtol X]]

Each experiment in ``oseenlab.harness.EXPERIMENTS`` runs N times (default 1)
at its built-in configuration, in rounds through all of them.  Every run is a
fresh interpreter that imports ``oseenlab`` from DIR (default: the ``src``
directory beside this tool) and calls ``oseenlab.cli.main``.  The first round
works in OUT, so OUT receives ``NAME.csv``, its ``NAME.dat`` twin and the
captured console output ``NAME.stdout``; later rounds work in a temporary
directory.  A run's standard error is passed on.  It times the ``cli.main``
call as its wall time and ``from oseenlab import cli, fields`` as its import
time; numpy and the top-level ``scipy`` package are imported before that, so
the import time holds the package's own imports only.  Its peak resident
memory is ``ru_maxrss`` at the end, and its allocator counters are
``ru_minflt`` (minor page faults) and ``ru_stime`` (system CPU seconds) at the
end, so all three include the imports.

OUT also receives ``bench.json``: the Python, numpy and scipy versions, the
CPU count, the FFT worker count, ``git rev-parse HEAD`` of DIR's checkout
(null outside one), N, and per experiment every wall time, import time, peak
RSS, ``ru_minflt`` and ``ru_stime`` with their medians, and the exit codes.
The console gets one line ``NAME: median T s, import I s, peak R MB, F minor
faults, exit codes [..]`` per experiment.

With ``--against REF`` (a directory an earlier run wrote) every file of
either directory but ``bench.json`` is reported as "byte-identical", as
missing on one side, or, for a table (``.csv`` or ``.dat``), with the largest
relative difference of each column that moved.  Any other file that differs
is reported by its first differing line: the line number and both lines, each
cut to 60 characters.  ``--rtol X`` relaxes the verdict: a table may move by
at most X relative in every cell, and any other file may differ only in
numbers b -> a with |a - b| <= X * max(|b|, 1), the scale of the benchmark's
golden slopes; a last line names the files beyond that, if any.

The exit status is 1 when any run exits non-zero or, with ``--against``, any
file is not byte-identical (with ``--rtol``: any file is beyond X), else 0.
A DIR without ``oseenlab/__init__.py``, a REF that is not a directory, or an X
that is negative, NaN or infinite exits 2 before any run.
Standard library and the package only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import re
import statistics
import subprocess
import sys
import tempfile

DEFAULT_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

BENCH = "bench.json"

# Prints the experiment names of the package in the directory argv[1].
NAMES = """
import json, sys
sys.path.insert(0, sys.argv[1])
from oseenlab import harness
print(json.dumps(list(harness.EXPERIMENTS)))
"""

# Runs experiment argv[2], writes its console output to NAME.stdout, and
# prints one JSON line: its environment, exit code, wall time, import time,
# peak RSS (ru_maxrss is in KiB on Linux), minor faults and system CPU seconds.
CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy, scipy, platform
start = time.perf_counter()
from oseenlab import cli, fields
import_s = time.perf_counter() - start
name = sys.argv[2]
captured = io.StringIO()
with contextlib.redirect_stdout(captured):
    start = time.perf_counter()
    status = cli.main([name, "--out", name + ".csv"])
    wall = time.perf_counter() - start
with open(name + ".stdout", "w") as handle:
    handle.write(captured.getvalue())
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "fft_workers": fields.get_fft_workers(),
    "exit_code": status,
    "wall_s": wall,
    "import_s": import_s,
    "peak_rss_mb": usage.ru_maxrss / 1024.0,
    "ru_minflt": usage.ru_minflt,
    "ru_stime": usage.ru_stime,
}))
"""

# The per-run measures, each summarized with its median.
_MEASURES = ("wall_s", "import_s", "peak_rss_mb", "ru_minflt", "ru_stime")


def record(src: pathlib.Path, name: str, work: pathlib.Path) -> dict:
    """One run of experiment ``name`` in a fresh interpreter importing from
    ``src`` and working in ``work``.  A child that dies before reporting
    gives its return code and null timings and counters."""
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(src.resolve()), name],
        cwd=work, capture_output=True, text=True,
    )
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
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


def run_all(src: pathlib.Path, out: pathlib.Path, repeat: int) -> dict:
    """Run every experiment ``repeat`` times, the first round in ``out``, and
    return the ``bench.json`` object of the module docstring."""
    listing = subprocess.run(
        [sys.executable, "-c", NAMES, str(src.resolve())],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    names = json.loads(listing.stdout)
    out.mkdir(parents=True, exist_ok=True)
    records: dict[str, list[dict]] = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as scratch:
        for work in [out] + [pathlib.Path(scratch)] * (repeat - 1):
            for name in names:
                records[name].append(record(src, name, work))
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


def read_table(path: pathlib.Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a ``.csv`` (comma) or ``.dat`` (``# `` header, spaces)."""
    lines = path.read_text().splitlines()
    if path.suffix == ".dat":
        split = [line.removeprefix("# ").split() for line in lines]
    else:
        split = [line.split(",") for line in lines]
    return split[0], split[1:]


def relative_difference(a: str, b: str) -> float:
    """|a - b| / |b| for two cells; 0 for equal text, inf for unequal non-numbers."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / abs(y) if y != 0 else math.inf


def first_difference(new: pathlib.Path, old: pathlib.Path) -> str:
    """The first line where two files part, numbered from 1, with both lines
    cut to 60 characters; a line past the end of a file shows as
    ``<end of file>``."""
    a, b = (p.read_bytes().decode(errors="replace").split("\n") for p in (new, old))
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))

    def show(lines: list[str]) -> str:
        return repr(lines[i][:60]) if i < len(lines) else "<end of file>"

    return f"line {i + 1} differs: {show(a)} vs {show(b)}"


# A decimal number in running text; split() with it keeps the numbers at odd
# positions of the result.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def within(new: pathlib.Path, old: pathlib.Path, rtol: float) -> bool:
    """Whether ``new`` matches ``old`` to ``rtol``; see the module docstring."""
    if not new.exists() or not old.exists():
        return False
    if new.suffix in (".csv", ".dat"):
        (head, rows), (old_head, old_rows) = read_table(new), read_table(old)
        shapes = [len(row) for row in rows] == [len(row) for row in old_rows]
        cells = (cell for pair in zip(rows, old_rows) for cell in zip(*pair))
        return head == old_head and shapes and all(
            relative_difference(a, b) <= rtol for a, b in cells
        )
    a, b = (_NUMBER.split(path.read_text()) for path in (new, old))

    def close(x: str, y: str) -> bool:
        return abs(float(x) - float(y)) <= rtol * max(abs(float(y)), 1.0)

    return len(a) == len(b) and all(
        x == y if i % 2 == 0 else close(x, y) for i, (x, y) in enumerate(zip(a, b))
    )


def _names(out: pathlib.Path, ref: pathlib.Path) -> list[str]:
    names = {p.name for p in out.iterdir()} | {p.name for p in ref.iterdir()}
    return sorted(names - {BENCH})


def compare(out: pathlib.Path, ref: pathlib.Path) -> list[str]:
    """One report line per file of either directory; see the module docstring."""
    lines = []
    for name in _names(out, ref):
        new, old = out / name, ref / name
        if not new.exists() or not old.exists():
            lines.append(f"{name}: missing in {out if not new.exists() else ref}")
        elif new.read_bytes() == old.read_bytes():
            lines.append(f"{name}: byte-identical")
        elif new.suffix in (".csv", ".dat"):
            (head, rows), (old_head, old_rows) = read_table(new), read_table(old)
            if head != old_head or len(rows) != len(old_rows):
                lines.append(f"{name}: header or row count differs")
                continue
            worst = [
                max(
                    (relative_difference(a[j], b[j]) for a, b in zip(rows, old_rows)),
                    default=0.0,
                )
                for j in range(len(head))
            ]
            moved = ", ".join(f"{h} {w:.3g}" for h, w in zip(head, worst) if w > 0)
            lines.append(f"{name}: largest relative difference {moved or 'none'}")
        else:
            lines.append(f"{name}: {first_difference(new, old)}")
    return lines


def _show(value: float | None, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=pathlib.Path)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--src", type=pathlib.Path, default=DEFAULT_SRC)
    parser.add_argument("--against", type=pathlib.Path)
    parser.add_argument("--rtol", type=float)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be at least 1, got {args.repeat}")
    if args.rtol is not None and args.against is None:
        parser.error("--rtol needs --against")
    if args.rtol is not None and not 0.0 <= args.rtol < math.inf:
        parser.error(f"--rtol must be finite and nonnegative, got {args.rtol:g}")
    if not (args.src / "oseenlab" / "__init__.py").is_file():
        parser.error(f"--src {args.src} holds no oseenlab/__init__.py")
    if args.against is not None and not args.against.is_dir():
        parser.error(f"--against {args.against} is not a directory")
    result = run_all(args.src, args.out, args.repeat)
    (args.out / BENCH).write_text(json.dumps(result, indent=2) + "\n")
    failed = False
    for name, run in result["runs"].items():
        print(
            f"{name}: median {_show(run['median_wall_s'], '.2f')} s, "
            f"import {_show(run['median_import_s'], '.2f')} s, "
            f"peak {_show(run['median_peak_rss_mb'], '.1f')} MB, "
            f"{_show(run['median_ru_minflt'], '.0f')} minor faults, "
            f"exit codes {run['exit_codes']}"
        )
        failed = failed or any(code != 0 for code in run["exit_codes"])
    if args.against is None:
        return int(failed)
    report = compare(args.out, args.against)
    print("\n".join(report))
    if args.rtol is None:
        moved = any(not line.endswith("byte-identical") for line in report)
        return int(failed or moved)
    beyond = [
        name
        for name in _names(args.out, args.against)
        if not within(args.out / name, args.against / name, args.rtol)
    ]
    print(f"beyond --rtol {args.rtol:g}: {', '.join(beyond) or 'none'}")
    return int(failed or bool(beyond))


if __name__ == "__main__":
    sys.exit(main())

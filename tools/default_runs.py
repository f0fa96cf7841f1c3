"""Run the built-in experiments and compare their outputs with an earlier run.

Run from the repository root with the package importable::

    PYTHONPATH=src python3 tools/default_runs.py OUT [--against REF]

Each experiment in ``oseenlab.harness.EXPERIMENTS`` runs through
``oseenlab.cli.main`` at its built-in configuration, with OUT as the working
directory, so OUT receives ``NAME.csv``, its ``NAME.dat`` twin and the
captured ``NAME.stdout``; the console gets one line ``NAME: exit S in T.TT s``
per experiment (the wall time stays out of the files).  With ``--against
REF`` (a directory an earlier run wrote) every file of either directory is
reported as "byte-identical", as missing on one side, or, for a table
(``.csv`` or ``.dat``), with the largest relative difference of each column
that moved.  Any other file that differs is reported by its first differing
line: the line number and both lines, each cut to 60 characters.  The exit
status is 1 when any experiment exits non-zero or, with ``--against``, any
file is not byte-identical, else 0.  Standard library and the package only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import pathlib
import sys
import time


def run_all(out: pathlib.Path) -> bool:
    """Write every experiment's CSV, ``.dat`` and stdout into ``out``; True
    when every experiment exits 0."""
    from oseenlab import cli, harness

    out.mkdir(parents=True, exist_ok=True)
    all_ok = True
    home = os.getcwd()
    os.chdir(out)
    try:
        for name in harness.EXPERIMENTS:
            captured = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(captured):
                status = cli.main([name, "--out", f"{name}.csv"])
            elapsed = time.perf_counter() - start
            pathlib.Path(f"{name}.stdout").write_text(captured.getvalue())
            print(f"{name}: exit {status} in {elapsed:.2f} s")
            all_ok = all_ok and status == 0
    finally:
        os.chdir(home)
    return all_ok


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


def compare(out: pathlib.Path, ref: pathlib.Path) -> list[str]:
    """One report line per file of either directory; see the module docstring."""
    lines = []
    names = sorted({p.name for p in out.iterdir()} | {p.name for p in ref.iterdir()})
    for name in names:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=pathlib.Path)
    parser.add_argument("--against", type=pathlib.Path)
    args = parser.parse_args(argv)
    failed = not run_all(args.out)
    if args.against is None:
        return int(failed)
    report = compare(args.out, args.against)
    print("\n".join(report))
    return int(failed or any(not line.endswith("byte-identical") for line in report))


if __name__ == "__main__":
    sys.exit(main())

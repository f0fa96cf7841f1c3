"""Benchmark of oseenlab: three default CLI experiments, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload picard-steady --seed 1 --seconds 40 --trace 0

Each repetition runs ``run_experiment(default_config(<workload>))`` from
``oseenlab.cli`` in a fresh interpreter (``child.py``), one child at a time,
and compares its output with the golden reference (``golden.py``).

``--trace 0`` launches a few set-up-only children, then repeats the
experiment until ``--seconds`` would be overrun (at least ``MIN_REPS``
times), and reports the end-to-end metrics: median ``run_s``, ``setup_s``,
``peak_rss_mb`` and ``pass_frac``.  ``--trace 1`` alternates untraced and
traced repetitions (at least one pair) and reports the per-layer metrics of
the traced ones (``spans.py``) plus ``trace.overhead_frac``.

The human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with every sample and the environment, is
written to ``perfbench/out/``.  Exits 2 without a result when the checkout
holds no ``src/oseenlab``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = HERE / "out"

WORKLOADS = ("picard-steady", "picard-tp", "bilinear")
SETUP_PROBES = 5
MIN_REPS = 2
CHILD_TIMEOUT_S = 150.0
# No child is started, and none outlives, this long after the run began, so
# a run ends within three minutes even when children hang.
HARD_LIMIT_S = 170.0
MAX_REPORTED = 5  # departures from the reference printed per repetition

# (metric, span, statistic, unit); the span statistics come from spans.py
SPAN_METRICS = [
    ("fields.fft.calls", "fields.fft", "calls", "count"),
    ("fields.fft.points", "fields.fft", "points", "count"),
    ("fields.fft.self_s", "fields.fft", "self_s", "s"),
]
for _span in (
    "fields.sample_times",
    "fields.from_time_samples",
    "oseen.solve_steady",
    "oseen.solve_timeperiodic",
    "nonlinear.nonlinearity",
    "nonlinear.convective_product",
    "norms.lambda_norm",
    "norms.negative_norm_surrogate",
    "norms.maxreg_norm",
    "norms.sobolev_seminorm",
    "norms.lq_norm",
    "harness.random_fields",
    "lifting.build_lifting",
):
    SPAN_METRICS.append((f"{_span}.calls", _span, "calls", "count"))
    SPAN_METRICS.append((f"{_span}.self_s", _span, "self_s", "s"))
for _span in (
    "picard.picard_steady",
    "picard.picard_timeperiodic",
    "harness.fit_smallness_constant",
    "harness.run_experiment",
):
    SPAN_METRICS.append((f"{_span}.calls", _span, "calls", "count"))
    SPAN_METRICS.append((f"{_span}.total_s", _span, "total_s", "s"))

# Metrics that do not come from a span statistic.
EXTRA_LAYER_METRICS = [
    ("picard.iterations", "count"),
    ("harness.run_experiment.cpu_s", "s"),
    ("trace.overhead_frac", "frac"),
]

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "frac"),
]

# Spans each workload must call at the reference commit; zero calls is flagged.
EXPECTED_SPANS = {
    "picard-steady": (
        "fields.fft",
        "oseen.solve_steady",
        "nonlinear.nonlinearity",
        "nonlinear.convective_product",
        "norms.lambda_norm",
        "norms.negative_norm_surrogate",
        "norms.lq_norm",
        "picard.picard_steady",
        "harness.fit_smallness_constant",
        "harness.random_fields",
        "harness.run_experiment",
        "lifting.build_lifting",
    ),
    "picard-tp": (
        "fields.fft",
        "fields.sample_times",
        "fields.from_time_samples",
        "oseen.solve_steady",
        "oseen.solve_timeperiodic",
        "nonlinear.nonlinearity",
        "nonlinear.convective_product",
        "norms.lambda_norm",
        "norms.negative_norm_surrogate",
        "norms.maxreg_norm",
        "norms.lq_norm",
        "picard.picard_timeperiodic",
        "harness.fit_smallness_constant",
        "harness.random_fields",
        "harness.run_experiment",
        "lifting.build_lifting",
    ),
    "bilinear": (
        "fields.fft",
        "fields.sample_times",
        "fields.from_time_samples",
        "nonlinear.convective_product",
        "norms.negative_norm_surrogate",
        "norms.maxreg_norm",
        "norms.sobolev_seminorm",
        "norms.lq_norm",
        "harness.random_fields",
        "harness.run_experiment",
    ),
}


def launch(
    workload: str, seed: int, *flags: str, timeout: float = CHILD_TIMEOUT_S
) -> tuple[dict | None, float, str]:
    """Run one child; return its record (None on failure), launch time and error."""
    command = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed)]
    launched = time.perf_counter()
    try:
        proc = subprocess.run(
            [*command, *flags],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, launched, f"timed out after {timeout:.3g} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return None, launched, tail[0]
    return json.loads(lines[-1]), launched, ""


class Run:
    """Repetitions of one workload at one seed, and their verdicts."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.input_seed = golden.input_seed(seed)
        self.reference = golden.load(workload)[self.input_seed]
        self.setup_s: list[float] = []
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env: dict | None = None
        self.hard_deadline = time.perf_counter() + HARD_LIMIT_S

    def _launch(self, *flags: str):
        remaining = self.hard_deadline - time.perf_counter()
        return launch(
            self.workload,
            self.input_seed,
            *flags,
            timeout=max(0.1, min(CHILD_TIMEOUT_S, remaining)),
        )

    def out_of_time(self) -> bool:
        return time.perf_counter() >= self.hard_deadline

    def probe_setup(self) -> None:
        record, launched, error = self._launch("--setup-only")
        if record is None:
            self.errors.append(f"setup probe: {error}")
            return
        self.setup_s.append(record["ready"] - launched)
        self.env = record["env"]

    def repeat(self, traced: bool) -> None:
        """One repetition; a failure is one that raises, fails a check or departs
        from the golden reference."""
        self.attempted += 1
        flags = ("--trace",) if traced else ()
        record, launched, error = self._launch(*flags)
        problems = [error] if record is None else []
        if record is not None:
            self.setup_s.append(record["ready"] - launched)
            self.env = record["env"]
            problems += golden.compare(record["result"], self.reference)
            failing = [c["name"] for c in record["result"]["checks"] if not c["passed"]]
            if failing:
                problems.append("checks FAIL: " + ", ".join(failing))
            if not record["fit_cache_empty"]:
                problems.append("fit cache was not empty at the start")
            (self.traced if traced else self.untraced).append(record)
        if problems:
            self.failed += 1
            kind = "traced" if traced else "untraced"
            if len(problems) > MAX_REPORTED:
                more = len(problems) - MAX_REPORTED
                problems = problems[:MAX_REPORTED] + [f"... and {more} more"]
            self.errors += [f"{kind} repetition {self.attempted}: {p}" for p in problems]


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(run: Run) -> dict:
    reps = run.untraced
    return {
        "run_s": _median([r["run_s"] for r in reps]),
        "setup_s": _median(run.setup_s),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "pass_frac": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(run: Run) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced repetitions, and flags about them."""
    flags: list[str] = []
    reps = run.traced
    if not reps:
        return {}, ["no traced repetition succeeded"]
    first = reps[0]["spans"]
    for other in reps[1:]:
        for name, stats in first.items():
            again = other["spans"][name]
            for stat in ("calls", "points"):
                if stats and again and stats[stat] != again[stat]:
                    flags.append(
                        f"{name}.{stat} differs between traced repetitions: "
                        f"{stats[stat]} vs {again[stat]}"
                    )
    for name, targets in reps[0]["missing"].items():
        flags.append(f"missing: {name} (no target among {', '.join(targets)})")
    for name in EXPECTED_SPANS[run.workload]:
        if first.get(name) and first[name]["calls"] == 0:
            flags.append(f"zero calls: {name} on {run.workload}, which should call it")

    metrics = {}
    for metric, span, stat, _unit in SPAN_METRICS:
        if first.get(span) is None:
            metrics[metric] = None
        elif stat in ("calls", "points"):
            metrics[metric] = first[span][stat]
        else:
            metrics[metric] = _median([r["spans"][span][stat] for r in reps])
    iterations = [
        sum(row[r["result"]["columns"].index("iterations")] for row in r["result"]["rows"])
        if "iterations" in r["result"]["columns"]
        else 0
        for r in reps
    ]
    if len(set(iterations)) > 1:
        flags.append(f"picard.iterations differs between traced repetitions: {iterations}")
    metrics["picard.iterations"] = iterations[0]
    metrics["harness.run_experiment.cpu_s"] = _median([r["cpu_s"] for r in reps])
    untraced = _median([r["run_s"] for r in run.untraced])
    traced = _median([r["run_s"] for r in reps])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0 if untraced else None
    return metrics, flags


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "oseenlab" / "__init__.py").is_file():
        print(f"error: no oseenlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    start = time.perf_counter()
    deadline = start + args.seconds
    if args.trace:
        while True:
            began = time.perf_counter()
            run.repeat(traced=False)
            run.repeat(traced=True)
            now = time.perf_counter()
            if now + (now - began) > deadline or run.out_of_time():
                break
        metrics, flags = per_layer(run)
        units = [(m, u) for m, _s, _t, u in SPAN_METRICS] + EXTRA_LAYER_METRICS
        counts = {name: len(run.traced) for name, _unit in units}
    else:
        for _ in range(SETUP_PROBES):
            run.probe_setup()
        while True:
            began = time.perf_counter()
            run.repeat(traced=False)
            now = time.perf_counter()
            if run.out_of_time() or (
                run.attempted >= MIN_REPS and now + (now - began) > deadline
            ):
                break
        metrics, flags = end_to_end(run), []
        units = END_TO_END
        counts = {
            "run_s": len(run.untraced),
            "setup_s": len(run.setup_s),
            "peak_rss_mb": len(run.untraced),
            "pass_frac": run.attempted,
        }
    elapsed = time.perf_counter() - start

    print(
        f"workload {run.workload}, seed {run.seed} (input seed {run.input_seed}), "
        f"trace {args.trace}, {elapsed:.1f} s"
    )
    print("env: " + json.dumps(run.env, sort_keys=True))
    for name, unit in units:
        value = metrics.get(name)
        shown = "missing" if value is None else f"{value:.6g} {unit}"
        print(f"  {name} = {shown} (n={counts[name]})")
    print(f"failed_frac = {run.failed}/{run.attempted} repetitions")
    for line in run.errors + flags:
        print(f"flag: {line}")

    correct = run.failed == 0 and not run.errors
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "input_seed": run.input_seed,
        "trace": args.trace,
        "env": run.env,
        "samples": counts,
        "metrics": metrics,
        "flags": run.errors + flags,
        "setup_s": run.setup_s,
        "untraced": [{k: r[k] for k in ("run_s", "cpu_s", "peak_rss_mb")} for r in run.untraced],
        "traced": [
            {"run_s": r["run_s"], "cpu_s": r["cpu_s"], "spans": r["spans"]} for r in run.traced
        ],
    }
    out_path = OUT_DIR / f"{run.workload}-seed{run.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": metrics.get(name), "unit": unit} for name, unit in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

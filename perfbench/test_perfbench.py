"""Tests of the benchmark itself: golden comparator, spans and repeatability.

Run from the repository root (the tier-1 suite does not collect them)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def reference(workload: str = "picard-steady", seed: int = 0) -> dict:
    return copy.deepcopy(golden.load(workload)[seed])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reference_covers_every_seed_and_matches_itself(workload):
    stored = golden.load(workload)
    assert sorted(stored) == list(golden.SEEDS)
    for result in stored.values():
        assert golden.compare(result, result) == []
        assert all(check["passed"] for check in result["checks"])


def test_comparator_catches_a_perturbed_table_value():
    actual = reference()
    index = actual["columns"].index("solution_norm")
    actual["rows"][1][index] *= 1.0 + 1e-6
    problems = golden.compare(actual, reference())
    assert len(problems) == 1 and "row 1 solution_norm" in problems[0]


def test_comparator_accepts_a_change_within_tolerance():
    actual = reference()
    index = actual["columns"].index("solution_norm")
    actual["rows"][1][index] *= 1.0 + 1e-12
    assert golden.compare(actual, reference()) == []


def test_comparator_catches_a_flipped_verdict():
    actual = reference("bilinear", 3)
    actual["checks"][2]["passed"] = not actual["checks"][2]["passed"]
    problems = golden.compare(actual, reference("bilinear", 3))
    assert len(problems) == 1 and "verdict" in problems[0]


def test_roundoff_columns_are_scaled_by_the_solution_norm():
    actual = reference("picard-tp", 5)
    columns = actual["columns"]
    row = actual["rows"][0]
    row[columns.index("certificate")] *= 3.0  # still roundoff
    assert golden.compare(actual, reference("picard-tp", 5)) == []
    row[columns.index("certificate")] = 1e-6 * row[columns.index("solution_norm")]
    assert len(golden.compare(actual, reference("picard-tp", 5))) == 1


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    layer = [(m, u) for m, _span, _stat, u in run.SPAN_METRICS] + run.EXTRA_LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert {span for _m, span, _s, _u in run.SPAN_METRICS} <= set(spans.SPANS) | {
        spans.FFT_SPAN
    }


def test_missing_target_is_reported_not_raised():
    tracer = spans.Tracer(
        {
            "norms.gone": [("oseenlab.norms", "no_such_norm")],
            "nowhere.gone": [("oseenlab.no_such_module", "f")],
            "norms.lq_norm": spans.SPANS["norms.lq_norm"],
        }
    ).install()
    try:
        report = tracer.report()
        assert report["norms.gone"] is None and report["nowhere.gone"] is None
        assert report["norms.lq_norm"] == {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "points": 0
        }
    finally:
        tracer.uninstall()


def test_spans_wrap_every_binding_and_count_transforms():
    from oseenlab import fields, harness, norms, oseen, picard

    originals = (oseen.solve_steady, norms.lq_norm, fields._sfft.fftn)
    tracer = spans.Tracer().install()
    try:
        assert picard.solve_steady is oseen.solve_steady is harness.solve_steady
        assert picard.lambda_norm is norms.lambda_norm is harness.lambda_norm
        assert oseen.solve_steady is not originals[0]
        grid = fields.GridSpec(3, np.pi, 8)
        field = harness.random_divergence_free(grid, [0, 1])
        before = tracer.report()["norms.lq_norm"]["calls"]
        harness.lq_norm(field, 4.0)
        report = tracer.report()
        assert report["harness.random_fields"]["calls"] == 1
        assert report["norms.lq_norm"]["calls"] == before + 1
        fft = report[spans.FFT_SPAN]
        assert fft["calls"] >= 1 and fft["points"] % grid.shape[0] ** 3 == 0
        outer = report["harness.random_fields"]
        assert outer["self_s"] <= outer["total_s"]
    finally:
        tracer.uninstall()
    assert (oseen.solve_steady, norms.lq_norm, fields._sfft.fftn) == originals
    assert harness.solve_steady is originals[0]


def test_zero_calls_on_an_expected_span_is_flagged():
    bench = run.Run("picard-steady", 0)
    span = {"calls": 1, "total_s": 1.0, "self_s": 1.0, "points": 8}
    record = {
        "spans": {name: dict(span) for name in [*spans.SPANS, spans.FFT_SPAN]},
        "missing": {},
        "result": reference(),
        "run_s": 2.0,
        "cpu_s": 2.0,
    }
    record["spans"]["oseen.solve_steady"]["calls"] = 0
    record["spans"]["norms.gone"] = None
    record["missing"] = {"norms.gone": ["oseenlab.norms.gone"]}
    bench.traced.append(record)
    bench.untraced.append({"run_s": 1.6})
    metrics, flags = run.per_layer(bench)
    assert metrics["oseen.solve_steady.calls"] == 0
    assert metrics["picard.iterations"] == 6
    assert metrics["trace.overhead_frac"] == pytest.approx(0.25)
    assert any("zero calls: oseen.solve_steady" in f for f in flags)
    assert any("missing: norms.gone" in f for f in flags)


def test_two_traced_runs_repeat_counts_exactly():
    records = [run.launch("picard-steady", 0, "--trace")[0] for _ in range(2)]
    assert all(r is not None for r in records)
    first, second = (r["spans"] for r in records)
    assert {k: v["calls"] for k, v in first.items()} == {
        k: v["calls"] for k, v in second.items()
    }
    assert first[spans.FFT_SPAN]["points"] == second[spans.FFT_SPAN]["points"]
    assert records[0]["result"]["rows"] == records[1]["result"]["rows"]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bilinear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

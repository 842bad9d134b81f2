"""Fast self-test of the benchmark: every workload at tiny sizes, untraced
and traced, plus the tracer's handling of missing targets. Takes 15-20
seconds:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

run.prepare_environment()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# Per-layer metrics the benchmark was specified with; BENCHMARK.json may
# list more, never fewer.
NAMED_LAYER_METRICS = [
    "clustering.kmeans_fit.self_s", "clustering.kmeans_fit.calls",
    "plo.gen_directions.self_s", "plo.gen_directions.calls", "plo.gen_directions.rows",
    "plo.fit.self_s",
    "kernel_feature.fit_kpca.self_s", "kernel_feature.fit_kpca.calls",
    "kernel_feature.gram_matrix.self_s", "kernel_feature.center_gram.self_s",
    "kernel_feature.transform.self_s", "kernel_feature.transform.rows",
    "clustering.assign_nearest.self_s", "clustering.assign_nearest.calls",
    "plo.score.self_s",
    "evaluation.random_search.trials", "evaluation.random_search.failed",
    "evaluation.trial_success_ratio",
    "evaluation.roc_auc.self_s", "evaluation.evaluate_method.self_s",
    "cli.import_s", "cli.main.self_s",
    "plo.load_model.self_s", "plo.model_bytes", "plo.save_model.self_s",
    "data.load_csv.self_s", "data.load_csv.rows",
    "trace.overhead_s", "trace.absent_targets",
]

# Layers each workload must reach, by a per-layer count that must be > 0.
CALLED = {
    "tuned_cv": ["clustering.kmeans_fit.calls", "plo.gen_directions.rows",
                 "evaluation.random_search.trials", "evaluation.roc_auc.calls"],
    "fit_large": ["kernel_feature.fit_kpca.calls", "kernel_feature.gram_matrix.calls",
                  "clustering.kmeans_fit.calls"],
    "score_grid": ["kernel_feature.transform.rows", "clustering.assign_nearest.calls",
                   "plo.model_bytes"],
    "cli_score": ["cli.main.calls", "plo.load_model.calls", "data.load_csv.rows",
                  "kernel_feature.transform.rows", "plo.model_bytes"],
}


def spec(kind):
    return {m["name"]: m for m in BENCHMARK[kind]}


def check_emitted(result, kind):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == set(spec(kind))
    for name, metric in metrics.items():
        assert metric["unit"] == spec(kind)[name]["unit"], name
        assert spec(kind)[name]["better"] in ("lower", "higher"), name
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics(name):
    result = workloads.run(name, seed=3, seconds=0.01, trace=False, sizes=workloads.TINY)
    check_emitted(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_layer_metrics(name):
    result = workloads.run(name, seed=3, seconds=0.01, trace=True, sizes=workloads.TINY)
    check_emitted(result, "per_layer")
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["trace.absent_targets"] == 0
    for metric in CALLED[name]:
        assert metrics[metric] > 0, metric
    if name in ("score_grid", "cli_score"):
        assert metrics["clustering.kmeans_fit.calls"] == 0


def test_layer_metrics_cover_the_named_ones():
    assert set(NAMED_LAYER_METRICS) <= set(spec("per_layer"))


def test_benchmark_json_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_missing_target_is_reported_absent(monkeypatch):
    from lkplo import plo

    original = plo.fit
    monkeypatch.setitem(tracing.TARGETS, "plo.moved_away", [("lkplo.plo", "moved_away")])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert plo.fit is not original
    finally:
        tracer.uninstall()
    assert tracer.absent == ["lkplo.plo.moved_away"]
    assert plo.fit is original


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tuned_cv", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

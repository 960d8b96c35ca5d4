"""Smoke test of the benchmark at tiny sizes. It asserts no timings.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as W  # noqa: E402

TINY_MODEL = W.ModelSpec(L=4, enc_dims=(4, 4, 4), th=1)
TINY = {
    "train": W.TrainSpec(videos=4, duration_s=4, model=TINY_MODEL, step_s=1.0),
    "copy_eval": W.CopyEvalSpec(sources=3, duration_s=8, model=TINY_MODEL,
                                prep_steps=1, prep_rows=16, check_sources=2,
                                check_every=2),
    "index_mixed": W.IndexSpec(entries=40, pool=16, query_s=1.0,
                               min_queries=6, check_every=2),
}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_and_checks_pass(name, trace):
    out = W.WORKLOADS[name](3, 1.0, trace, spec=TINY[name], setup_repeats=2)
    assert out.checks and all(out.checks.values()), out.checks
    assert out.attempted >= 1 and out.failed == 0
    assert "ops_failed_share" in out.named
    assert set(out.e2e) == {n for n, _ in W.END_TO_END}
    # at tiny sizes the run may stay below the process's earlier peak
    assert out.e2e["peak_rss_mb"] >= 0
    assert all(v > 0 for n, v in out.e2e.items() if n != "peak_rss_mb")
    if trace:
        assert [n for n, _ in W.PER_LAYER] == list(out.layer_metrics())
        assert set(out.layers) <= {n for n, _ in W.PER_LAYER}
        assert out.trace["spans"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(W.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(W.PER_LAYER)


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "index_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

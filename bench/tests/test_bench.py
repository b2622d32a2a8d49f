"""Self-test of the benchmark: every workload at its tiny size.

    python3 -m pytest bench/tests -q

At the tiny size satellite_rows keeps its rows of at most 4 crossings,
braid_family its first 5 words and annulus_algebra its smallest shapes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*extra, cwd=ROOT, workload="braid_family", trace=0):
    command = [
        sys.executable,
        str(cwd / "bench" / "run.py"),
        *SPEC["command"][2:],
        "--workload", workload,
        "--seed", "3",
        "--seconds", "1",
        "--trace", str(trace),
        "--size", "tiny",
        *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result = result_of(run_bench(workload=workload))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    result = result_of(run_bench(trace=1))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["skein_eval.homfly_calls"]["value"] == 5  # one per closure


def test_corrupted_reference_counts_as_failed(tmp_path):
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    reference["braid_family"]["values"][0][0] += " + v"
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    done = run_bench("--reference", str(corrupted))
    result = result_of(done)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert "failed_frac 0.0" not in done.stdout


def test_words_without_reference_are_checked_by_skein_relation():
    result = result_of(run_bench("--braid-seed", "2"))
    assert result["correct"] and result["failed"] == 0


def test_fails_without_printing_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

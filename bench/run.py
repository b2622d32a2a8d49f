"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --braid-seed 1 --workload braid_family --seed 7 --seconds 43 --trace 0

Run from anywhere inside a checkout holding `src/skeinkit`; nothing is
built.  The workload runs in one process, which repeats whole passes
over the items.  Every latency is scaled to the reference speed of
`calibration.py`, and each timing metric takes every item's median.
Set-up is sampled in fresh processes started between the passes, scaled
the same way and reported as their median.  The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  README.md defines
every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_LIMIT_S = 170  # the whole run, set-up processes included

sys.path.insert(0, str(BENCH_DIR))
from workload import WORKLOAD_NAMES  # noqa: E402


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks; one value is its own percentile."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def run_child(argv: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    command = [sys.executable, str(BENCH_DIR / "workload.py"), *argv, "--t0", repr(time.time())]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def per_item(passes: list[dict], phase: str) -> list[float]:
    """Each item's median latency over every run of it in every pass."""
    return [
        statistics.median(t for runs in samples for t in runs)
        for samples in zip(*(p[phase] for p in passes))
    ]


def timings(result: dict, prefix: str = "") -> dict:
    """The timing metrics from the scaled latencies, or the raw ones with prefix "raw_"."""
    cold = per_item(result["passes"], prefix + "cold")
    warm = per_item(result["passes"], prefix + "warm")
    cold_s = sum(cold)
    return {
        "setup_s": statistics.median(result[prefix + "setup_times"]),
        "solve_s": cold_s + sum(warm),
        "cold_verify_s": cold_s,
        # a workload with a single phase reports it as both cold and warm
        "warm_verify_s": sum(warm) if warm else cold_s,
        "item_p50_s": percentile(cold, 0.5),
        "item_p90_s": percentile(cold, 0.9),
    }


def end_to_end(result: dict) -> dict:
    values = timings(result)
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    return metrics


def per_layer(result: dict) -> dict:
    units = {"_s": "s", "_ratio": "ratio"}
    metrics = {}
    for name, value in result["layers"].items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--braid-seed", type=int, required=True, help="seed of the braid_family words"
    )
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "skeinkit" / "__init__.py").is_file():
        print(f"error: no skeinkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--braid-seed", str(args.braid_seed),
        "--size", args.size,
        "--reference", str(args.reference.resolve()),
    ]
    try:
        result = run_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{args.workload} seed {args.seed}: {len(result['passes'])} pass(es),"
        f" {len(result['passes'][0]['cold'])} cold-phase items,"
        f" {len(result.get('setup_times', []))} set-up samples,"
        f" inputs sha256 {result['inputs_sha256']}"
    )
    print(f"attempted {attempted}, failed {failed}, failed_frac {failed / attempted}")
    if not args.trace:
        raw = ", ".join(f"{k}={v:.4g}" for k, v in timings(result, "raw_").items())
        print(f"unscaled seconds: {raw}")
    if args.trace:
        calls = ", ".join(f"{k}={v}" for k, v in sorted(result["cold_phase_calls"].items()))
        print(f"cold-phase calls: {calls}")
        print(f"spans written to {result['trace_file']}")
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload in this process and print its figures as JSON.

`run.py` starts this script once for the measured run.  Between its
passes, the measured run starts this script again with `--setup-only`,
several times, to sample set-up.  Set-up is timed from `--t0`, the wall
clock at which the parent started that process, so it covers interpreter
start, `import skeinkit` and building the inputs.  README.md describes
the workloads and the metrics.

A pass empties the evaluator cache and runs the garbage collector, both
outside the timed region, then runs every item once, in order.  On
satellite_rows every item is isolated: the cache is emptied and the
collector run before it too, and right after its cold run the item runs
WARM_REPEATS more times on the cache the cold run left (the warm phase).
Every pass does the same work, so each item's latencies are recorded per
pass and `run.py` takes each item's median.  The calibration kernel of
`calibration.py` is timed before the first item and after every run of an
item, outside the timed region, and each latency is scaled to the
reference speed with the two kernel samples around it.
Requests call the package through its module attributes (`cli.run`,
`skein_eval.homfly`, ...) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import calibration
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
TRACE_DIR = BENCH_DIR.parent / ".bench_out"

WORKLOAD_NAMES = ("satellite_rows", "braid_family", "annulus_algebra")

BRAID_STRANDS = 3
BRAID_LETTERS = 20
# full / tiny sizes; tiny keeps the self-test short
# most crossings of a satellite row: a 12-crossing row takes 16-36 s alone
ROW_MAX_CROSSINGS = {"full": 8, "tiny": 4}
BRAID_ITEMS = {"full": 100, "tiny": 5}
# largest plan target, distinctness scan and pairing check shape sizes
ANNULUS_SIZES = {"full": (5, 12, 6), "tiny": (3, 6, 3)}
# set-up processes started before the first pass and after every pass
SETUP_SAMPLES_PER_GAP = 3
# warm runs of each isolated item per pass
WARM_REPEATS = 2

_RAISED = object()


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    items: list[Request]
    inputs: list  # JSON description of the generated inputs, hashed into the results
    isolated: bool = False  # empty the cache before each item, and give each a warm phase
    after: Optional[Callable[[], int]] = None  # check after the timed passes; returns failures


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _is_true(output) -> bool:
    return output is True


# ----------------------------------------------------------------------
# workloads


def satellite_rows(size: str):
    """(name, component, meridians, row) for every width-two satellite row
    of a corpus link with 1 to ROW_MAX_CROSSINGS[size] crossings."""
    from skeinkit.corpus import corpus_names, load_corpus
    from skeinkit.verify import build_satellite_row

    rows = []
    for name in corpus_names():
        d = load_corpus(name)
        for comp in range(d.n_components):
            for r in range(4):
                row = build_satellite_row(d, comp, r)
                if 0 < len(row.crossings) <= ROW_MAX_CROSSINGS[size]:
                    rows.append((name, comp, r, row))
    return rows


def row_argv(path: Path) -> list[str]:
    return ["verify", "rudolph", str(path), "--json"]


def satellite_rows_workload(args, reference) -> Workload:
    from skeinkit import cli

    expected = reference["satellite_rows"]
    row_dir = TRACE_DIR / "rows"
    row_dir.mkdir(parents=True, exist_ok=True)

    def request(name: str, comp: int, r: int, row) -> Request:
        key = f"{name} c{comp + 1} r{r}"
        path = row_dir / f"{name}-c{comp + 1}-r{r}.json"
        path.write_text(row.to_json())
        argv = row_argv(path)

        def check(output) -> bool:
            code, text = output
            return code == 0 and json.loads(text)["passed"] and sha256_text(text) == expected[key]

        return Request(key, lambda: cli.run(argv), check)

    requests = [request(*row) for row in satellite_rows(args.size)]
    random.Random(args.seed).shuffle(requests)  # items are isolated: the order changes no cost
    return Workload(requests, [r.label for r in requests], isolated=True)


def braid_words(seed: int, count: int) -> list[list[int]]:
    """Random 3-strand words of 20 letters, no letter next to its inverse."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        word: list[int] = []
        while len(word) < BRAID_LETTERS:
            letter = rng.choice((1, 2, -1, -2))
            if not word or word[-1] != -letter:
                word.append(letter)
        words.append(word)
    return words


def braid_values(d) -> list[str]:
    from skeinkit import skein_eval

    return [skein_eval.homfly(d).render(), skein_eval.kauffman(d).render()]


def braid_family(args, reference) -> Workload:
    from skeinkit import skein_eval
    from skeinkit.corpus import braid_closure

    words = braid_words(args.braid_seed, BRAID_ITEMS["full"])
    stored = reference["braid_family"]
    values = None
    if stored["braid_seed"] == args.braid_seed:
        if sha256_text(json.dumps(words)) != stored["words_sha256"]:
            raise ValueError("braid words differ from the ones the reference was made from")
        values = stored["values"]
    # Closures run in word order whatever --seed is: they share the memo,
    # so another order would move cost between items.
    words = words[: BRAID_ITEMS[args.size]]
    diagrams = [braid_closure(BRAID_STRANDS, w, f"braid{i}") for i, w in enumerate(words)]

    def request(i: int) -> Request:
        def check(output) -> bool:
            return values is None or output == values[i]

        return Request(f"braid{i} {words[i]}", lambda: braid_values(diagrams[i]), check)

    def probe_failures() -> int:
        # words without stored values: check the skein relation at crossing 0
        return sum(
            not all(
                skein_eval.skein_relation_probe(d, 0, flavor)["holds"]
                for flavor in ("oriented", "unoriented")
            )
            for d in diagrams
        )

    requests = [request(i) for i in range(len(words))]
    after = None if values is not None else probe_failures
    return Workload(requests, words, after=after)


def _plan_identity(target, anchor) -> bool:
    from skeinkit import annulus

    plan = annulus.expand_ylambda(target, anchor)
    return annulus.realize_symbolic(plan) == annulus.AnnulusVecK.basis(target).scale(
        plan.full_scale()
    )


def annulus_algebra(args, reference) -> Workload:
    from skeinkit import annulus, eigen
    from skeinkit.partition import partitions_of, partitions_up_to

    plan_size, distinct_size, pairing_size = ANNULUS_SIZES[args.size]
    requests = []
    for size in range(1, plan_size + 1):
        for target in partitions_of(size):
            for anchor in [None] if size == 1 else target.cells_removable():
                requests.append(
                    Request(
                        f"plan {target} anchor {anchor}",
                        lambda t=target, a=anchor: _plan_identity(t, a),
                        _is_true,
                    )
                )
    requests.append(
        Request(
            f"mod-2 distinctness up to size {distinct_size}",
            lambda: eigen.check_eigenvalue_distinctness(distinct_size).all_distinct,
            _is_true,
        )
    )
    requests.append(
        Request(
            f"pairing structure up to size {pairing_size}",
            lambda: all(annulus.hsr_structure_check(s).holds for s in partitions_up_to(pairing_size)),
            _is_true,
        )
    )
    random.Random(args.seed).shuffle(requests)  # no cache: the order changes no cost
    return Workload(requests, [r.label for r in requests])


WORKLOADS = {
    "satellite_rows": satellite_rows_workload,
    "braid_family": braid_family,
    "annulus_algebra": annulus_algebra,
}


# ----------------------------------------------------------------------
# passes


def call(request: Request):
    try:
        return request.run()
    except Exception:
        traceback.print_exc()
        return _RAISED


def passed(request: Request, output) -> bool:
    try:
        ok = output is not _RAISED and request.check(output)
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"failed: {request.label}", file=sys.stderr)
    return ok


def run_pass(work: Workload, kernel: calibration.Kernel, cold_call=call, warm_call=call) -> dict:
    """One pass over the items.  Latencies are kept per item, as lists, so
    that `run.py` can take each item's median over the passes."""
    from skeinkit import skein_eval

    skein_eval.clear_caches()
    gc.collect()  # every pass starts from the same collector state
    start = time.perf_counter()
    outputs: list = []
    raw: dict[str, list] = {"cold": [], "warm": []}
    scaled: dict[str, list] = {"cold": [], "warm": []}
    before = kernel.sample()

    def timed(phase: str, runner, request: Request) -> None:
        nonlocal before
        begin = time.perf_counter()
        outputs.append((request, runner(request)))
        seconds = time.perf_counter() - begin
        after = kernel.sample()
        raw[phase][-1].append(seconds)
        scaled[phase][-1].append(calibration.to_reference(seconds, before, after))
        before = after

    for request in work.items:
        if work.isolated:
            skein_eval.clear_caches()
            gc.collect()
            before = kernel.sample()
        for phase in ("cold", "warm") if work.isolated else ("cold",):
            raw[phase].append([])
            scaled[phase].append([])
        timed("cold", cold_call, request)
        if work.isolated:
            for _ in range(WARM_REPEATS):
                timed("warm", warm_call, request)
    return {
        **scaled,
        "raw_cold": raw["cold"],
        "raw_warm": raw["warm"],
        "solve_s": sum(map(min, scaled["cold"])) + sum(map(min, scaled["warm"])),
        "pass_s": time.perf_counter() - start,
        "attempted": len(outputs),
        "failed": sum(not passed(request, output) for request, output in outputs),
    }


def traced_pass(kernel: calibration.Kernel, args, reference, result: dict) -> dict:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    # build the inputs again under the tracer, so that the diagram surgery
    # of set-up (cabling, meridians) is traced as well
    work = tracer.wrap("phase.setup", WORKLOADS[args.workload])(args, reference)
    traced = run_pass(
        work, kernel, tracer.wrap("phase.cold", call), tracer.wrap("phase.warm", call)
    )
    result["layers"] = tracing.layer_metrics(tracer)
    result["cold_phase_calls"] = tracer.calls_under("phase.cold")
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"spans": tracer.spans, "stats": tracer.stats}))
    result["trace_file"] = str(path.relative_to(BENCH_DIR.parent))
    return traced


def setup_sample(args) -> float:
    """Set-up time of a fresh process given this run's workload arguments."""
    command = [
        sys.executable, __file__,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--braid-seed", str(args.braid_seed),
        "--size", args.size,
        "--reference", str(args.reference),
        "--setup-only",
        "--t0", repr(time.time()),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--braid-seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--reference", type=Path, default=BENCH_DIR / "reference.json")
    parser.add_argument("--t0", type=float, required=True, help="wall clock at process start")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import skeinkit  # noqa: F401  (set-up covers the package import)

    reference = json.loads(args.reference.read_text())
    work = WORKLOADS[args.workload](args, reference)
    if args.setup_only:
        print(json.dumps({"setup_s": time.time() - args.t0}))
        return 0

    result = {"inputs_sha256": sha256_text(json.dumps(work.inputs))}
    kernel = calibration.Kernel()
    if args.trace:
        # an untraced pass first, so the tracing overhead can be reported
        passes = [run_pass(work, kernel)]
        passes.append(traced_pass(kernel, args, reference, result))
        result["layers"]["trace.overhead_s"] = passes[1]["solve_s"] - passes[0]["solve_s"]
    else:
        # Whole passes while the next one still fits in --seconds, at least
        # one.  Set-up samples sit between them, so that both the samples
        # and the passes are spread over the whole run.
        def sample_setup():
            for _ in range(SETUP_SAMPLES_PER_GAP):
                before = kernel.sample()
                seconds = setup_sample(args)
                setup_times.append(calibration.to_reference(seconds, before, kernel.sample()))
                raw_setup_times.append(seconds)

        passes = []
        setup_times: list[float] = []
        raw_setup_times: list[float] = []
        start = time.perf_counter()
        sample_setup()
        while True:
            passes.append(run_pass(work, kernel))
            sample_setup()
            if time.perf_counter() - start + passes[-1]["pass_s"] > args.seconds:
                break
        result["setup_times"] = setup_times
        result["raw_setup_times"] = raw_setup_times
    failed = sum(p["failed"] for p in passes)
    if work.after is not None:
        failed += work.after()
    result.update(
        passes=[{k: p[k] for k in ("cold", "warm", "raw_cold", "raw_warm")} for p in passes],
        attempted=sum(p["attempted"] for p in passes),
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write bench/reference.json: the outputs every benchmark run is checked against.

    PYTHONPATH=src python3 bench/make_reference.py --braid-seed 1

Stores the sha256 of the CLI output of every satellite_rows item and the rendered
homfly/kauffman values of every braid_family word of the given seed.
Rendered outputs are a byte-exact contract of the package, so regenerate
this file only when that contract is changed on purpose.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from workload import (
    BRAID_ITEMS,
    BRAID_STRANDS,
    TRACE_DIR,
    braid_values,
    braid_words,
    row_argv,
    satellite_rows,
    sha256_text,
)

BENCH_DIR = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--braid-seed", type=int, required=True)
    args = parser.parse_args()

    from skeinkit import cli
    from skeinkit.corpus import braid_closure

    rows = {}
    row_dir = TRACE_DIR / "rows"
    row_dir.mkdir(parents=True, exist_ok=True)
    for name, comp, r, row in satellite_rows("full"):
        path = row_dir / f"{name}-c{comp + 1}-r{r}.json"
        path.write_text(row.to_json())
        code, text = cli.run(row_argv(path))
        if code != 0:
            raise SystemExit(f"{' '.join(row_argv(path))} exited {code}:\n{text}")
        rows[f"{name} c{comp + 1} r{r}"] = sha256_text(text)

    words = braid_words(args.braid_seed, BRAID_ITEMS["full"])
    values = [
        braid_values(braid_closure(BRAID_STRANDS, word, f"braid{i}"))
        for i, word in enumerate(words)
    ]
    reference = {
        "satellite_rows": rows,
        "braid_family": {
            "braid_seed": args.braid_seed,
            "words_sha256": sha256_text(json.dumps(words)),
            "values": values,
        },
    }
    (BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Regenerate ``references.json``: the frozen per-mode prices the
correctness gate checks ``table4`` and ``basket-ris`` against.

For every (row, mode) the workload runs, the reference is the mean of
``BLOCKS`` independent runs of exactly that pipeline, on seeds the benchmark
never uses (``REFERENCE_SEED + k``). It stores the mean, its standard error
(spread over the square root of the count) and the spread of one run, so
the gate does not lean on the estimator's own variance formula. Same-sample
modes carry their finite-sample bias into their reference; ``README.md``
lists the biases this file shows. Run from the repository root (about five
minutes on two cores):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import tiltmc
import tiltmc.cli
from workload import HERE, build_rows

REFERENCE_SEED = 2**62
BLOCKS = {"table4": 40, "basket-ris": 48}


def collect(workload: str, blocks: int) -> dict:
    def one(k):
        rows = build_rows(tiltmc, workload, REFERENCE_SEED + k)
        return tiltmc.cli.run_experiment(workload, rows, record_failures=False)

    prices = defaultdict(list)
    with ThreadPoolExecutor(max_workers=2) as pool:
        for results in pool.map(one, range(blocks)):
            for row in results:
                prices[row.label, row.report.mode].append(row.report.price)
    out = defaultdict(dict)
    for (label, mode), values in prices.items():
        sd = statistics.stdev(values)
        out[label][mode] = {
            "mean": statistics.fmean(values),
            "se": sd / math.sqrt(len(values)),
            "sd": sd,
        }
        print(f"{workload} {label} {mode}: {out[label][mode]}", file=sys.stderr)
    return out


def main() -> int:
    document = {
        "method": (
            f"per (row, mode): mean, standard error and single-run spread of "
            f"independent runs on seeds {REFERENCE_SEED} + k, k < blocks"
        ),
        "blocks": BLOCKS,
        "prices": {workload: collect(workload, blocks) for workload, blocks in BLOCKS.items()},
    }
    with open(HERE / "references.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

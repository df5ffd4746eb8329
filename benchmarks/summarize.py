"""Median, quartiles and spread of every metric over the raw result files
that ``run.py`` leaves in ``benchmarks/results/``, as Markdown tables.

    python3 benchmarks/summarize.py [--trace 0|1]

The spread is (Q3 - Q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    table = defaultdict(lambda: defaultdict(list))
    counts = defaultdict(lambda: [0, 0, 0])
    for path in sorted((HERE / "results").glob(f"*-seed*-trace{args.trace}.json")):
        workload = path.name.rsplit("-seed", 1)[0]
        result = json.loads(path.read_text())["result"]
        counts[workload][0] += 1
        counts[workload][1] += result["attempted"]
        counts[workload][2] += result["failed"]
        for name, m in result["metrics"].items():
            table[workload][(name, m["unit"])].append(m["value"])
    for workload, metrics in table.items():
        runs, attempted, failed = counts[workload]
        print(f"\n`{workload}`: {runs} runs, {attempted} trials attempted, {failed} failed\n")
        print("| metric | unit | median | Q1 | Q3 | spread |")
        print("|---|---|---|---|---|---|")
        for (name, unit), values in metrics.items():
            med = median(values)
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| `{name}` | {unit} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

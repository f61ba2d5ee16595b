"""Regenerate perfbench/goldens.json: the exact closed forms (clausen and
dirichlet terms) of every g2-mixed request and every table-verify row,
keyed by request so that a run with any seed can be checked.

    python3 perfbench/make_goldens.py

Run from the root of a checkout.  Takes about ten minutes on one core;
prints each request's wall time to stderr.
"""
from __future__ import annotations

import json
import os
import sys

from workloads import golden_entry, golden_key, pool, row_key
from worker import load_package, run_request

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    tornheim = load_package(os.path.dirname(HERE))
    goldens = {}
    for workload in ("g2-mixed", "table-verify"):
        for _, argv in pool(workload):
            r = run_request(tornheim.cli.main, argv + ["--format", "json"])
            if r["rc"] != 0:
                raise SystemExit(f"{argv} failed: {r}")
            for _, line, _ in r["lines"]:
                record = json.loads(line)
                key = (golden_key(argv) if workload == "g2-mixed"
                       else row_key(record["request"]))
                goldens[key] = golden_entry(record)
            print(f"{' '.join(argv)}\t{r['elapsed'] * 1e3:.1f}", file=sys.stderr)
    with open(os.path.join(HERE, "goldens.json"), "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

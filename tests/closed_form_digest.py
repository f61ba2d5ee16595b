"""One sha256 per weight over the closed forms of a fixed request set, to
show that a change to the closed-form engine leaves every form
byte-identical.

The set is every EvalRequest with 1 <= a, b <= 8 and every composition
of weights 5, 7, 9, 11 and 13 (10,240 requests), plus the 81 reduced
terms of `test_closed_form_snapshot.high_cases` at weights 21, 31 and
43.  Each digest hashes the `to_json` line of every request of that
weight, in a fixed order.  Its stdout is committed as
tests/data/closed_form_digests.txt, and CI diffs a fresh run against
that file; the timing line goes to stderr.  It is not a test module, so
pytest does not collect it.  From the repository root:

    PYTHONPATH=src python tests/closed_form_digest.py \
        | diff tests/data/closed_form_digests.txt -

A change that moves closed forms on purpose regenerates the file, as it
does the snapshots, by redirecting stdout to it.
"""
import hashlib
import sys
import time

from tornheim.constants import to_json
from tornheim.parity import EvalRequest, closed_form

from test_closed_form_snapshot import _compositions, high_cases


def requests():
    for weight in (5, 7, 9, 11, 13):
        for a in range(1, 9):
            for b in range(1, 9):
                for ks in _compositions(weight):
                    yield (a, b, *ks)
    yield from high_cases()


def main():
    digests: dict[int, "hashlib._Hash"] = {}
    counts: dict[int, int] = {}
    start = time.perf_counter()
    for case in requests():
        weight = sum(case[2:])
        line = f"{case} {to_json(closed_form(EvalRequest(*case)))}\n"
        digests.setdefault(weight, hashlib.sha256()).update(line.encode())
        counts[weight] = counts.get(weight, 0) + 1
    for weight, h in digests.items():
        print(f"weight {weight:2d}  {counts[weight]:5d} forms  {h.hexdigest()}")
    print(f"{sum(counts.values())} forms in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)


if __name__ == "__main__":
    main()

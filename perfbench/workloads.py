"""Request pools of the benchmark workloads, seeded request order, and
the checks applied to every CLI record.

Each workload is a pool of `tornheim` argv lists plus a fixed warm-up
request that lies outside the pool.  The seed only orders the pool, so
the program sees nothing but the generated argv.
"""
from __future__ import annotations

import itertools
import random
from math import gcd, log10

WORKLOADS = ("g2-mixed", "table-verify", "wide-strict")

# g2-mixed: every six-part composition of weights 9, 11 and 13 (1,100
# requests).  The headline object of the paper; the closed-form engine
# dominates and reduced terms repeat heavily across requests.
G2_WEIGHTS = (9, 11, 13)

# table-verify: 8 invocations, 172 rows.  The series oracle dominates,
# no partial-fraction step runs and no closed-form term repeats.
TABLE_WEIGHTS = (7, 9)
G2_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 3))

# wide-strict: coprime pairs with max(a, b) in 4..8 outside the G2 set,
# both orientations, weights 5, 7, 9 (1,764 requests), verified at 50
# digits to 1e-35.  Shift corrections run at Clausen angles with
# denominators 4..8 and the oracle needs larger cutoffs for shifts as
# small as 1/8.  Checked only by that numeric verification, not by
# golden closed forms: canonical forms at denominators 4..8 are expected
# to change when the distribution relations for C_j and S_j are applied.
WIDE_WEIGHTS = (5, 7, 9)
WIDE_TOL = "1e-35"
WIDE_PREC = "50"

WARMUP = {
    "g2-mixed": ["g2", "--k", "1", "1", "1", "1", "1", "2"],
    "table-verify": ["table", "--weight", "5", "--pairs", "1,1"],
    "wide-strict": ["eval", "--a", "1", "--b", "1", "--k", "1", "1", "3",
                    "--verify", "--prec", WIDE_PREC, "--tol", WIDE_TOL],
}


def compositions(weight: int, parts: int):
    """All tuples of `parts` positive integers summing to `weight`."""
    for cuts in itertools.combinations(range(1, weight), parts - 1):
        edges = (0,) + cuts + (weight,)
        yield tuple(edges[i + 1] - edges[i] for i in range(parts))


def _ints(xs) -> list[str]:
    return [str(x) for x in xs]


def g2_argv(ks) -> list[str]:
    return ["g2", "--k", *_ints(ks)]


def table_argv(weight: int, pair) -> list[str]:
    return ["table", "--weight", str(weight), "--pairs", f"{pair[0]},{pair[1]}"]


def wide_argv(a: int, b: int, ks) -> list[str]:
    return ["eval", "--a", str(a), "--b", str(b), "--k", *_ints(ks),
            "--verify", "--prec", WIDE_PREC, "--tol", WIDE_TOL]


def wide_pairs() -> list[tuple[int, int]]:
    g2 = set(G2_PAIRS) | {(b, a) for a, b in G2_PAIRS}
    return [(a, b) for a in range(1, 9) for b in range(1, 9)
            if gcd(a, b) == 1 and 4 <= max(a, b) <= 8 and (a, b) not in g2]


def g2_cost(ks) -> int:
    _, k2, k3, k4, k5, k6 = ks
    return 2 * k2 + 3 * k3 + 4 * k4 + 5 * (k5 + k6)


def eval_cost(a: int, b: int, ks) -> int:
    return a + b + 2 * (ks[0] + ks[1]) + 7 * ks[2]


def pool(workload: str) -> list[tuple[int, list[str]]]:
    """The request pool as (cost key, argv) pairs.

    The cost key ranks requests by expected cost.  It is a least-squares
    fit of the log of request time to the exponents (and, for eval, the
    pair), rounded to small integers: see g2_cost and eval_cost.  Over
    378 timed G2 and 1,060 timed eval requests it correlates 0.93 (G2)
    and 0.90 (eval) with the log of request time.  The exponents on the
    mixed linear forms weigh most: they set how deep the partial-fraction
    work goes.
    """
    if workload == "g2-mixed":
        return [(g2_cost(ks), g2_argv(ks))
                for w in G2_WEIGHTS for ks in compositions(w, 6)]
    if workload == "table-verify":
        return [(0, table_argv(w, p)) for w in TABLE_WEIGHTS for p in G2_PAIRS]
    if workload == "wide-strict":
        return [(eval_cost(a, b, ks), wide_argv(a, b, ks)) for w in WIDE_WEIGHTS
                for a, b in wide_pairs() for ks in compositions(w, 3)]
    raise ValueError(f"unknown workload {workload!r}")


GOLDEN = (5 ** 0.5 - 1) / 2


def request_passes(workload: str, seed: int):
    """Endless seeded passes over the pool, each a fresh order whose every
    prefix is spread evenly over the pool's range of cost.

    The pool is sorted by cost key (ties in random order) and visited at
    the positions of a golden-ratio sequence with a random start, the
    next free position taken on a collision.  A time-bounded run stops
    at some prefix, so the mix of costs it measures stays the same across
    seeds while the requests themselves differ.
    """
    rng = random.Random(seed)
    while True:
        ranked = [argv for _, _, argv in
                  sorted((key, rng.random(), argv) for key, argv in pool(workload))]
        n = len(ranked)
        taken = [False] * n
        start = rng.random()
        order = []
        for j in range(n):
            i = int((start + j * GOLDEN) % 1.0 * n)
            while taken[i]:
                i = (i + 1) % n
            taken[i] = True
            order.append(ranked[i] + ["--format", "json"])
        yield order


# ------------------------------------------------------------------ checks

def term_strings(result: dict) -> list[str]:
    """A closed form's JSON terms as sorted exact strings, such as
    '-505/648 zeta(5)*pi^2' or '9/4 S(6,1/3)*pi'; equal lists mean equal
    closed forms."""
    out = []
    for t in result["terms"]:
        factors = []
        for f in t["factors"]:
            args = [str(f["index"])] if "index" in f else []
            if "angle" in f:
                args.append("/".join(f["angle"]))
            s = f["kind"] + (f"({','.join(args)})" if args else "")
            if f["exp"] != 1:
                s += f"^{f['exp']}"
            factors.append(s)
        out.append(f"{t['num']}/{t['den']} " + "*".join(factors))
    return sorted(out)


def golden_key(argv: list[str]) -> str:
    """Key of a g2 request, e.g. 'g2 1 1 2 3 1 1'."""
    return "g2 " + " ".join(argv[2:8])


def row_key(request: dict) -> str:
    """Key of a table row, e.g. 'zeta 2 3 1 1 5'."""
    return "zeta " + " ".join(str(x) for x in
                              [request["a"], request["b"], *request["k"]])


def golden_entry(record: dict):
    """What the goldens store for one g2 record or one table row."""
    if "clausen" in record:
        return {"clausen": term_strings(record["clausen"]),
                "dirichlet": term_strings(record["dirichlet"])}
    return term_strings(record["result"])


def _residual_ok(check: dict) -> bool:
    # re-check the tolerance from the record itself, not only `passed`
    return bool(check["passed"]) and float(check["rel_residual"]) <= check["tolerance"]


def check_record(workload: str, argv: list[str], record: dict,
                 goldens: dict) -> str | None:
    """None when the record is correct, else the reason it is not."""
    if workload == "g2-mixed":
        checks = record["checks"]
        if set(checks) != {"clausen", "dirichlet"}:
            return "missing check record"
        if not all(_residual_ok(c) for c in checks.values()):
            return "numeric check failed"
        if golden_entry(record) != goldens[golden_key(argv)]:
            return "closed form differs from golden"
        return None
    if workload == "table-verify":
        if not record.get("passed") or not _residual_ok(record["check"]):
            return record.get("error", "numeric check failed")
        if golden_entry(record) != goldens[row_key(record["request"])]:
            return "closed form differs from golden"
        return None
    check = record.get("check")
    if check is None or not _residual_ok(check):
        return "numeric check failed"
    if check["tolerance"] != float(WIDE_TOL):
        return "verified at the wrong tolerance"
    return None


def expected_rows(argv: list[str]) -> list[str]:
    """Keys of the rows a table invocation must emit, in order."""
    weight = int(argv[argv.index("--weight") + 1])
    a, b = argv[argv.index("--pairs") + 1].split(",")
    return [row_key({"a": a, "b": b, "k": ks}) for ks in compositions(weight, 3)]


def residual_log10(check: dict) -> float:
    return log10(max(float(check["rel_residual"]), 1e-300))

"""The tornheim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload g2-mixed --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; tornheim is imported from ./src.  One
client drives `tornheim.cli.main(argv)` with `--format json` in a fresh
worker process, in a closed loop: the next request is sent when the last
one returns.  Every record is checked (exit code, every numeric check,
and the golden closed form where the workload has one).

Every timing is scaled to a reference host speed.  The worker times a
fixed calibration job between requests and between output lines
(calibrate.py), and each request, or each table row, is scaled by
REFERENCE_S / (the mean of the calibrations just before and just after
it).  A set-up sample is scaled by calibrations its worker makes right
after it is ready.  The raw timings and the scales go to the run
record.

--trace 0 reports the end-to-end metrics; --trace 1 runs the same
requests untraced and then traced, each in a fresh worker, and reports
the per-layer metrics.  Human-readable lines come first; the last line
of stdout is one JSON object {correct, attempted, failed, metrics}.  A
run record with machine details and raw latencies is written to
perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S
from layertrace import layer_metrics, merge
from workloads import (WARMUP, WORKLOADS, check_record, expected_rows,
                       request_passes, residual_log10, row_key)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150

# ------------------------------------------------------------ workers

class Worker:
    """A fresh interpreter running perfbench/worker.py; killed and reaped
    on exit from the `with` block if it has not ended by then."""

    def __init__(self, workload: str, trace: bool):
        cfg = {"root": ROOT, "warmup": WARMUP[workload] + ["--format", "json"],
               "trace": trace}
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.pop("TORNHEIM_PREC", None)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready = self.proc.stdout.readline()
            # interpreter start, import tornheim and one warm-up request
            self.setup_s = time.perf_counter() - start
            if not ready.strip():
                raise RuntimeError("worker exited before it was ready")
        except BaseException:
            self.__exit__()
            raise

    def run(self, job: dict | None) -> dict:
        out, _ = self.proc.communicate(json.dumps(job) + "\n",
                                       timeout=WORKER_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return json.loads(out)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        with self.proc:  # closes the pipes and waits
            pass


# ------------------------------------------------------------ checking

def evaluate(workload: str, requests: list, report: dict, goldens: dict) -> dict:
    """Check every result.  Returns per-request latencies in seconds (for
    table-verify one per row, timed by when its line was written), raw
    and scaled, the parsed records, and the attempted and failed request
    counts."""
    latencies, scaled, records, failures = [], [], [], []
    attempted = failed = 0
    for argv, res in zip(requests, report["results"]):
        table = workload == "table-verify"
        keys = expected_rows(argv) if table else [None]
        attempted += len(keys)
        bad = []
        if res["error"] or res["rc"] != 0:
            bad.append(f"exit {res['rc']} {res['error'] or res['stderr'].strip()}")
        if len(res["lines"]) != len(keys):
            bad.append(f"{len(res['lines'])} output lines, expected {len(keys)}")
        good_rows = 0
        previous = 0.0
        for key, (t, line, _), row_scale in zip(keys, res["lines"],
                                                res["line_scales"]):
            latencies.append(t - previous if table else res["elapsed"])
            scaled.append(latencies[-1] * (row_scale if table else res["scale"]))
            previous = t
            try:
                record = json.loads(line)
                reason = ("row out of order"
                          if table and row_key(record["request"]) != key
                          else check_record(workload, argv, record, goldens))
            except (ValueError, KeyError, TypeError) as exc:
                bad.append(f"malformed record: {exc!r}")
                continue
            records.append(record)
            if reason:
                bad.append(reason)
            else:
                good_rows += 1
        if bad:
            failures.append(f"{' '.join(argv)}: {'; '.join(bad)}")
            # an invocation that exits badly fails every row it produced
            failed += len(keys) if res["error"] or res["rc"] != 0 else max(
                len(keys) - good_rows, 1)
    return {"latencies": latencies, "scaled": scaled,
            "records": records, "failures": failures,
            "attempted": attempted, "failed": failed}


def record_counters(records: list) -> dict:
    """Counters every JSON record carries; no tracing needed."""
    pfd_terms, const_terms, residuals = [], [], []
    for rec in records:
        if "reduction" in rec:
            pfd_terms.append(len(rec["reduction"]))
            const_terms.append(len(rec["clausen"]["terms"])
                               + len(rec["dirichlet"]["terms"]))
            checks = list(rec["checks"].values())
        else:
            pfd_terms.append(0)
            const_terms.append(len(rec.get("result", {"terms": []})["terms"]))
            checks = [rec["check"]] if rec.get("check") else []
        residuals.extend(residual_log10(c) for c in checks)
    n = max(len(records), 1)
    out = {"pfd.terms_out": sum(pfd_terms) / n,
           "constants.terms_out": sum(const_terms) / n}
    if residuals:
        out["numeric.rel_residual_log10_max"] = max(residuals)
    return out


# ------------------------------------------------------------ run record

def machine_record() -> dict:
    import mpmath
    git = {"sha": None, "dirty": None}
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        if top.returncode == 0 and os.path.realpath(top.stdout.strip()) == os.path.realpath(ROOT):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain",
                                     "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True,
                                    timeout=30)
            git = {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "git": git}


def write_record(args, record: dict):
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


# ------------------------------------------------------------ runs

def percentile(xs: list, q: int) -> float:
    if len(xs) == 1:  # a run cut to one request
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def scale_results(report: dict):
    """Give each result, and each of its output lines, the scale of the
    calibrations around it, and the result its scaled elapsed time."""
    cal = report["calibration_s"]

    def scale(i):
        return REFERENCE_S * 2 / (cal[i] + cal[i + 1])

    for res in report["results"]:
        res["scale"] = scale(res["calibration"])
        res["line_scales"] = [scale(i) for _, _, i in res["lines"]]
        previous = scaled = 0.0
        last = res["scale"]
        for (t, _, _), last in zip(res["lines"], res["line_scales"]):
            scaled += (t - previous) * last
            previous = t
        res["scaled_elapsed"] = scaled + (res["elapsed"] - previous) * last


def run_passes(workload: str, passes, trace: bool, goldens: dict,
               seconds: float | None = None, counts: list | None = None) -> dict:
    """Closed loop over the seeded passes, each pass in a fresh worker so
    that no request repeats within a process.  Runs until `seconds` of
    measured time are used (at least one request), or exactly
    `counts[i]` requests of pass i.
    `busy_s` is the time spent in requests, raw and scaled."""
    reports, evals = [], []
    used = 0.0
    for i, requests in enumerate(passes):
        if counts is not None:
            if i == len(counts):
                break
            job = {"requests": requests, "count": counts[i]}
        elif reports and used >= seconds:
            break
        else:
            job = {"requests": requests, "seconds": seconds - used}
        with Worker(workload, trace) as w:
            report = w.run(job)
        used += report["wall_s"]
        scale_results(report)
        reports.append(report)
        evals.append(evaluate(workload, requests, report, goldens))
    return {
        "counts": [len(r["results"]) for r in reports],
        "wall_s": used,
        "busy_s": sum(x["elapsed"] for r in reports for x in r["results"]),
        "scaled_busy_s": sum(x["scaled_elapsed"]
                             for r in reports for x in r["results"]),
        "calibration_s": [r["calibration_s"] for r in reports],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "latencies": [x for e in evals for x in e["latencies"]],
        "scaled": [x for e in evals for x in e["scaled"]],
        "records": [x for e in evals for x in e["records"]],
        "failures": [x for e in evals for x in e["failures"]],
        "attempted": sum(e["attempted"] for e in evals),
        "failed": sum(e["failed"] for e in evals),
        "trace": merge([r["trace"] for r in reports]) if trace else None,
    }


def verified_per_s(run: dict) -> float:
    return (run["attempted"] - run["failed"]) / run["scaled_busy_s"]


def setup_sample(workload: str) -> tuple[float, float]:
    """One fresh worker's set-up time, raw and scaled by the median of
    three calibrations the worker makes right after it."""
    with Worker(workload, trace=False) as w:
        cal = w.run(None)["calibration_s"]
    return w.setup_s, w.setup_s * REFERENCE_S / statistics.median(cal)


def run_untraced(args, goldens) -> tuple[dict, dict, dict]:
    """Set-up samples, then requests for the rest of `--seconds`."""
    start = time.perf_counter()
    setups = [setup_sample(args.workload) for _ in range(SETUP_SAMPLES)]
    run = run_passes(args.workload, request_passes(args.workload, args.seed),
                     False, goldens,
                     seconds=args.seconds - (time.perf_counter() - start))
    lat, scale = run["scaled"], run["scaled_busy_s"] / run["busy_s"]
    metrics = {
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "requests_per_s": verified_per_s(run),
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    extra = {"scale": scale,
             "setup_samples_s": setups, "wall_s": run["wall_s"],
             "busy_s": run["busy_s"], "calibration_s": run["calibration_s"],
             "requests_per_pass": run["counts"],
             "counters": record_counters(run["records"]),
             "latencies_ms": [x * 1e3 for x in run["latencies"]],
             "scaled_latencies_ms": [x * 1e3 for x in lat]}
    return run, metrics, extra


def run_traced(args, goldens) -> tuple[dict, dict, dict]:
    """Half the time untraced, then the same requests traced."""
    plain = run_passes(args.workload, request_passes(args.workload, args.seed),
                       False, goldens, seconds=args.seconds / 2)
    traced = run_passes(args.workload, request_passes(args.workload, args.seed),
                        True, goldens, counts=plain["counts"])
    n = traced["attempted"]
    scale = traced["scaled_busy_s"] / traced["busy_s"]
    metrics = layer_metrics(traced["trace"], n, traced["busy_s"], scale)
    metrics.update(record_counters(traced["records"]))
    metrics["trace.overhead_frac"] = (verified_per_s(traced) / verified_per_s(plain)
                                      - 1)
    metrics["trace.requests"] = n
    combined = {k: plain[k] + traced[k] for k in ("attempted", "failed", "failures")}
    extra = {"absent": traced["trace"]["absent"],
             "span_totals": traced["trace"]["spans"],
             "scale": scale,
             "busy_s": {"untraced": plain["busy_s"], "traced": traced["busy_s"]}}
    return combined, metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tornheim", "cli.py")):
        print(f"error: no tornheim sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "goldens.json")) as fh:
        goldens = json.load(fh)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    run = run_traced if args.trace else run_untraced
    ev, metrics, extra = run(args, goldens)
    error_rate = ev["failed"] / ev["attempted"]

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(), "attempted": ev["attempted"],
              "failed": ev["failed"], "error_rate": error_rate,
              "failures": ev["failures"][:50], "metrics": metrics, **extra}
    write_record(args, record)

    for reason in ev["failures"][:10]:
        print(f"FAILED {reason}")
    print(f"{'mean scale to reference speed':36s} {extra['scale']:14.6g}")
    out = {}
    for m in declared:
        if m["name"] not in metrics:
            print(f"{m['name']:36s} absent")
            continue
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:36s} {metrics[m['name']]:14.6g} {m['unit']}")
    print(f"{'error_rate':36s} {error_rate:14.6g} "
          f"({ev['failed']} of {ev['attempted']} requests failed)")
    print(json.dumps({"correct": ev["failed"] == 0, "attempted": ev["attempted"],
                      "failed": ev["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

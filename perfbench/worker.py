"""Benchmark worker: one fresh interpreter that drives
`tornheim.cli.main(argv)` in-process, one request at a time.

    python3 perfbench/worker.py '<config json>'

The config names the checkout root, the warm-up argv and whether to
trace.  The worker imports tornheim from <root>/src, runs the warm-up,
prints a ready line, then reads one job line from stdin: null to time
three calibration jobs and exit (a set-up sample), or {"requests": [...]}
with either "seconds" or "count".  It runs the
requests in order until `seconds` have passed or `count` are done, then
prints one JSON object with the raw per-request results.

Calibration jobs (see calibrate.py) run before the first request, after
the last, and after a request or an output line whenever
CALIBRATE_EVERY_S have passed since the last job.  The clock that times
requests and lines stands still while a job runs.  Each request and
each output line names the last job made before it began; the next job
in the list was made after it ended.  Traced workers calibrate only
between requests, so that no job runs inside a traced span.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from calibrate import calibration

CALIBRATE_EVERY_S = 0.25


class Calibrator:
    """Runs the calibration job when due and keeps a clock that excludes
    the jobs' time.  With every_s None it never runs the job."""

    def __init__(self, every_s: float | None = None, inline: bool = False):
        self.every_s = every_s
        self.inline = inline  # also calibrate between output lines
        self.times: list[float] = []
        self._paused = 0.0
        self._last = None

    @property
    def index(self) -> int:
        return len(self.times) - 1

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def run(self):
        start = time.perf_counter()
        self.times.append(calibration())
        self._last = time.perf_counter()
        self._paused += self._last - start

    def maybe(self):
        if self.every_s is not None and (
                self._last is None
                or time.perf_counter() - self._last >= self.every_s):
            self.run()


class LineClock(io.TextIOBase):
    """Stands in for stdout.  Stamps each completed line with the time
    and the index of the last calibration before the line's row began."""

    def __init__(self, cal: Calibrator):
        self.cal = cal
        self.lines: list[tuple[float, str, int]] = []
        self._partial = ""
        self._row_cal = cal.index

    def writable(self):
        return True

    def write(self, s):
        now = self.cal.clock()
        parts = (self._partial + s).split("\n")
        self._partial = parts.pop()
        self.lines.extend((now, line, self._row_cal) for line in parts)
        if parts and self.cal.inline:
            self.cal.maybe()
            self._row_cal = self.cal.index
        return len(s)


def run_request(main, argv: list[str], cal: Calibrator | None = None) -> dict:
    """One CLI call with stdout and stderr captured; times are seconds
    relative to the call's start, by the calibrator's clock."""
    cal = cal or Calibrator()
    out, err = LineClock(cal), io.StringIO()
    error = None
    index = cal.index
    start = cal.clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed request, not a failed run
        rc, error = None, repr(exc)
    end = cal.clock()
    return {"rc": rc, "error": error, "stderr": err.getvalue(),
            "elapsed": end - start, "calibration": index,
            "lines": [(t - start, line, i) for t, line, i in out.lines]}


def load_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import tornheim.cli
    where = os.path.realpath(tornheim.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"tornheim imported from {where}, not from {src}")
    return tornheim


def main():
    cfg = json.loads(sys.argv[1])
    tornheim = load_package(cfg["root"])
    tracer = None
    if cfg["trace"]:
        from layertrace import Tracer
        tracer = Tracer().install()
    run_request(tornheim.cli.main, cfg["warmup"])  # untimed and unchecked
    if tracer:
        tracer.reset()
    print(json.dumps({"ready": True}), flush=True)

    job = json.loads(sys.stdin.readline() or "null")
    if job is None:  # a set-up sample: calibrate right after set-up
        print(json.dumps({"calibration_s": [calibration() for _ in range(3)]}))
        return
    results = []
    calibration()  # untimed: warms up the job's own code paths
    cal = Calibrator(CALIBRATE_EVERY_S, inline=tracer is None)
    t_start = time.perf_counter()
    for rid, argv in enumerate(job["requests"]):
        if rid == job.get("count") or (rid and "seconds" in job and
                                       time.perf_counter() - t_start >= job["seconds"]):
            break
        cal.maybe()
        if tracer:
            tracer.begin(rid)
        results.append(run_request(tornheim.cli.main, argv, cal))
    cal.run()
    report = {
        "results": results,
        "wall_s": time.perf_counter() - t_start,
        "calibration_s": cal.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        report["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(report))
    sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Fresh worker process for one in-process workload (started by run.py).

    python perfbench/worker.py WORKLOAD --seed S --seconds T --trace 0|1 --mode M --out DIR

Modes: `setup` imports gpcuntz, runs and checks one untimed warm-up job
and exits;
`run` does the same, then runs jobs in a closed loop for T seconds;
`replay` runs the first --count cli-queries queries in process through
`gpcuntz.cli.main`.  A JSON line {"ready": ...} marks the end of set-up
and, except in `setup` mode, a JSON result line follows.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import calls  # noqa: E402  (imports gpcuntz and gpcuntz.cli)
from calibrate import KIND, reference_time, speed_factor  # noqa: E402
from oracle import Failure  # noqa: E402
from spans import NullRecorder, Recorder  # noqa: E402

IMPORTED = time.monotonic()
JOB_TIME_CAP_S = 60
MODULES = {"word-algebra": "word_algebra", "relations": "relations",
           "truncation": "truncation", "cli-queries": "cli_queries"}


class JobTimeout(Exception):
    pass


@contextlib.contextmanager
def time_cap(seconds):
    def on_alarm(signum, frame):
        raise JobTimeout(f"job exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Loop:
    """Runs jobs, times them without their checks, and counts failures."""

    def __init__(self, workload, kind):
        self.workload = workload
        self.kind = kind
        self.attempted = 0
        self.failures = []

    def attempt(self, inp, rec):
        """One job; returns (latency, speed factor), or None when it failed."""
        self.attempted += 1
        try:
            with time_cap(JOB_TIME_CAP_S):
                before = reference_time(self.kind)
                start = time.perf_counter()
                out = self.workload.job(rec, inp)
                latency = time.perf_counter() - start
                factor = speed_factor(self.kind, (before + reference_time(self.kind)) / 2)
            self.workload.check(rec, inp, out)
            return latency, factor
        except Failure as exc:
            rec.error(exc.layer)
            self.failures.append(str(exc))
        except Exception:  # a crashing job is a failed job; keep measuring
            self.failures.append(traceback.format_exc(limit=3))
        return None


def _p50(timed):
    return statistics.median(latency * factor for latency, factor in timed)


def run_jobs(loop, seed, seconds, trace, rec):
    """Closed loop with one client until `seconds` have passed.

    With tracing, job i runs twice on the same inputs, untraced and
    traced, in alternating order, so the difference of the two medians is
    the tracing overhead.
    """
    null = NullRecorder()
    plain, traced, factors = [], [], {}
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        inp = loop.workload.make(seed, index)
        order = (False, True) if index % 2 == 0 else (True, False)
        for with_trace in order if trace else (False,):
            rec.job = index
            timed = loop.attempt(inp, rec if with_trace else null)
            if timed is None:
                continue
            (traced if with_trace else plain).append(timed)
            if with_trace:
                factors[index] = timed[1]
        index += 1
    result = {"latencies": plain, "attempted": loop.attempted, "failed": len(loop.failures),
              "failures": loop.failures[:5]}
    if trace:
        overhead = _p50(traced) - _p50(plain) if traced and plain else None
        result["trace"] = summary(rec, index, overhead, factors)
    return result


def replay(seed, count, rec):
    """Re-run cli-queries queries in process, one span per query."""
    queries = importlib.import_module("cli_queries")
    failures, factors = [], {}
    for index in range(count):
        query = queries.make(seed, index)
        rec.job = index
        try:
            before = reference_time("alloc")
            code, text = calls.cli_main(rec, queries.argv(query))
            factors[index] = speed_factor("alloc", (before + reference_time("alloc")) / 2)
            queries.check(query, code, text)
        except Failure as exc:
            rec.error(exc.layer)
            failures.append(str(exc))
    return {"attempted": count, "failed": len(failures), "failures": failures[:5],
            "trace": summary(rec, count, None, factors)}


def summary(rec, jobs, overhead, factors):
    return {"jobs": jobs, "busy": rec.self_times(factors), "counts": rec.counts,
            "errors": rec.errors, "overhead": overhead}


def warm_up(workload, seed, ready):
    """Run one untimed job, announce the end of set-up, then check the job."""
    inp = workload.make(seed, -1)
    out = workload.job(NullRecorder(), inp)
    print(json.dumps(ready), flush=True)
    try:
        workload.check(NullRecorder(), inp, out)
    except Failure as exc:
        return str(exc)
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run", "replay"), default="run")
    parser.add_argument("--count", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    rec = Recorder() if args.trace else NullRecorder()
    ready = {"ready": True, "started": STARTED, "imported": IMPORTED,
             "numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.mode == "replay":
        print(json.dumps(ready), flush=True)
        result = replay(args.seed, args.count, rec)
    else:
        workload = importlib.import_module(MODULES[args.workload])
        failure = warm_up(workload, args.seed, ready)
        if failure:
            print(json.dumps({"warmup_failure": failure}), flush=True)
            return 1
        if args.mode == "setup":
            return 0
        result = run_jobs(Loop(workload, KIND[args.workload]), args.seed, args.seconds, args.trace, rec)
    if args.trace:
        rec.write(os.path.join(args.out, f"spans-{args.workload}-{args.mode}-{args.seed}.json"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

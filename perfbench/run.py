"""The gpcuntz benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from anywhere inside a checkout of the repository; the program is
imported from its `src/` directory.  Every workload is a closed loop with
one client.  `cli-queries` spawns one `python -m gpcuntz.cli` process per
query; the other workloads run their jobs in one fresh worker process
(`worker.py`).  Inputs come from the seed alone.

With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
it runs every job twice, untraced and traced, and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is a
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code
is 1 when any job failed or an output check did not hold, and 2 when the
program cannot be found or started.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cli_queries
from calibrate import KIND, REFERENCE_S, reference_time, speed_factor
from oracle import Failure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("cli-queries", "word-algebra", "relations", "truncation")
SETUP_SPAWNS = 3
THREADS = 1
MEMORY_CAP = 2 << 30
QUERY_TIME_CAP_S = 60
RUN_TIME_CAP_S = 170
SANDBOX = "no machine-wide tracing; memory capped only per process (ulimit -v)"
IMPORT_PROBE = (
    "import time; t = time.monotonic()\n"
    "import json, gpcuntz.cli, numpy, scipy\n"
    "print(json.dumps({'ready': True, 'started': t, "
    "'numpy': numpy.__version__, 'scipy': scipy.__version__}), flush=True)\n"
)


class StartError(RuntimeError):
    """The program could not be imported or a worker did not get ready."""


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.deadline = time.monotonic() + RUN_TIME_CAP_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)
        self.versions = {}
        self.setups = []

    # -- processes ------------------------------------------------------
    def spawn(self, argv, stdout, stderr, importtime=False):
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), *argv]
        return subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr,
                                preexec_fn=_cap_memory)

    @contextlib.contextmanager
    def kill_after(self, proc, seconds):
        """Kill `proc` if it outlives `seconds` or the run's own time cap."""
        reaped = []

        def on_alarm(signum, frame):
            if not reaped:
                os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(0.1, min(seconds, self.deadline - time.monotonic())))
        try:
            yield reaped
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def reap(proc, reaped):
        """Wait for `proc`; returns its peak RSS in MB."""
        _pid, status, usage = os.wait4(proc.pid, 0)
        reaped.append(True)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024

    def start(self, argv, tag):
        """Spawn a process that prints a JSON ready line, then maybe a result line.

        Records the set-up time; returns (result or None, peak RSS in MB).
        """
        err_path = OUT / f"stderr-{tag}.txt"
        factor = speed_factor("spawn", reference_time("spawn", self.env))
        with open(err_path, "wb") as err:
            started = time.monotonic()
            proc = self.spawn(argv, subprocess.PIPE, err, importtime=self.trace)
        with self.kill_after(proc, RUN_TIME_CAP_S) as reaped:
            ready_line = proc.stdout.readline()
            ready_at = time.monotonic()
            rest = proc.stdout.read()
            proc.stdout.close()
            rss = self.reap(proc, reaped)
        stderr = err_path.read_text(errors="replace")
        try:
            ready = json.loads(ready_line)
        except ValueError:
            raise StartError(f"{' '.join(argv[:2])} did not start:\n{stderr[-2000:]}") from None
        lines = rest.decode().splitlines()
        result = json.loads(lines[-1]) if lines else None
        if result and "warmup_failure" in result:
            raise StartError(f"warm-up job failed: {result['warmup_failure']}")
        self.versions = {"numpy": ready["numpy"], "scipy": ready["scipy"]}
        setup = {"raw_setup_s": ready_at - started, "setup_s": ready_at - started,
                 "interpreter_s": ready["started"] - started}
        if self.trace:
            setup.update(import_split(stderr))
        self.setups.append({k: v if k == "raw_setup_s" else v * factor for k, v in setup.items()})
        return result, rss

    def worker(self, mode, extra=()):
        argv = [str(HERE / "worker.py"), self.workload, "--seed", str(self.seed),
                "--seconds", str(self.seconds), "--trace", str(int(self.trace)),
                "--mode", mode, "--out", str(OUT), *extra]
        result, rss = self.start(argv, f"{self.workload}-{mode}")
        if mode != "setup" and result is None:
            raise StartError(f"worker ({mode}) ended without a result")
        return result, rss

    # -- workloads ------------------------------------------------------
    def in_process(self):
        for _ in range(SETUP_SPAWNS - 1):
            self.worker("setup")
        result, rss = self.worker("run")
        result["peak_rss_mb"] = rss
        return result

    def cli(self):
        for _ in range(SETUP_SPAWNS):
            self.start(["-c", IMPORT_PROBE], "cli-probe")
        plain, traced, failures, peak = [], [], [], 0.0
        attempted = index = 0
        stop = time.monotonic() + (0.7 if self.trace else 1.0) * self.seconds
        with open(OUT / "query-stdout.txt", "w+b") as out, open(OUT / "query-stderr.txt", "w+b") as err:
            while time.monotonic() < stop:
                query = cli_queries.make(self.seed, index)
                order = (False, True) if index % 2 == 0 else (True, False)
                for with_trace in order if self.trace else (False,):
                    attempted += 1
                    factor = speed_factor("spawn", reference_time("spawn", self.env))
                    code, text, latency, rss = self.query(query, with_trace, out, err)
                    peak = max(peak, rss)
                    try:
                        cli_queries.check(query, code, text)
                    except (Failure, ValueError, KeyError, TypeError) as exc:
                        failures.append(f"{query['argv']}: {exc}")
                        continue
                    (traced if with_trace else plain).append((latency, factor))
                index += 1
        result = {"latencies": plain, "attempted": attempted, "failed": len(failures),
                  "failures": failures[:5], "peak_rss_mb": peak}
        if self.trace:
            replayed, _ = self.worker("replay", ["--count", str(index)])
            result["trace"] = replayed["trace"]
            result["trace"]["errors"]["cli"] = result["trace"]["errors"].get("cli", 0) + len(failures)
            result["trace"]["overhead"] = (_p50(traced) - _p50(plain) if traced and plain else None)
            result["attempted"] += replayed["attempted"]
            result["failed"] += replayed["failed"]
            result["failures"] += replayed["failures"]
        return result

    def query(self, query, importtime, out, err):
        """One CLI query, spawn to exit; returns (exit code, stdout, latency, peak RSS MB)."""
        for fh in (out, err):
            fh.seek(0)
            fh.truncate()
        start = time.perf_counter()
        proc = self.spawn(["-m", "gpcuntz.cli", *cli_queries.argv(query)], out, err, importtime)
        with self.kill_after(proc, QUERY_TIME_CAP_S) as reaped:
            rss = self.reap(proc, reaped)
        latency = time.perf_counter() - start
        out.seek(0)
        return proc.returncode, out.read().decode(), latency, rss


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def import_split(stderr):
    """Self time of numpy, scipy and gpcuntz modules from `-X importtime` output."""
    split = {"import_numpy_s": 0.0, "import_scipy_s": 0.0, "import_gpcuntz_s": 0.0}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        key = f"import_{fields[2].strip().split('.')[0]}_s"
        if key in split:
            split[key] += int(fields[0]) / 1e6
    return split


# ----------------------------------------------------------------------
# metrics

def tail(latencies):
    """(value, percentile, jobs beyond): the highest percentile with >= 10 jobs beyond it.

    A run of fewer than 20 jobs has no such percentile above the median;
    it then reports the highest percentile with half of the jobs beyond it.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n // 2)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def _p50(timed):
    return statistics.median(latency * factor for latency, factor in timed)


def end_to_end(run, result):
    """{name: (value, note)}; times are at reference speed (see calibrate.py)."""
    timed = result["latencies"] or [(0.0, 1.0)]
    raw = [latency for latency, _ in timed]
    lat = [latency * f for latency, f in timed]
    value, pct, beyond = tail(lat)
    completed = len(result["latencies"])
    raw_setup = statistics.median(s["raw_setup_s"] for s in run.setups)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in run.setups),
                    f"median of {len(run.setups)} fresh processes; raw {raw_setup:.4g} s"),
        "job_p50_s": (statistics.median(lat),
                      f"median of {completed} jobs; raw {statistics.median(raw):.4g} s"),
        "job_tail_s": (value, f"p{pct:.1f}: {beyond} of {len(lat)} jobs beyond it"),
        "jobs_per_s": (completed / sum(lat) if sum(lat) else 0.0, "completed jobs / timed wall time"),
        "peak_rss_mb": (result["peak_rss_mb"], "cli-queries: max over query processes"
                        if run.workload == "cli-queries" else "ru_maxrss of the worker"),
        "fail_ratio": (result["failed"] / result["attempted"],
                       f"{result['failed']} of {result['attempted']} jobs failed"),
    }


def per_layer(run, result, names):
    """{name: value}; times are at reference speed (see calibrate.py)."""
    trace = result["trace"]
    busy, counts, errors, jobs = trace["busy"], trace["counts"], trace["errors"], trace["jobs"]
    setup = {key: statistics.median(s[key] for s in run.setups)
             for key in ("interpreter_s", "import_numpy_s", "import_scipy_s", "import_gpcuntz_s")}

    def per_job(x):
        return x / jobs if jobs else 0.0

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    values = {}
    for name in names:
        if name.startswith("cli.") and name[4:] in setup:
            values[name] = setup[name[4:]]
        elif name == "trace.overhead_s":
            values[name] = trace["overhead"] or 0.0
        elif name == "algebra.multiply.yield":
            values[name] = ratio("algebra.multiply.terms_out", "algebra.multiply.pairs")
        elif name == "algebra.expand_identity.survivor_ratio":
            values[name] = ratio("algebra.expand_identity.terms_kept",
                                 "algebra.expand_identity.terms_generated")
        elif name.endswith(".errors"):
            values[name] = errors.get(name.removesuffix(".errors"), 0)
        elif name.endswith(".busy_s"):
            values[name] = per_job(busy.get(name.removesuffix(".busy_s"), 0.0))
        else:
            values[name] = per_job(counts.get(name, 0))
    return values


def context_lines(run, factor):
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30
    return [
        f"# perfbench workload={run.workload} seed={run.seed} seconds={run.seconds} "
        f"trace={int(run.trace)}",
        f"# machine: nproc={os.cpu_count()} ram={ram:.1f}GiB python={platform.python_version()} "
        f"numpy={run.versions.get('numpy')} scipy={run.versions.get('scipy')}",
        f"# settings: blas/openmp threads={THREADS} ulimit -v={MEMORY_CAP >> 20}MiB per process "
        f"commit={commit()} seed={run.seed}",
        f"# sandbox: {SANDBOX}",
        f"# times are at reference speed (perfbench/calibrate.py): each job's time x "
        f"{REFERENCE_S[KIND[run.workload]]:g} s / its {KIND[run.workload]} reference time; "
        f"median factor {factor:.4g}; set-up times use a spawn reference taken before each spawn",
    ]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown(not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gpcuntz" / "__init__.py").is_file():
        print(f"perfbench: no gpcuntz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    run = Run(args)
    try:
        result = run.cli() if run.workload == "cli-queries" else run.in_process()
    except StartError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    factor = statistics.median(f for _, f in result["latencies"]) if result["latencies"] else 1.0
    for line in context_lines(run, factor):
        print(line)
    if run.trace:
        wanted = spec["per_layer"]
        values = per_layer(run, result, [m["name"] for m in wanted])
        for m in wanted:
            print(f"{m['name']:40s} {values[m['name']]:.6g} {m['unit']}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    else:
        values = end_to_end(run, result)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.setdefault("fail_ratio", "1")
        for name, (value, note) in values.items():
            print(f"{name:12s} {value:.6g} {units[name]:5s} {note}")
        metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for failure in result["failures"]:
        print(f"perfbench: failed: {failure}", file=sys.stderr)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Machine-speed calibration of every job.

The machine the benchmark was built on shares its cores with other
tenants.  Its speed drifts by up to 2x over seconds to minutes, and
process CPU time drifts alike, so raw times from two sets of runs
disagree by more than any useful regression bound.  Every job is
therefore bracketed by a reference measurement of the same kind of work,
done without the program, and each time the benchmark reports is a time
at reference speed:

    reported = measured * REFERENCE_S[kind] / reference time around the job

Each workload uses the reference that tracked its own jobs best across
runs (`KIND`): a tuple-prefix loop for the small-dict word arithmetic, a
loop that builds a dict of tuple keys and numpy temporaries for the
large expansions and the representation exports, and the start of a bare
interpreter that imports numpy for the CLI queries.  None of them
touches gpcuntz, so a slower program still reads slower.  The raw times
are printed beside the reported ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = {"tuple": 0.0003, "alloc": 0.002, "spawn": 0.16}
KIND = {"word-algebra": "tuple", "relations": "alloc", "truncation": "alloc",
        "cli-queries": "spawn"}
_WORDS = [tuple((i * 7 + k) % 3 + 1 for k in range(i % 6)) for i in range(40)]
_PREFIX = {w: i for i, w in enumerate(_WORDS)}
_ARRAY = np.arange(20000, dtype=float)


def _tuple_work():
    hits = 0
    for j in _WORDS:
        for k in _WORDS:
            if j[: len(k)] == k:
                hits += _PREFIX[k]
    return hits


def _alloc_work():
    out = {}
    for j in _WORDS:
        for k in _WORDS:
            if len(k) <= len(j):
                if j[: len(k)] != k:
                    continue
                key = (j, k + j[len(k):])
            else:
                key = (j + k, ())
            out[key] = out.get(key, 0.0) + 1.5j
    total = 0.0
    for _ in range(20):
        total += float(np.sum(np.sqrt(_ARRAY + total)))
    return len(out), total


def _median_time(work, repeats=3):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_time(kind, env=None):
    """One reference measurement of `kind`, in seconds."""
    if kind == "spawn":
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
        return time.perf_counter() - start
    return _median_time(_tuple_work if kind == "tuple" else _alloc_work)


def speed_factor(kind, reference):
    """Factor converting a time measured next to `reference` seconds to reference speed."""
    return REFERENCE_S[kind] / reference

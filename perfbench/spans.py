"""In-memory span recorder used by the traced run.

A span is [name, start, end, parent index, job id].  Spans are opened only
by the benchmark around its own calls into a gpcuntz layer; nothing inside
the program is instrumented.  The spans stay in memory and are written out
once, when the worker exits.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter


class NullRecorder:
    """Recorder used when tracing is off: every call is a no-op."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def add(self, key, value):
        pass

    def error(self, layer):
        pass


class Recorder:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.errors = Counter()
        self.job = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.job]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException:
            self.error(name.split(".")[0])
            raise
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def add(self, key, value):
        self.counts[key] += value

    def error(self, layer):
        self.errors[layer] += 1

    def self_times(self, factors):
        """Total self time per span name, at reference speed.

        A span's self time is its duration minus the part of it that its
        child spans cover; it is scaled by the speed factor of its job.
        """
        children = {}
        for name, start, end, parent, _job in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        totals = Counter()
        for idx, (name, start, end, _parent, job) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(idx, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            totals[name] += ((end - start) - covered) * factors.get(job, 1.0)
        return totals

    def write(self, path):
        keys = ("name", "start", "end", "parent", "job")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

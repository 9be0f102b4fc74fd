"""In-memory spans around the benchmark's calls into coulomblab.

A span records (id, trace, name, parent, start, end, attrs); spans opened
inside another span name it as parent, and every span of one round shares the
round's trace id.  Nothing is written until ``dump`` at the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._trace = 0

    def new_trace(self):
        self._trace += 1

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "trace": self._trace, "name": name,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child)]

    def dump(self, path, **header):
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [dict(s, start=s["start"] - t0, end=s["end"] - t0, self=st)
                for s, st in zip(self.spans, self.self_times())]
        with open(path, "w") as fh:
            json.dump(dict(header, spans=rows), fh)

"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer's public entry point: its name, start,
end and the index of the span that was open when it began (its parent).
Spans are kept in flat lists while the run executes and written out once
at the end.  A layer's self time is a span's duration minus the time its
direct child spans cover; calls are strictly nested (one thread), so the
children of a span never overlap each other.
"""

from __future__ import annotations

import json
import os

from common import clock


class SpanRecorder:
    """Records spans for functions it wraps; restores them on close."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []
        self._patched = []

    def wrap(self, name, fn, on_return=None):
        """``fn`` wrapped in a span called ``name``.

        ``on_return(args, result)``, if given, runs after the span has
        ended, so its cost is not part of the span.
        """
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._open)

        def spanned(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def patch(self, owner, attr, name, on_return=None):
        """Replace ``owner.attr`` (a module global or class attribute)
        with its spanned version until :meth:`close`."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return))

    def count_calls(self, owner, attr, counter, key):
        """Count calls of ``owner.attr`` into ``counter[key]`` (no span)."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))

        def counted(*args, **kwargs):
            counter[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def count_yields(self, owner, attr, counter, key):
        """Count items yielded by generator ``owner.attr`` (no span)."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))

        def counted(*args, **kwargs):
            for item in original(*args, **kwargs):
                counter[key] += 1
                yield item

        setattr(owner, attr, counted)

    def close(self):
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def totals(self):
        """name -> {"calls", "total_s", "self_s"}."""
        n = len(self.names)
        child_s = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_s[parent] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            duration = self.ends[i] - self.starts[i]
            agg = out.setdefault(self.names[i],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += duration
            agg["self_s"] += duration - child_s[i]
        return out

    def durations(self, name):
        """Durations of every span called ``name``, in start order."""
        return [self.ends[i] - self.starts[i]
                for i, span_name in enumerate(self.names) if span_name == name]

    def write(self, path, header):
        """Write a header line and one JSON line per span to ``path``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                }) + "\n")

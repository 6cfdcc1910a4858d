"""Host-speed probe: converts measured intervals into reference seconds.

The benchmark runs on a few cores of a shared host, whose speed drifts
by 30–50% over minutes as other tenants load it: the same grid pass
took 6.0 s and 10.7 s a minute apart in one process, and every part of
a run, set-up included, slows together.  No statistic over one run's
samples removes a slow stretch that lasts the whole run.

The probe measures that drift while the workload runs.  A ``SIGALRM``
timer interrupts the workload every ``PERIOD_S`` seconds of wall time,
and the handler times one fixed unit of pure-Python work (``_unit``),
the same kind of interpreter work the workload does.  A probe that took
twice ``REF_S`` ran on a host half as fast as the reference.  An
interval of the workload then converts to *reference seconds*, the time
it would have taken on a host where the unit takes ``REF_S``:

    (interval length - probe time inside it) * REF_S / mean probe time

where the mean is over the probes inside the interval, or over the
``NEAREST`` probes around it when fewer fall inside.  A change in the
program moves the interval but not the probe, so it shows in full.

A handler that runs while the tracer records the DBMS would be recorded
as part of the trace, so the replay workloads pause the probe for the
duration of ``Tracer.run``; the probes around it stand in.

The unit works on a 4096-entry list of ints that fits a core's own
caches: a probe whose table the workload evicts would measure the
workload's memory traffic, not the host.  It allocates no object the
garbage collector tracks, so it never starts a collection that the
workload's heap would make slow.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left

from common import clock

#: seconds between probes
PERIOD_S = 0.02
#: the unit's duration on the reference host (a quiet core of the
#: 2-core host the bounds were set on)
REF_S = 0.0002
#: probes a short interval borrows from around it
NEAREST = 16
_STEPS = 1200


def _unit(table):
    x = 12345
    for _ in range(_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i = x & 4095
        table[i] = table[i] ^ x
    return x


class Probe:
    """Samples the host's speed every ``PERIOD_S`` seconds while started."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._table = list(range(4096))

    def _on_alarm(self, _signum, _frame):
        started = clock()
        _unit(self._table)
        self.durations.append(clock() - started)
        self.starts.append(started)

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.resume()

    def stop(self):
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def paused_during(self, fn):
        """``fn`` wrapped to run with the probe paused."""

        def paused(*args, **kwargs):
            self.pause()
            try:
                return fn(*args, **kwargs)
            finally:
                self.resume()

        return paused

    def reference_s(self, begin, end):
        """Reference seconds of the wall-clock interval [begin, end)."""
        starts, durations = self.starts, self.durations
        first = bisect_left(starts, begin)
        last = bisect_left(starts, end)
        own = (end - begin) - sum(durations[first:last])
        if last - first < NEAREST:
            middle = bisect_left(starts, (begin + end) / 2)
            first = max(0, min(first, middle - NEAREST // 2))
            last = min(len(starts), max(last, first + NEAREST))
        if last <= first:
            raise RuntimeError("the host-speed probe took no samples")
        mean = sum(durations[first:last]) / (last - first)
        return own * REF_S / mean

    def stats(self):
        """Summary for the run's context line."""
        n = len(self.durations)
        if not n:
            return {"samples": 0}
        ordered = sorted(self.durations)
        return {"samples": n, "period_s": PERIOD_S, "ref_s": REF_S,
                "min_s": ordered[0], "median_s": ordered[n // 2],
                "mean_s": sum(ordered) / n}

"""The replay workloads: ``fig4-replay`` and ``nl-replay``.

Both build the artifacts ``python -m repro.harness.generate`` builds for
its ``wisc-large-2`` row (database, traced run, runtime-library
expansion, profile, O5/OM layouts, compiled traces) and then replay a
fixed grid of cells serially through ``ExperimentRunner.run_grid``:

* ``fig4-replay`` — the six Figure 4 cells.  Four of them run the
  general kernel with call graph prefetching and the flat CGHC.
* ``nl-replay`` — the same trace through the no-prefetcher kernel and
  the next-N-line span walks (NL_2, NL_4, run-ahead NL_4): no CGHC.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
from statistics import median

from common import clock, peak_rss_mb, percentile

from repro.harness import ExperimentRunner, PipelineConfig, RunSpec
from repro.harness.experiments import FIG4_CONFIGS
from repro.instrument import tracer as tracer_mod
from repro.uarch import fast_engine

SUITE = "wisc-large-2"
#: DEFAULT_SCALES["wisc-large-2"] when the benchmark was defined; pinned
#: here so a later change of the default cannot change the benchmark
SCALE = 0.05


#: (cell name, layout, prefetcher spec); names write "+" as "-"
FIG4_CELLS = [(name.replace("+", "-"), layout, spec)
              for name, layout, spec in FIG4_CONFIGS]
NL_CELLS = [
    ("O5", "O5", None),
    ("O5-OM", "OM", None),
    ("O5-OM-NL_2", "OM", ("nl", 2)),
    ("O5-OM-NL_4", "OM", ("nl", 4)),
    ("O5-OM-RA-NL_4", "OM", ("ra-nl", 4, 4)),
]
CELLS = {"fig4-replay": FIG4_CELLS, "nl-replay": NL_CELLS}
#: nominal seconds of one grid pass on a 2-core host: a run makes
#: max(MIN_PASSES, round(seconds / this)) passes, so the work depends
#: only on --seconds
NOMINAL_PASS_S = {"fig4-replay": 7.5, "nl-replay": 6.5}
MIN_PASSES = 3
#: set-ups per run; setup_s takes their median
SETUPS = 5


class _Marks:
    """Progress sink: a timestamp per grid-start and per finished cell."""

    def __init__(self):
        self.times = []

    def __call__(self, record):
        if record.get("event") in ("grid-start", "run"):
            self.times.append(clock())


def set_up(seed, marks):
    """Build artifacts and compile both layouts; returns (runner, artifacts)."""
    fast_engine.clear_compile_cache()
    runner = ExperimentRunner(pipeline=PipelineConfig(seed=seed),
                              scales={SUITE: SCALE}, progress=marks)
    artifacts = runner.artifacts(SUITE)
    for layout in ("O5", "OM"):
        # the compile cache the replay kernels read
        fast_engine._compiled(artifacts.trace, artifacts.layout(layout))
    return runner, artifacts


def replay_grid(runner, cells, marks, workload):
    """One serial pass over the grid.

    Returns (grid, grid_s, spans): ``spans`` holds each cell's
    (start, end) on the clock.
    """
    specs = [RunSpec(SUITE, layout, spec) for _n, layout, spec in cells]
    runner.clear_results()
    marks.times.clear()
    started = clock()
    grid = runner.run_grid(specs, grid=workload)
    grid_s = clock() - started
    times = marks.times
    return grid, grid_s, list(zip(times, times[1:]))


def check_grid(grid, cells):
    """Per-cell problems (name -> list of str) for one grid pass.

    Checks every accounting identity of each cell and the cross-cell
    identities of the grid.
    """
    problems = {name: [] for name, _l, _p in cells}
    calls = {}
    instructions = {}
    for name, layout, spec in cells:
        stats = grid.get(RunSpec(SUITE, layout, spec))
        if stats is None:
            problems[name].append("no stats")
            continue
        for origin, p in sorted(stats.prefetch.items()):
            if p.issued != p.pref_hits + p.delayed_hits + p.useless:
                problems[name].append(f"{origin}: issued != outcomes")
        if stats.demand_misses != stats.l2_hits + stats.memory_fetches:
            problems[name].append("demand_misses != l2_hits + memory_fetches")
        calls[name] = stats.calls
        instructions.setdefault(layout, {})[name] = stats.instructions
    if len(set(calls.values())) > 1:
        for name in calls:
            problems[name].append(f"calls differ across cells: {calls}")
    for per_cell in instructions.values():
        if len(set(per_cell.values())) > 1:
            for name in per_cell:
                problems[name].append("instructions differ within a layout")
    for failure in grid.failures:
        for name, layout, spec in cells:
            if failure.key == RunSpec(SUITE, layout, spec):
                problems[name].append(failure.describe())
    return problems


def _digest(stats):
    blob = json.dumps(stats.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def measure(workload, seed, seconds, import_s, probe):
    """Untraced run: ``SETUPS`` set-ups, then passes over the grid.

    Every set-up and cell replay is converted to reference seconds by
    ``probe`` (see probe.py); set-up time is the median set-up and each
    cell's replay time its median over the passes.  Passes replay the
    cells in turn, so each cell's passes spread over the whole run.

    Returns (values, attempted, failed, work).
    """
    cells = CELLS[workload]
    names = [name for name, _l, _p in cells]
    marks = _Marks()
    setup_spans, events = [], []
    runner = artifacts = None
    tracer_run = tracer_mod.Tracer.__dict__["run"]
    tracer_mod.Tracer.run = probe.paused_during(tracer_run)
    try:
        for _setup in range(SETUPS):
            # drop the previous set-up's artifacts before building
            # anew, so that peak memory is that of one set-up
            runner = artifacts = None
            gc.collect()
            started = clock()
            runner, artifacts = set_up(seed, marks)
            setup_spans.append((started, clock()))
            events.append(len(artifacts.trace))
    finally:
        tracer_mod.Tracer.run = tracer_run

    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    cell_spans = {name: [] for name in names}
    digests, problems = {}, {}
    for index in range(passes):
        grid, _grid_s, spans = replay_grid(runner, cells, marks, workload)
        found = check_grid(grid, cells)
        for (name, layout, spec), span in zip(cells, spans):
            cell_spans[name].append(span)
            stats = grid.get(RunSpec(SUITE, layout, spec))
            if stats is not None and digests.setdefault(
                    name, _digest(stats)) != _digest(stats):
                found[name].append("SimStats differ from the first pass")
            if len(set(events)) > 1:
                found[name].append(f"event counts differ across "
                                   f"set-ups: {events}")
            if found[name]:
                problems[f"{name}#{index}"] = found[name]
    attempted = passes * len(cells)
    failed = len(problems)

    setup_times = [probe.reference_s(*span) for span in setup_spans]
    cell_times = {name: [probe.reference_s(*span) for span in spans]
                  for name, spans in cell_spans.items()}
    cell_s = {name: median(times) for name, times in cell_times.items()}
    replay_s = sum(cell_s.values())
    setup_s = import_s + median(setup_times)
    n_events = events[-1]
    values = {
        "setup_s": setup_s,
        "wall_s": setup_s + replay_s,
        "events_per_s": len(cells) * n_events / replay_s,
        "ops_per_s": len(cells) / replay_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
    }
    # a replay's operation is one cell: every latency metric is an
    # order statistic of the cells' replay times (see README)
    cell_ms = [1000.0 * t for t in cell_s.values()]
    for key, q in (("point_p50_ms", 50), ("point_p99_ms", 99),
                   ("write_p50_ms", 50), ("write_p95_ms", 95),
                   ("scan_p50_ms", 50), ("scan_p90_ms", 90)):
        values[key] = percentile(cell_ms, q)
    work = {
        "suite": SUITE, "scale": SCALE, "events_per_cell": n_events,
        "cells": names, "setups": SETUPS, "passes": passes,
        "cells_replayed": attempted, "cells_failed": failed,
        "problems": problems,
        "import_s": import_s,
        "setup_times_s": setup_times,
        "cell_times_s": cell_times,
        "wall_clock": {
            "setup_times_s": [b - a for a, b in setup_spans],
            "cell_times_s": {name: [b - a for a, b in spans]
                             for name, spans in cell_spans.items()},
        },
    }
    return values, attempted, failed, work


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _compiled_bytes(compiled):
    """Bytes held by one compiled trace: list storage plus every element
    object that is not one of CPython's shared small ints."""
    total = sys.getsizeof(compiled)
    for slot in type(compiled).__slots__:
        value = getattr(compiled, slot, None)
        if not isinstance(value, list):
            continue
        total += sys.getsizeof(value)
        total += sum(sys.getsizeof(x) for x in value
                     if not (type(x) is int and -5 <= x <= 256))
    return total


def _install_pipeline_spans(recorder, captured):
    from repro.harness import runner as runner_mod

    def on_expand(args, result):
        captured["raw_events"] = len(args[0])
        captured["events"] = len(result)

    recorder.patch(runner_mod, "build_suite", "build_suite")
    recorder.patch(tracer_mod.Tracer, "run", "Tracer.run")
    recorder.patch(runner_mod, "expand_trace", "expand_trace", on_expand)
    recorder.patch(runner_mod, "profile_of", "profile_of")
    recorder.patch(runner_mod, "om_layout", "om_layout")
    recorder.patch(fast_engine, "compile_trace", "compile_trace",
                   lambda args, result: captured["compiled"].append(result))
    recorder.patch(runner_mod, "simulate", "simulate",
                   lambda args, result: captured["stats"].append(result))


def _untraced_pass(seed, cells, marks, workload):
    """Seconds of one untraced set-up and grid pass."""
    gc.collect()
    started = clock()
    runner, _artifacts = set_up(seed, marks)
    replay_grid(runner, cells, marks, workload)
    return clock() - started


def measure_traced(workload, seed, recorder):
    """One traced set-up + grid pass between two untraced ones.

    ``trace.overhead`` compares the traced pass with the mean of the
    untraced passes around it, which cancels a steady drift in the
    host's speed.  Returns (per-layer values, attempted, failed, work).
    """
    cells = CELLS[workload]
    marks = _Marks()
    before_s = _untraced_pass(seed, cells, marks, workload)

    gc.collect()
    captured = {"compiled": [], "stats": []}
    _install_pipeline_spans(recorder, captured)
    try:
        started = clock()
        runner, _artifacts = set_up(seed, marks)
        grid, grid_s, _spans = replay_grid(runner, cells, marks, workload)
        traced_s = clock() - started
    finally:
        recorder.close()
    compiled_mb = (sum(map(_compiled_bytes, captured.pop("compiled")))
                   / (1024.0 * 1024.0))
    runner = _artifacts = None

    after_s = _untraced_pass(seed, cells, marks, workload)
    untraced_s = (before_s + after_s) / 2
    totals = recorder.totals()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    replay_s = recorder.durations("simulate")
    problems = check_grid(grid, cells)
    failed = sum(1 for found in problems.values() if found)
    values = {
        "instrument.trace_s": total("Tracer.run"),
        "instrument.expand_s": total("expand_trace"),
        "instrument.raw_events": captured["raw_events"],
        "instrument.events": captured["events"],
        "layout.profile_s": total("profile_of"),
        "layout.om_s": total("om_layout"),
        "uarch.compile_s": total("compile_trace"),
        "uarch.compiled_mb": compiled_mb,
        "uarch.replay_s.noprefetch": 0.0,
        "uarch.replay_s.general": 0.0,
        "harness.grid_s": grid_s - sum(replay_s),
        "trace.overhead": traced_s / untraced_s - 1.0,
    }
    for (name, _layout, spec), seconds, stats in zip(
            cells, replay_s, captured["stats"]):
        values[f"uarch.replay_s.{name}"] = seconds
        path = "noprefetch" if spec is None else "general"
        values[f"uarch.replay_s.{path}"] += seconds
        values[f"sim.cycles.{name}"] = stats.cycles
        values[f"sim.demand_misses.{name}"] = stats.demand_misses
        values[f"sim.pf_issued.{name}"] = stats.total_prefetches()
        values[f"sim.pf_useful.{name}"] = stats.total_useful_prefetches()
        values[f"core.cghc_hits.{name}"] = (stats.cghc_l1_hits
                                           + stats.cghc_l2_hits)
        values[f"core.cghc_misses.{name}"] = stats.cghc_misses
    work = {
        "suite": SUITE, "scale": SCALE,
        "events_per_cell": captured["events"],
        "cells": [name for name, _l, _p in cells], "grid_passes": 1,
        "untraced_s": untraced_s, "traced_s": traced_s,
        "problems": {k: v for k, v in problems.items() if v},
    }
    return values, len(cells), failed, work

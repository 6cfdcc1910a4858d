"""The ``sql-mix`` workload: two closed-loop connections on one server.

The DBMS runs untraced.  A run generates one set of Wisconsin tables
(``tenk1``, ``tenk2``, ``onek``; together larger than the default
512-page buffer pool) and one statement list per connection from the
seed, then plays the same lists in several rounds.  Each round loads a
fresh database, starts a deterministic ``SqlServer`` (``workers=0``)
with two tenants, and drives both connections from this one thread until
each has sent its list:

* connection 1 (tenant ``oltp``) — point SELECTs on ``tenk1.unique1``
  and autocommit point UPDATEs of ``tenk1.twenty`` by ``unique2`` (one
  log force per commit);
* connection 2 (tenant ``olap``) — 1% range scans of ``tenk2`` on the
  clustered ``unique2`` and equi-joins of a 1% ``tenk2`` range with
  ``onek`` on the non-indexed ``unique3`` (planned as a Grace hash join,
  so it spills through temp files).

The server runs the same quanta in the same order in every round, so
iteration ``i`` of the drive loop does the same work in each round; the
timings come from the fastest round of each iteration (see
:func:`measure`).

Only connection 1 touches ``tenk1``, and nobody writes the tables
connection 2 reads, so every result is checked against a ``sqlite3``
oracle loaded with the same generated rows that replays connection 1 in
order; a final scan of ``tenk1`` after each round is checked against the
acknowledged UPDATEs.
"""

from __future__ import annotations

import gc
import random
import sqlite3
from statistics import median

from common import clock, peak_rss_mb, percentile, supported

from repro.db import Database
from repro.db.optimizer.planner import Planner
from repro.db.server import SqlServer
from repro.db.storage.buffer_pool import BufferPool
from repro.db.storage.storage_manager import StorageManager
from repro.db.storage.wal import WriteAheadLog
from repro.errors import ReproError, ServerBusy
from repro.workloads.wisconsin import WISCONSIN_COLUMNS, generate_rows

N_TUPLES = 10_000
SIZES = {"tenk1": N_TUPLES, "tenk2": N_TUPLES, "onek": N_TUPLES // 10}
RANGE = N_TUPLES // 100
#: statements per round, by class.  The classes come in a seeded random
#: order on each connection, so which statements wait behind another's
#: quanta varies smoothly with the seed instead of following the phase
#: of two fixed patterns.  1,000 points support p99 and 200 writes p95,
#: with 10 samples beyond each.
CONN1_MIX = {"point": 1000, "write": 200}
#: 110 statements support p90.  A join runs one heavy quantum (the
#: build and spill), and whatever connection 1 has in flight waits
#: behind it: 20 joins put about 17 points there, well beyond p99's 10,
#: and about 3 writes, well short of p95's 10, so neither percentile
#: sits on the edge between waiting and not.  90 range scans of 13
#: quanta each keep connection 2 busy for about as many quanta as
#: connection 1.
CONN2_MIX = {"range": 90, "join": 20}
#: nominal seconds of one round (set-up plus loop) on a 2-core host: a
#: run plays max(MIN_ROUNDS, round(seconds / this)) rounds, so the work
#: depends only on --seconds
NOMINAL_ROUND_S = 4.0
MIN_ROUNDS = 3
TENANTS = {"oltp": 1, "olap": 1}
CLASSES = ("point", "write", "range", "join")

#: latency metric -> (statement classes pooled, percentile)
LATENCY_METRICS = {
    "point_p50_ms": (("point",), 50), "point_p99_ms": (("point",), 99),
    "write_p50_ms": (("write",), 50), "write_p95_ms": (("write",), 95),
    "scan_p50_ms": (("range", "join"), 50),
    "scan_p90_ms": (("range", "join"), 90),
}


def generate_tables(seed):
    """The generated input rows, table -> list of tuples."""
    return {name: list(generate_rows(size, seed * 3 + i))
            for i, (name, size) in enumerate(SIZES.items())}


def statements(seed):
    """The two connections' statement lists: [(class, sql)] each."""
    rng = random.Random(f"sql-mix:{seed}")
    conn1 = [cls for cls, n in CONN1_MIX.items() for _ in range(n)]
    conn2 = [cls for cls, n in CONN2_MIX.items() for _ in range(n)]
    rng.shuffle(conn1)
    rng.shuffle(conn2)
    for i, cls in enumerate(conn1):
        if cls == "write":
            conn1[i] = (cls, (
                f"UPDATE tenk1 SET twenty = {rng.randrange(100, 100_000)} "
                f"WHERE unique2 = {rng.randrange(N_TUPLES)}"))
        else:
            conn1[i] = (cls, (
                "SELECT * FROM tenk1 WHERE unique1 = "
                f"{rng.randrange(N_TUPLES)}"))
    for i, cls in enumerate(conn2):
        lo = rng.randrange(N_TUPLES - RANGE)
        if cls == "join":
            conn2[i] = (cls, (
                "SELECT t.unique1, t.unique2, o.unique1, o.unique2 "
                "FROM tenk2 t, onek o WHERE t.unique3 = o.unique3 "
                f"AND t.unique2 >= {lo} AND t.unique2 < {lo + RANGE}"))
        else:
            conn2[i] = (cls, (
                f"SELECT * FROM tenk2 WHERE unique2 >= {lo} "
                f"AND unique2 < {lo + RANGE}"))
    return conn1, conn2


def set_up(tables, seed):
    """Load the tables and start the server; returns (db, server, conns)."""
    db = Database()
    for name, rows in tables.items():
        db.create_table(name, WISCONSIN_COLUMNS)
        db.create_index(name, "unique2", clustered=True)
        db.create_index(name, "unique1", clustered=False)
        db.load_rows(name, rows)
        db.analyze_table(name)
    server = SqlServer(db, workers=0, tenants=TENANTS, seed=seed)
    return db, server, [server.connect("oltp"), server.connect("olap")]


class _Stream:
    """One connection's closed loop: at most one statement in flight."""

    def __init__(self, conn, stmts):
        self.conn = conn
        self.stmts = stmts
        self.next = 0
        self.ticket = None
        self.sent_in = 0
        #: per statement sent, in order: (result rows or None, first
        #: and last drive-loop iteration it was in flight)
        self.done = []

    def submit(self, iteration):
        """Send the next statement, to be served from ``iteration`` on;
        False when the list is exhausted."""
        while self.next < len(self.stmts):
            _cls, sql = self.stmts[self.next]
            self.next += 1
            self.sent_in = iteration
            try:
                self.ticket = self.conn.submit(sql)
                return True
            except ServerBusy:
                self.done.append((None, iteration, iteration))
        self.ticket = None
        return False

    def ack(self, rows, iteration):
        self.done.append((rows, self.sent_in, iteration))


def drive(server, streams, step):
    """Run every stream's statement list to the end.

    Returns the clock at the loop's start and at the end of each
    iteration.  An iteration is one ``step`` and the acknowledgements
    and submissions after it; the first submissions count in
    iteration 0.
    """
    marks = [clock()]
    active = [s for s in streams if s.submit(0)]
    while active:
        progressed = step()
        iteration = len(marks) - 1
        for stream in list(active):
            if not stream.ticket.done:
                continue
            try:
                rows = stream.ticket.outcome().rows
            except ReproError:
                rows = None
            stream.ack(rows, iteration)
            if not stream.submit(iteration + 1):
                active.remove(stream)
        if not progressed and active:
            for stream in active:  # the server has stopped: nothing acks
                stream.ack(None, iteration)
            active = []
        marks.append(clock())
    return marks


FINAL_SQL = "SELECT unique2, twenty FROM tenk1"


def oracle(tables, stmts):
    """Expected results from ``sqlite3``: (per connection, the rows or
    affected-row count of each statement; final ``tenk1`` scan)."""
    db = sqlite3.connect(":memory:")
    try:
        cols = ", ".join(
            f"{col} {'INTEGER' if kind == 'int' else 'TEXT'}"
            for col, kind in WISCONSIN_COLUMNS)
        marks = ", ".join("?" * len(WISCONSIN_COLUMNS))
        for name, rows in tables.items():
            db.execute(f"CREATE TABLE {name} ({cols})")
            db.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
            for col in ("unique1", "unique2", "unique3"):
                db.execute(f"CREATE INDEX {name}_{col} ON {name} ({col})")
        expected = []
        # connection 1 in order (it alone writes tenk1), then
        # connection 2, which reads only tables nobody writes
        for conn_stmts in stmts:
            out = []
            for cls, sql in conn_stmts:
                cursor = db.execute(sql)
                out.append(sorted([(cursor.rowcount,)] if cls == "write"
                                  else cursor.fetchall()))
            expected.append(out)
        return expected, sorted(db.execute(FINAL_SQL).fetchall())
    finally:
        db.close()


def check_round(streams, expected, final, db):
    """Check every acknowledged result of one round against the oracle;
    returns (passed, problems)."""
    passed, problems = 0, []
    for stream, want in zip(streams, expected):
        for (_cls, sql), (rows, _a, _b), rows_ok in zip(
                stream.stmts, stream.done, want):
            if rows is None:
                problems.append(f"not acknowledged: {sql}")
            elif sorted(rows) != rows_ok:
                problems.append(f"wrong result: {sql}")
            else:
                passed += 1
    if sorted(db.execute(FINAL_SQL).rows) != final:
        problems.append("final tenk1 scan disagrees with the "
                        "acknowledged UPDATEs")
    return passed, problems


def _row_count(cls, rows):
    return rows[0][0] if cls == "write" else len(rows)


def measure(seed, seconds, import_s, probe):
    """Untraced run: the same statements in every round.

    Every set-up and drive-loop iteration is converted to reference
    seconds by ``probe`` (see probe.py).  Iteration ``i`` does the same
    work in every round, so its time is its median over the rounds; the
    loop time is the sum of these, and a statement's latency the sum
    over the iterations it was in flight.  Set-up time is the median
    round's.

    Returns (values, attempted, failed, work).
    """
    tables = generate_tables(seed)
    stmts = statements(seed)
    expected, final = oracle(tables, stmts)
    rounds = max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S))
    per_round = sum(len(s) for s in stmts)
    setup_spans, loop_marks, schedules = [], [], []
    passed, problems, retries, shed = 0, [], 0, 0
    for round_no in range(rounds):
        gc.collect()
        started = clock()
        db, server, conns = set_up(tables, seed)
        setup_spans.append((started, clock()))
        streams = [_Stream(c, s) for c, s in zip(conns, stmts)]
        loop_marks.append(drive(server, streams, server.step))
        ok, found = check_round(streams, expected, final, db)
        passed += ok
        problems.extend(found[:20])
        stats = server.stats()
        retries += stats["retries"]
        shed += stats["shed"]
        schedules.append([[(rows is not None, a, b)
                           for rows, a, b in s.done] for s in streams])
        if round_no == 0:
            delivered = [[(cls, rows) for (cls, _q), (rows, _a, _b)
                          in zip(s.stmts, s.done)] for s in streams]
        db = server = conns = streams = None

    # a round whose loop ran another schedule than round 0's cannot be
    # compared iteration by iteration: its statements count as failed
    same = [r for r in range(rounds)
            if schedules[r] == schedules[0]
            and len(loop_marks[r]) == len(loop_marks[0])]
    if len(same) < rounds:
        problems.append(f"drive-loop schedule differs from round 0 in "
                        f"{rounds - len(same)} rounds")
        passed = min(passed, len(same) * per_round)
    ticks = [[probe.reference_s(a, b) for a, b in zip(marks, marks[1:])]
             for marks in (loop_marks[r] for r in same)]
    prefix = [0.0]
    for column in zip(*ticks):
        prefix.append(prefix[-1] + median(column))
    loop_s = prefix[-1]

    latencies = {cls: [] for cls in CLASSES}
    acked = rows_out = 0
    for stream_sched, stream_rows in zip(schedules[0], delivered):
        for (ok, first, last), (cls, rows) in zip(stream_sched, stream_rows):
            if ok:
                latencies[cls].append(1000.0 * (prefix[last + 1]
                                                - prefix[first]))
                rows_out += _row_count(cls, rows)
                acked += 1
    attempted = rounds * per_round
    failed = attempted - passed
    setup_times = [probe.reference_s(*span) for span in setup_spans]
    setup = import_s + median(setup_times)
    values = {
        "setup_s": setup,
        "wall_s": setup + loop_s,
        "events_per_s": rows_out / loop_s,
        "ops_per_s": acked / loop_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": passed / attempted,
    }
    for key, (classes, q) in LATENCY_METRICS.items():
        samples = [x for cls in classes for x in latencies[cls]]
        if not supported(len(samples), q):
            raise RuntimeError(f"{key}: {len(samples)} samples cannot "
                               f"support p{q}")
        values[key] = percentile(samples, q)
    work = {
        "tuples": SIZES, "rounds": rounds,
        "statements_per_round": {
            cls: sum(1 for s in stmts for c, _q in s if c == cls)
            for cls in CLASSES},
        "acknowledged_per_round": {cls: len(v)
                                   for cls, v in latencies.items()},
        "iterations_per_round": len(loop_marks[0]) - 1,
        "failed": failed, "retries": retries, "shed": shed,
        "problems": problems[:20],
        "import_s": import_s,
        "setup_times_s": setup_times,
        "loop_times_s": [sum(t) for t in ticks],
        "wall_clock": {
            "setup_times_s": [b - a for a, b in setup_spans],
            "loop_times_s": [m[-1] - m[0] for m in loop_marks],
        },
    }
    return values, attempted, failed, work


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _log_bytes(log, first_lsn):
    return sum(len(r.before) + len(r.after)
               for r in log.records()[first_lsn:])


def _untraced_loop(tables, seed, stmts):
    """Loop seconds of one untraced round."""
    gc.collect()
    _db, server, conns = set_up(tables, seed)
    marks = drive(server, [_Stream(c, s) for c, s in zip(conns, stmts)],
                  server.step)
    return marks[-1] - marks[0]


def measure_traced(seed, recorder):
    """One traced round between two untraced ones.

    ``trace.overhead`` compares the traced round's loop time with the
    mean of the untraced rounds around it, which cancels a steady drift
    in the host's speed.  Returns (per-layer values, attempted, failed,
    work).
    """
    from repro.db import database as database_mod
    from repro.db import server as server_mod

    tables = generate_tables(seed)
    stmts = statements(seed)
    before_s = _untraced_loop(tables, seed, stmts)

    gc.collect()
    db, server, conns = set_up(tables, seed)
    streams = [_Stream(c, s) for c, s in zip(conns, stmts)]
    pool, log = db.storage.pool, db.storage.log
    pool0, forces0, lsn0 = pool.stats(), log.forces, len(log)
    # wrap only now, so that every span and count covers the loop alone
    examined = {"rows": 0}
    by_class = {cls: [0, 0] for cls in CLASSES}  # examined, returned
    recorder.count_yields(StorageManager, "scan_file", examined, "rows")
    recorder.count_calls(StorageManager, "read_rec", examined, "rows")
    recorder.patch(server_mod, "parse", "parse")
    recorder.patch(database_mod, "parse", "parse")
    recorder.patch(Planner, "plan", "Planner.plan")
    recorder.patch(BufferPool, "fetch_page", "BufferPool.fetch_page")
    recorder.patch(WriteAheadLog, "flush", "WriteAheadLog.flush")
    recorder.patch(SqlServer, "step", "SqlServer.step")
    try:

        def attributed_step():
            # charge the rows examined in this quantum to the statement
            # class of whichever connection the server ran
            before = examined["rows"]
            quanta = {t: v["quanta"]
                      for t, v in server.stats()["tenants"].items()}
            progressed = server.step()
            tenants = server.stats()["tenants"]
            for stream, tenant in zip(streams, TENANTS):
                if tenants[tenant]["quanta"] != quanta[tenant]:
                    cls = stream.stmts[stream.next - 1][0]
                    by_class[cls][0] += examined["rows"] - before
            return progressed

        marks = drive(server, streams, attributed_step)
        traced_s = marks[-1] - marks[0]
    finally:
        recorder.close()

    expected, final = oracle(tables, stmts)
    passed, problems = check_round(streams, expected, final, db)
    for stream in streams:
        for (cls, _sql), (rows, _a, _b) in zip(stream.stmts, stream.done):
            if rows is not None:
                by_class[cls][1] += _row_count(cls, rows)
    totals = recorder.totals()

    def span(name, field):
        return totals.get(name, {}).get(field, 0)

    pool1, stats = pool.stats(), server.stats()
    untraced_s = (before_s + _untraced_loop(tables, seed, stmts)) / 2
    cache = stats["statement_cache"]
    lookups = cache["hits"] + cache["misses"]
    values = {
        "db.parser.calls": span("parse", "calls"),
        "db.parser.s": span("parse", "total_s"),
        "db.server.stmt_cache_hit_ratio":
            cache["hits"] / lookups if lookups else 0.0,
        "db.optimizer.calls": span("Planner.plan", "calls"),
        "db.optimizer.s": span("Planner.plan", "self_s"),
        "db.exec.s": span("SqlServer.step", "self_s"),
        "db.storage.s": (span("BufferPool.fetch_page", "self_s")
                         + span("WriteAheadLog.flush", "self_s")),
        "db.storage.pool_hits": pool1["hits"] - pool0["hits"],
        "db.storage.pool_misses": pool1["misses"] - pool0["misses"],
        "db.storage.pool_evictions":
            pool1["evictions"] - pool0["evictions"],
        "db.storage.wal_forces": log.forces - forces0,
        "db.storage.log_bytes": _log_bytes(log, lsn0),
        "db.server.quanta": stats["quanta"],
        "db.server.step_s": span("SqlServer.step", "total_s"),
        "db.server.retries": stats["retries"],
        "db.server.shed": stats["shed"],
        "db.server.failed": stats["failed"],
        "trace.overhead": traced_s / untraced_s - 1.0,
    }
    for cls, (n_examined, n_returned) in by_class.items():
        values[f"db.exec.rows_examined_per_row.{cls}"] = (
            n_examined / n_returned if n_returned else 0.0)
    attempted = sum(len(s.stmts) for s in streams)
    work = {
        "tuples": SIZES, "rounds": 1,
        "statements_per_round": {cls: sum(1 for s in streams for c, _q in s.stmts
                                if c == cls) for cls in CLASSES},
        "failed": attempted - passed, "problems": problems[:20],
        "untraced_s": untraced_s, "traced_s": traced_s,
    }
    return values, attempted, attempted - passed, work

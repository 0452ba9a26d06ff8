"""SQL analytics over telemetry series and the durable event log.

The engine and gateway already serialize their full deterministic
history — per-tick series, per-campaign records, serve-frontier counters
— as JSON, and the event log keeps the row-level history in sqlite.
:class:`AnalyticsDB` loads both into one sqlite database (in-memory by
default) and answers **canned window-function queries** about them:

===================  ==========================================================
``queue-depth``       p50/p95/peak queued requests per tumbling window
``admission-rates``   admissions vs rejections per window, with running totals
``cache-hit-trend``   rolling policy-cache hit rate over the last N ticks
``campaign-fill``     per-campaign fill fraction and cumulative completions
``arrival-modulation``mean arrivals vs the rate factor per window
``event-mix``         event-kind counts per window with cumulative totals
``request-outcomes``  request→response join: status mix and ticks-to-response
===================  ==========================================================

sqlite has no percentile aggregate, so the percentile queries use the
standard nearest-rank construction: ``ROW_NUMBER()`` over each tumbling
window ordered by the measure, ``COUNT(*)`` over the same window, and a
``MAX(CASE WHEN rn = <rank> ...)`` pick.  Rolling aggregates use
``ROWS BETWEEN n PRECEDING AND CURRENT ROW`` frames; sqlite requires
frame offsets to be literals, so the window size is substituted into the
SQL text as a validated integer, never interpolated from user strings.

This is the engine room of the ``repro engine analytics`` CLI; it is
equally usable as a library (tests run the same queries against
brute-force recomputation).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sqlite3

from repro.obs.eventlog import EventLog

__all__ = ["AnalyticsDB", "AnalyticsError", "CannedQuery", "canned_queries", "render_table"]


class AnalyticsError(ValueError):
    """Bad query name, missing loaded data, or malformed input file."""


@dataclasses.dataclass(frozen=True)
class CannedQuery:
    """One named query the analytics CLI can run.

    ``sql`` may contain a ``{window}`` placeholder (tumbling-window width
    or rolling-frame length in ticks); ``requires`` names the loaded
    tables it reads, so :meth:`AnalyticsDB.run` can fail with a helpful
    message instead of returning an empty result.
    """

    name: str
    title: str
    description: str
    requires: tuple
    sql: str

    @property
    def uses_window(self) -> bool:
        return "{window}" in self.sql


_CANNED = (
    CannedQuery(
        name="queue-depth",
        title="Queue depth percentiles per window",
        description=(
            "p50/p95/peak of the drain-time request queue depth over "
            "tumbling windows of {window} ticks (nearest-rank)."
        ),
        requires=("serve",),
        sql="""
            WITH ranked AS (
                SELECT (interval / {window}) * {window} AS window_start,
                       queue_depth,
                       ROW_NUMBER() OVER (
                           PARTITION BY interval / {window}
                           ORDER BY queue_depth
                       ) AS rn,
                       COUNT(*) OVER (
                           PARTITION BY interval / {window}
                       ) AS n
                FROM serve
            )
            SELECT window_start,
                   MAX(n) AS ticks,
                   MAX(CASE WHEN rn = (n + 1) / 2 THEN queue_depth END)
                       AS p50_queue,
                   MAX(CASE WHEN rn = (95 * n + 99) / 100 THEN queue_depth END)
                       AS p95_queue,
                   MAX(queue_depth) AS peak_queue
            FROM ranked
            GROUP BY window_start
            ORDER BY window_start
        """,
    ),
    CannedQuery(
        name="admission-rates",
        title="Admission and rejection rates per window",
        description=(
            "Submissions admitted vs rejected per tumbling window of "
            "{window} ticks, with the rejection rate and running totals."
        ),
        requires=("serve",),
        sql="""
            SELECT (interval / {window}) * {window} AS window_start,
                   SUM(admitted) AS admitted,
                   SUM(rejected) AS rejected,
                   SUM(cancels) AS cancels,
                   ROUND(
                       CAST(SUM(rejected) AS REAL)
                       / NULLIF(SUM(admitted) + SUM(rejected), 0), 4
                   ) AS rejection_rate,
                   SUM(SUM(admitted)) OVER (
                       ORDER BY (interval / {window})
                   ) AS cumulative_admitted,
                   SUM(SUM(rejected)) OVER (
                       ORDER BY (interval / {window})
                   ) AS cumulative_rejected
            FROM serve
            GROUP BY window_start
            ORDER BY window_start
        """,
    ),
    CannedQuery(
        name="cache-hit-trend",
        title="Rolling policy-cache hit rate",
        description=(
            "Per-tick cache hits/misses and the hit rate over a rolling "
            "frame of the last {window} ticks."
        ),
        requires=("telemetry",),
        sql="""
            SELECT interval,
                   cache_hits,
                   cache_misses,
                   SUM(cache_hits) OVER w AS window_hits,
                   SUM(cache_hits + cache_misses) OVER w AS window_lookups,
                   ROUND(
                       CAST(SUM(cache_hits) OVER w AS REAL)
                       / NULLIF(SUM(cache_hits + cache_misses) OVER w, 0), 4
                   ) AS hit_rate
            FROM telemetry
            WINDOW w AS (
                ORDER BY interval
                ROWS BETWEEN {window_minus_1} PRECEDING AND CURRENT ROW
            )
            ORDER BY interval
        """,
    ),
    CannedQuery(
        name="campaign-fill",
        title="Per-campaign fill trajectory",
        description=(
            "Every campaign departure in interval order: fill fraction at "
            "exit and the run's cumulative completed tasks."
        ),
        requires=("campaigns",),
        sql="""
            SELECT campaign_id,
                   kind,
                   interval,
                   completed,
                   remaining,
                   ROUND(
                       CAST(completed AS REAL)
                       / NULLIF(completed + remaining, 0), 4
                   ) AS fill_fraction,
                   cancelled,
                   SUM(completed) OVER (
                       ORDER BY interval, campaign_id
                       ROWS UNBOUNDED PRECEDING
                   ) AS cumulative_completed
            FROM campaigns
            ORDER BY interval, campaign_id
        """,
    ),
    CannedQuery(
        name="arrival-modulation",
        title="Arrivals vs rate factor per window",
        description=(
            "Mean realized arrivals against the mean arrival-rate factor "
            "per tumbling window of {window} ticks, with a 3-window "
            "rolling arrival mean."
        ),
        requires=("telemetry",),
        sql="""
            SELECT (interval / {window}) * {window} AS window_start,
                   COUNT(*) AS ticks,
                   SUM(arrived) AS total_arrived,
                   ROUND(AVG(arrived), 3) AS mean_arrived,
                   ROUND(AVG(rate_factor), 4) AS mean_rate_factor,
                   ROUND(AVG(num_live), 2) AS mean_live,
                   ROUND(AVG(AVG(arrived)) OVER (
                       ORDER BY (interval / {window})
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW
                   ), 3) AS rolling3_mean_arrived
            FROM telemetry
            GROUP BY window_start
            ORDER BY window_start
        """,
    ),
    CannedQuery(
        name="event-mix",
        title="Event-kind mix per window",
        description=(
            "Event counts by kind per tumbling window of {window} ticks, "
            "with each kind's cumulative total."
        ),
        requires=("events",),
        sql="""
            SELECT (tick / {window}) * {window} AS window_start,
                   kind,
                   COUNT(*) AS events,
                   SUM(COUNT(*)) OVER (
                       PARTITION BY kind
                       ORDER BY (tick / {window})
                   ) AS cumulative
            FROM events
            GROUP BY window_start, kind
            ORDER BY window_start, kind
        """,
    ),
    CannedQuery(
        name="request-outcomes",
        title="Request outcomes and ticks-to-response",
        description=(
            "Requests offered per tumbling window of {window} ticks, "
            "joined to their responses by trace id: status mix and mean "
            "ticks from offer to response."
        ),
        requires=("events",),
        sql="""
            SELECT (req.tick / {window}) * {window} AS window_start,
                   COUNT(*) AS requests,
                   SUM(CASE
                       WHEN json_extract(resp.payload, '$.status') = 'ok'
                       THEN 1 ELSE 0 END) AS ok,
                   SUM(CASE
                       WHEN json_extract(resp.payload, '$.status') = 'rejected'
                       THEN 1 ELSE 0 END) AS rejected,
                   SUM(CASE
                       WHEN json_extract(resp.payload, '$.status') = 'error'
                       THEN 1 ELSE 0 END) AS errored,
                   SUM(CASE WHEN resp.seq IS NULL THEN 1 ELSE 0 END)
                       AS unresolved,
                   ROUND(AVG(resp.tick - req.tick), 3)
                       AS mean_ticks_to_response
            FROM events AS req
            LEFT JOIN events AS resp
                ON resp.kind = 'response' AND resp.trace_id = req.trace_id
            WHERE req.kind = 'request'
            GROUP BY window_start
            ORDER BY window_start
        """,
    ),
)


def canned_queries() -> tuple:
    """Every canned query, in presentation order."""
    return _CANNED


def _get_query(name: str) -> CannedQuery:
    for query in _CANNED:
        if query.name == name:
            return query
    known = ", ".join(q.name for q in _CANNED)
    raise AnalyticsError(f"unknown canned query {name!r} (expected one of {known})")


_TELEMETRY_COLUMNS = (
    "interval", "num_live", "admitted", "arrived", "considered", "accepted",
    "retired", "cancelled", "rate_factor", "cache_hits", "cache_misses",
    "repricer_solves", "tasks_remaining", "idle",
)
_SERVE_COLUMNS = (
    "interval", "queue_depth", "drained", "admitted", "rejected", "cancels",
    "snapshots", "reads",
)
_CAMPAIGN_COLUMNS = (
    "campaign_id", "kind", "interval", "completed", "remaining", "total_cost",
    "penalty", "cancelled", "adaptive", "cache_hit", "num_solves",
)
_EVENT_COLUMNS = (
    "seq", "tick", "kind", "campaign_id", "client", "trace_id", "payload",
)


def _create_table(conn: sqlite3.Connection, name: str, columns: tuple) -> None:
    cols = ", ".join(columns)
    conn.execute(f"CREATE TABLE IF NOT EXISTS {name} ({cols})")


class AnalyticsDB:
    """One run's telemetry and events, loaded into sqlite for querying.

    Load what you have — an engine telemetry file, a gateway telemetry
    file (its engine series comes along), an event log — then
    :meth:`run` canned queries or :meth:`query` raw SQL.  Tables:

    * ``telemetry`` — the 14 per-tick engine series as columns.
    * ``serve`` — the 8 per-tick gateway series (gateway telemetry only).
    * ``campaigns`` — one row per campaign departure.
    * ``events`` — the event log, payload as JSON text
      (``json_extract`` works on it).
    """

    def __init__(self) -> None:
        self.conn = sqlite3.connect(":memory:")
        _create_table(self.conn, "telemetry", _TELEMETRY_COLUMNS)
        _create_table(self.conn, "serve", _SERVE_COLUMNS)
        _create_table(self.conn, "campaigns", _CAMPAIGN_COLUMNS)
        _create_table(self.conn, "events", _EVENT_COLUMNS)
        #: Table names with loaded data (``requires`` checks).
        self.loaded: set[str] = set()

    def close(self) -> None:
        """Release the in-memory database (also via context manager exit)."""
        self.conn.close()

    def __enter__(self) -> "AnalyticsDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_telemetry(self, source) -> "AnalyticsDB":
        """Load a telemetry JSON file or dict (engine or gateway form).

        Gateway telemetry (recognized by its ``serve`` key) fills the
        ``serve`` table and recurses into its wrapped engine telemetry;
        engine telemetry fills ``telemetry`` and ``campaigns``.
        """
        data = source
        if not isinstance(data, dict):
            data = json.loads(pathlib.Path(source).read_text())
        if "serve" in data:
            self._load_series("serve", _SERVE_COLUMNS, data["serve"])
            data = data.get("engine")
            if data is None:
                raise AnalyticsError(
                    "gateway telemetry has no 'engine' section"
                )
        if "series" not in data:
            raise AnalyticsError(
                "not a telemetry file: expected a 'series' key "
                "(engine telemetry) or 'serve' key (gateway telemetry)"
            )
        self._load_series("telemetry", _TELEMETRY_COLUMNS, data["series"])
        rows = [
            tuple(record[col] for col in _CAMPAIGN_COLUMNS)
            for record in data.get("campaigns", ())
        ]
        if rows:
            placeholders = ", ".join("?" * len(_CAMPAIGN_COLUMNS))
            self.conn.executemany(
                f"INSERT INTO campaigns VALUES ({placeholders})", rows
            )
        self.loaded.add("campaigns")
        self.conn.commit()
        return self

    def _load_series(self, table: str, columns: tuple, series: dict) -> None:
        try:
            rows = list(zip(*(series[col] for col in columns), strict=True))
        except KeyError as exc:
            raise AnalyticsError(
                f"telemetry series is missing the {exc.args[0]!r} field"
            ) from exc
        if rows:
            placeholders = ", ".join("?" * len(columns))
            self.conn.executemany(
                f"INSERT INTO {table} VALUES ({placeholders})", rows
            )
        self.loaded.add(table)

    def load_event_log(self, path) -> "AnalyticsDB":
        """Copy an event-log sqlite file's rows into the ``events`` table."""
        rows = [(e.seq,) + e.to_row() for e in EventLog.read(path).events()]
        if rows:
            self.conn.executemany(
                "INSERT INTO events VALUES (?, ?, ?, ?, ?, ?, ?)", rows
            )
        self.loaded.add("events")
        self.conn.commit()
        return self

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def run(self, name: str, window: int = 20) -> tuple:
        """Run the canned query ``name``; returns ``(columns, rows)``.

        ``window`` is the tumbling-window width / rolling-frame length in
        ticks for the queries that use one.
        """
        query = _get_query(name)
        window = int(window)
        if window < 1:
            raise AnalyticsError(f"window must be >= 1, got {window}")
        missing = [table for table in query.requires if table not in self.loaded]
        if missing:
            hints = {
                "serve": "load gateway telemetry (a serve run's --telemetry-out)",
                "telemetry": "load an engine or gateway telemetry file",
                "campaigns": "load an engine or gateway telemetry file",
                "events": "load an event log (--event-log)",
            }
            raise AnalyticsError(
                f"query {name!r} needs data that is not loaded: "
                + "; ".join(f"{t} — {hints[t]}" for t in missing)
            )
        sql = query.sql.format(window=window, window_minus_1=window - 1)
        return self.query(sql)

    def query(self, sql: str, params=()) -> tuple:
        """Run raw SQL; returns ``(columns, rows)``."""
        cursor = self.conn.execute(sql, params)
        columns = tuple(d[0] for d in cursor.description or ())
        return columns, cursor.fetchall()

    def run_as_dicts(self, name: str, window: int = 20) -> list[dict]:
        """Canned query result as JSON-ready ``[{column: value}]`` rows."""
        columns, rows = self.run(name, window=window)
        return [dict(zip(columns, row)) for row in rows]


def render_table(columns, rows) -> str:
    """Fixed-width text table (the analytics CLI's ``--format table``)."""
    headers = [str(c) for c in columns]
    body = [
        ["" if v is None else str(v) for v in row]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in body), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)

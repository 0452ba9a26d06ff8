"""The event-log writer: stored rows, failure handling, wake-ups.

The writer commits each batch as one ``INSERT ... SELECT ... FROM
json_each(?)`` statement.  These tests pin that the rows it stores are
exactly the ``(seq,) + Event(...).to_row()`` tuples a direct bind would
store, that a failed batch leaves a gap-free committed prefix and a log
that refuses further use, and that producers wake the writer once per
batch rather than once per append.
"""

from __future__ import annotations

import contextlib
import sqlite3
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Event, EventLog
from repro.obs import eventlog as eventlog_module
from repro.obs.eventlog import EventLogError

AWKWARD_TEXT = [
    'quote " and \\ backslash',
    "new\nline\r\ttab",
    "ünïcödé ∑ 中文",
    "emoji 😀🎉",
    "",
    "123",
    None,
]

#: Any text a direct bind stores: no NUL (refused, see below) and no
#: lone surrogate (not UTF-8; the bind fails either way).
COLUMN_CHARS = st.characters(
    exclude_categories=("Cs",), exclude_characters="\0"
)

AWKWARD_PAYLOADS = [
    {},
    {"floats": [0.1, 1e-300, -0.0, float("nan"), float("inf")]},
    {"nested": [[1, [2, [3]]], {"b": None, "a": True}], "big": 2**80},
    {"text": 'q"uo\\te\n😀', "ünï": ["€"]},
]


def stored_rows(path) -> list[tuple]:
    with contextlib.closing(sqlite3.connect(path)) as conn:
        return conn.execute(
            "SELECT seq, tick, kind, campaign_id, client, trace_id, payload "
            "FROM events ORDER BY seq"
        ).fetchall()


def log_and_expect(log: EventLog, events: list[Event]) -> list[tuple]:
    """Log ``events`` (alternating ``log`` and ``append``); return the
    rows a direct bind of ``Event.to_row`` would have stored."""
    expected = []
    for i, event in enumerate(events):
        if i % 2:
            seq = log.append(event)
        else:
            seq = log.log(
                event.kind, event.tick, event.payload,
                campaign_id=event.campaign_id, client=event.client,
                trace_id=event.trace_id,
            )
        expected.append((seq,) + event.to_row())
    log.sync()
    return expected


class TestRowFidelity:
    def test_awkward_values_store_like_a_direct_bind(self, tmp_path):
        path = tmp_path / "e.sqlite"
        events = [
            Event(
                kind="request", tick=tick, payload=payload,
                campaign_id=text, client=text, trace_id=text,
            )
            for tick, text in zip((0, 1, 7, 2**62, 3, 4, 5), AWKWARD_TEXT)
            for payload in AWKWARD_PAYLOADS
        ]
        with EventLog(path, batch_size=5) as log:
            expected = log_and_expect(log, events)
        assert stored_rows(path) == expected
        # NaN != NaN as a float, so compare the payload text too.
        assert any("NaN" in row[-1] for row in expected)

    def test_numpy_tick_is_stored_as_int(self, tmp_path):
        path = tmp_path / "e.sqlite"
        with EventLog(path) as log:
            expected = log_and_expect(
                log, [Event(kind="tick", tick=np.int64(9))]
            )
        assert stored_rows(path) == expected == [(1, 9, "tick", None, None,
                                                  None, "{}")]

    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**62),
                st.none() | st.text(COLUMN_CHARS),
                st.none() | st.text(COLUMN_CHARS),
                st.dictionaries(
                    st.text(),
                    st.none() | st.booleans() | st.integers() | st.floats()
                    | st.text() | st.lists(st.integers() | st.floats()),
                ),
            ),
            min_size=1, max_size=20,
        )
    )
    def test_generated_rows_store_like_a_direct_bind(self, tmp_path, rows):
        path = tmp_path / f"e-{time.monotonic_ns()}.sqlite"
        events = [
            Event(kind="response", tick=tick, payload=payload,
                  client=client, trace_id=trace_id)
            for tick, client, trace_id, payload in rows
        ]
        with EventLog(path, batch_size=7) as log:
            expected = log_and_expect(log, events)
        assert stored_rows(path) == expected

    def test_nul_in_a_column_fails_the_writer(self, tmp_path):
        """sqlite's JSON functions end text at ``\\u0000``; the writer
        refuses the batch rather than store a truncated id."""
        path = tmp_path / "e.sqlite"
        log = EventLog(path)
        log.log("tick", 0)
        log.sync()
        log.log("request", 1, client="a\0b")
        with pytest.raises(EventLogError, match="NUL"):
            log.sync()
        log.close()
        assert [e.seq for e in EventLog.read(path).events()] == [1]

    def test_nul_in_a_payload_is_stored(self, tmp_path):
        path = tmp_path / "e.sqlite"
        with EventLog(path) as log:
            expected = log_and_expect(
                log, [Event(kind="tick", tick=0, payload={"s": "a\0b"})]
            )
        assert stored_rows(path) == expected


class TestWriterFailure:
    @pytest.mark.parametrize("bad", [object(), np.int64(3)],
                             ids=["object", "numpy-int64"])
    def test_unserializable_payload_fails_the_log(self, tmp_path, bad):
        path = tmp_path / "e.sqlite"
        log = EventLog(path, batch_size=4)
        for t in range(6):
            log.log("tick", t, {"t": t})
        assert log.sync() == 6
        log.log("tick", 6, {"bad": bad})
        log.log("tick", 7, {"t": 7})
        with pytest.raises(EventLogError, match="writer failed"):
            log.sync()
        with pytest.raises(EventLogError):
            log.log("tick", 8)
        assert not log.healthy
        started = time.monotonic()
        log.close()
        assert time.monotonic() - started < 5.0
        reader = EventLog.read(path)
        assert [e.seq for e in reader.events()] == list(range(1, 7))
        assert [e.payload["t"] for e in reader.events()] == list(range(6))

    def test_failure_is_raised_to_the_next_log(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite")
        log.log("tick", 0, {"bad": object()})
        log.flush()
        deadline = time.monotonic() + 5.0
        while log.healthy and time.monotonic() < deadline:
            time.sleep(0.01)
        with pytest.raises(EventLogError):
            log.log("tick", 1)
        log.close()


class TestOpen:
    def test_sqlite_without_json_is_a_typed_error(self, tmp_path, monkeypatch):
        """A SQLite older than 3.38 has no ``->>`` operator."""

        class OldSqlite(sqlite3.Connection):
            def execute(self, sql, *args):
                if "->>" in sql:
                    raise sqlite3.OperationalError('near ">>": syntax error')
                return super().execute(sql, *args)

        connect = sqlite3.connect
        monkeypatch.setattr(
            eventlog_module.sqlite3, "connect",
            lambda *a, **k: connect(*a, factory=OldSqlite, **k),
        )
        with pytest.raises(EventLogError, match="3.38"):
            EventLog(tmp_path / "e.sqlite")


class TestWakeups:
    def test_producer_wakes_the_writer_once_per_batch(self, tmp_path):
        log = EventLog(tmp_path / "e.sqlite", batch_size=100)
        producer = threading.current_thread()
        wakes = []
        wake = log._wake

        class CountingEvent:
            def set(self):
                if threading.current_thread() is producer:
                    wakes.append(1)
                wake.set()

            def __getattr__(self, name):
                return getattr(wake, name)

        log._wake = CountingEvent()
        for t in range(1000):
            log.log("tick", t)
        assert len(wakes) <= 1000 // 100
        assert log.sync() == 1000
        log.close()

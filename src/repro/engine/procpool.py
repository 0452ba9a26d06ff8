"""Process shard executor: each shard owned end-to-end by a worker process.

The thread executor in :mod:`repro.engine.sharding` parallelizes the
per-shard tick work, but the GIL serializes the Python inside it — shard
scaling stays flat on CPU-bound workloads.  This module is the executor
that actually escapes the GIL: ``ShardedEngine(executor="process")``
builds a :class:`_ProcessBackend` whose ``N`` shards live in ``N``
persistent daemon **worker processes**.  Each worker owns its shard's
campaigns, private per-campaign generators, and tick loop end-to-end
(running the exact same :class:`~repro.engine.sharding._Shard` code the
serial and thread executors run); the coordinator and the workers
exchange only per-tick aggregates over pipes.

**Determinism.**  The factored-arrival contract survives the process
boundary unchanged, because nothing about it ever depended on shared
memory: every campaign's draws come from its private generator keyed by
``(seed, campaign_id)``; the per-tick choice fractions are computed once
by the coordinator from the canonically sorted global price vector and
shipped to every worker; and the coordinator keeps the walk-away
generator.  Same seed ⇒ bit-identical per-campaign outcomes for any
shard count and any executor — asserted cell by cell by
``tests/engine/test_executor_matrix.py``.

**Per-tick protocol** (three round trips, mirroring the factored
backend's price/split/observe phases)::

    coordinator                              worker (one per shard)
    ("prices", t)                  ------>   price-book gather
      merge by cid, fractions      <------   posted price column
    ("step", (t, mean, aq, cq))    ------>   factored draws + completions
      aggregate arrived            <------   (considered, accepted)
    ("finish", (t, arrived))       ------>   observe + retire
      drop retired ids, stash      <------   (positions, outcomes)

Every column is position-aligned with the worker's campaigns: the
coordinator keeps each shard's campaign ids in that order
(:class:`~repro.engine.sharding._ShardIds`), so a worker ships a bare
float64 price column and receives only its own slices of the accept and
consider fractions — no campaign id crosses a pipe after placement.  The
worker keeps its posted column from ``"prices"`` for the ``"step"`` that
follows.  ``observe`` and ``retire`` ride one message because the clock
always runs them back-to-back within a tick with nothing between.

**Failure model.**  A worker dying mid-tick (OOM kill, segfault, operator
``kill -9``) surfaces as a typed
:class:`~repro.engine.clock.EngineError` — never a hang and never a bare
``BrokenPipeError`` — naming the shard and the message in flight.  The
session is then gone (its distributed generator states died with the
worker); recovery is restoring the most recent checkpoint bundle, which
resumes bit-identically (:meth:`_ProcessBackend.restore_live` ships each
campaign's serialized generator state back to its owning worker).

The start method defaults to ``fork`` where available (cheap on Linux)
and may be overridden with ``REPRO_PROCESS_START_METHOD=spawn|fork|
forkserver``.  Workers inherit the coordinator's resolved
``REPRO_KERNELS`` selection, so the compiled-kernel flag applies on both
sides of the pipe.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
import traceback

import numpy as np

from repro.core.batch import kernels
from repro.engine.campaign import CampaignOutcome
from repro.engine.clock import ClockBackend, EngineError
from repro.engine.planning import _LiveCampaign
from repro.engine.routing import ArrivalRouter
from repro.engine.sharding import (
    _MARKET_STREAM,
    _Shard,
    _ShardIds,
    _by_shard,
    _live_id,
    _restore_groups,
    shard_of,
)
from repro.sim.stream import SharedArrivalStream
from repro.util.rngstate import generator_from_state, generator_state

__all__ = ["START_METHOD_ENV", "_ProcessBackend"]

#: Environment override for the multiprocessing start method.
START_METHOD_ENV = "REPRO_PROCESS_START_METHOD"

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_SECONDS = 0.05

#: Seconds to wait for a worker to exit cleanly at close before terminating.
_CLOSE_GRACE_SECONDS = 5.0


def _worker_main(
    conn: multiprocessing.connection.Connection,
    shard_index: int,
    seed: int,
    kernels_name: str,
) -> None:
    """One shard worker: serve messages over ``conn`` until closed.

    Runs the same :class:`_Shard` the in-process executors run; the seed
    re-derives each placed campaign's private generator, so placement by
    message is indistinguishable from placement by direct call.  The
    price column of each ``"prices"`` is kept for the ``"step"`` after
    it.  Handler errors are reported back as ``("err", traceback)``
    rather than killing the worker, so a poisoned message never looks
    like a crash.
    """
    # A fork-started worker inherits the coordinator's selection (and any
    # test harness substitution) already active; only re-resolve when the
    # inherited state disagrees (spawn/forkserver start from defaults).
    if kernels.active() != kernels_name:
        kernels.set_kernels(kernels_name)
    shard = _Shard(shard_index)
    posted = None
    while True:
        try:
            tag, payload = conn.recv()
        except (EOFError, OSError):
            break  # coordinator vanished; nothing left to serve
        try:
            result = None
            if tag == "close":
                conn.send(("ok", None))
                break
            elif tag == "place":
                shard.place(payload, seed)
            elif tag == "restore":
                shard.attach(
                    [live for live, _ in payload],
                    [generator_from_state(state) for _, state in payload],
                )
            elif tag == "export":
                result = shard.export()
            elif tag == "prices":
                # The three per-tick tags measure their own compute and
                # ship it with the result: the coordinator's aggregate
                # phase timers include IPC wait, the worker-side seconds
                # are pure shard compute (PhaseTimings.record_shard).
                started = time.perf_counter()
                posted = shard.prices(payload)
                result = (posted, time.perf_counter() - started)
            elif tag == "step":
                started = time.perf_counter()
                result = (
                    shard.step(*payload, posted), time.perf_counter() - started
                )
            elif tag == "finish":
                t, arrived = payload
                started = time.perf_counter()
                shard.observe(t, arrived)
                result = (shard.retire(t), time.perf_counter() - started)
            elif tag == "cancel":
                result = shard.cancel(payload)
            elif tag == "live_stats":
                result = shard.live_stats()
            else:
                raise ValueError(f"unknown worker message {tag!r}")
            conn.send(("ok", result))
        except Exception:
            conn.send(("err", traceback.format_exc()))


class _ProcessBackend(ClockBackend):
    """Sharded mechanics over per-shard worker processes.

    Drop-in peer of :class:`~repro.engine.sharding._FactoredBackend`:
    same phases, same aggregates, same checkpoint surface — but the
    shard state lives out-of-process.  Workers start lazily at the first
    placement (a session that never goes live never forks) and persist
    until :meth:`close`, so tick stepping never pays process startup.
    """

    def __init__(
        self,
        stream: SharedArrivalStream,
        router: ArrivalRouter,
        num_shards: int,
        seed: int,
    ):
        self.stream = stream
        self.router = router
        self.num_shards = num_shards
        self.seed = seed
        self.market_rng = np.random.default_rng([seed, _MARKET_STREAM])
        self.ids = _ShardIds(num_shards)
        self._workers: list[tuple] | None = None
        self._retired_stash: list[CampaignOutcome] | None = None

    # ------------------------------------------------------------------
    # Worker lifecycle + messaging
    # ------------------------------------------------------------------
    def _ensure_workers(self) -> list[tuple]:
        if self._workers is None:
            method = os.environ.get(START_METHOD_ENV)
            if method is None and "fork" in multiprocessing.get_all_start_methods():
                method = "fork"
            ctx = multiprocessing.get_context(method)
            # Workers receive the *resolved* kernel selection, so the
            # numba-absent fallback never re-warns once per process.
            kernels_name = kernels.active()
            workers = []
            for index in range(self.num_shards):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, index, self.seed, kernels_name),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                workers.append((proc, parent_conn))
            self._workers = workers
        return self._workers

    def _dead(self, index: int, proc, tag: str) -> EngineError:
        return EngineError(
            f"shard worker {index} (pid {proc.pid}) died with exit code "
            f"{proc.exitcode} while handling {tag!r}; the session's state "
            "is lost — restore the latest checkpoint to resume"
        )

    def _send(self, index: int, tag: str, payload) -> None:
        proc, conn = self._ensure_workers()[index]
        try:
            conn.send((tag, payload))
        except (BrokenPipeError, OSError) as exc:
            raise self._dead(index, proc, tag) from exc

    def _recv(self, index: int, tag: str):
        proc, conn = self._workers[index]
        while True:
            try:
                if conn.poll(_POLL_SECONDS):
                    status, result = conn.recv()
                    break
            except (EOFError, OSError) as exc:
                raise self._dead(index, proc, tag) from exc
            if not proc.is_alive() and not conn.poll(0):
                raise self._dead(index, proc, tag)
        if status == "err":
            raise EngineError(
                f"shard worker {index} failed handling {tag!r}:\n{result}"
            )
        return result

    def _scatter(self, tag: str, payloads: list) -> list:
        """Send ``payloads[i]`` to worker ``i``, then gather every reply.

        All sends complete before the first receive, so the shard work
        overlaps across worker processes — this is the parallelism.
        """
        self._ensure_workers()
        for index, payload in enumerate(payloads):
            self._send(index, tag, payload)
        return [self._recv(index, tag) for index in range(self.num_shards)]

    def _broadcast(self, tag: str, payload) -> list:
        """:meth:`_scatter` of one payload to every worker."""
        return self._scatter(tag, [payload] * self.num_shards)

    def _request(self, index: int, tag: str, payload):
        self._send(index, tag, payload)
        return self._recv(index, tag)

    def _timed_scatter(self, tag: str, payloads: list, phase: str) -> list:
        """Scatter a per-tick tag; record each worker's shipped compute
        seconds as that shard's ``phase`` and return the bare results."""
        results = []
        for shard_index, reply in enumerate(self._scatter(tag, payloads)):
            result, elapsed = reply
            if self.phases is not None:
                self.phases.record_shard(shard_index, phase, elapsed)
            results.append(result)
        return results

    # ------------------------------------------------------------------
    # ClockBackend
    # ------------------------------------------------------------------
    def place(self, admitted) -> None:
        groups = _by_shard(admitted, _live_id, self.num_shards)
        for index, lives in groups.items():
            self._send(index, "place", lives)
        for index, lives in groups.items():
            self._recv(index, "place")
            self.ids.extend(index, [_live_id(live) for live in lives])

    def num_live(self) -> int:
        return self.ids.count()

    def step(self, t: int, rate_factor: float = 1.0) -> tuple[int, int, int]:
        phases = self.phases
        if phases is not None:
            phase_started = time.perf_counter()
        # Phase 1 — exactly the factored backend's price phase, with the
        # gathering round-tripped: fractions come from the canonically
        # sorted *global* price vector, so they are bit-identical to the
        # in-process executors'.
        posted = self._timed_scatter("prices", [t] * self.num_shards, "price")
        accept, consider, considered_mass = self.ids.fractions(self.router, posted)
        mean_t = self.stream.mean(t) * rate_factor
        if phases is not None:
            now = time.perf_counter()
            phases.record("price", now - phase_started)
            phase_started = now
        walked = int(
            self.market_rng.poisson(mean_t * max(1.0 - considered_mass, 0.0))
        )
        # Phase 2 — every worker draws and applies its shard concurrently,
        # given only its own slices of the fractions.
        step_totals = self._timed_scatter(
            "step",
            [(t, mean_t, a, c) for a, c in zip(accept, consider)],
            "split",
        )
        considered = sum(c for c, _ in step_totals)
        accepted = sum(a for _, a in step_totals)
        arrived = walked + considered
        if phases is not None:
            now = time.perf_counter()
            phases.record("split", now - phase_started)
            phase_started = now
        # Phase 3 — observe + retire ride one message (the clock always
        # runs them back-to-back); outcomes are stashed for retire().
        finished = self._timed_scatter(
            "finish", [(t, arrived)] * self.num_shards, "observe"
        )
        retired: list[CampaignOutcome] = []
        for index, (positions, outcomes) in enumerate(finished):
            self.ids.drop(index, positions)
            retired.extend(outcomes)
        retired.sort(key=lambda o: o.spec.campaign_id)
        self._retired_stash = retired
        if phases is not None:
            phases.record("observe", time.perf_counter() - phase_started)
        return arrived, considered, accepted

    def retire(self, t: int) -> list[CampaignOutcome]:
        retired = self._retired_stash
        if retired is None:
            return []
        self._retired_stash = None
        return retired

    def cancel(self, campaign_id: str) -> CampaignOutcome | None:
        if self._workers is None:
            return None
        index = shard_of(campaign_id, self.num_shards)
        cancelled = self._request(index, "cancel", campaign_id)
        if cancelled is None:
            return None
        position, outcome = cancelled
        self.ids.drop(index, [position])
        return outcome

    def shard_health(self) -> list[dict] | None:
        """One liveness row per shard worker (``None`` before any fork).

        Workers start lazily at the first placement, so a session that
        never went live has nothing that can die — the readiness probe
        treats ``None`` as vacuously healthy.
        """
        if self._workers is None:
            return None
        return [
            {"shard": index, "pid": proc.pid, "alive": proc.is_alive()}
            for index, (proc, _conn) in enumerate(self._workers)
        ]

    def live_stats(self) -> list[tuple[str, int, int, bool]]:
        if self._workers is None:
            return []
        return sorted(
            tuple(entry)
            for shard_stats in self._broadcast("live_stats", None)
            for entry in shard_stats
        )

    def close(self) -> None:
        if self._workers is None:
            return
        workers, self._workers = self._workers, None
        for index, (proc, conn) in enumerate(workers):
            try:
                conn.send(("close", None))
                if conn.poll(_CLOSE_GRACE_SECONDS):
                    conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass  # already gone; join/terminate below
            conn.close()
            proc.join(timeout=_CLOSE_GRACE_SECONDS)
            if proc.is_alive():
                # Escalate: SIGTERM first, SIGKILL if the worker ignores
                # it — every join is bounded, so a wedged worker (stuck
                # kernel, masked SIGTERM) can never hang close().
                proc.terminate()
                proc.join(timeout=_CLOSE_GRACE_SECONDS)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=_CLOSE_GRACE_SECONDS)

    # ------------------------------------------------------------------
    # Checkpoint surface
    # ------------------------------------------------------------------
    def export_live(self) -> tuple[list[tuple[_LiveCampaign, dict | None]], dict]:
        if self._workers is None:
            entries: list[tuple[_LiveCampaign, dict | None]] = []
        else:
            entries = [
                entry
                for shard_entries in self._broadcast("export", None)
                for entry in shard_entries
            ]
        return entries, generator_state(self.market_rng)

    def restore_live(
        self, placed: list[tuple[_LiveCampaign, dict | None]], rng_state: dict
    ) -> None:
        groups = _restore_groups(placed, self.num_shards)
        for index, entries in groups.items():
            self._send(index, "restore", entries)
        for index, entries in groups.items():
            self._recv(index, "restore")
            self.ids.extend(index, [_live_id(live) for live, _ in entries])
        self.market_rng = generator_from_state(rng_state)

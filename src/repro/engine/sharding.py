"""Engine sharding: partition campaigns across parallel worker shards.

:class:`ShardedEngine` scales the marketplace engine across campaigns: the
submitted campaign set is partitioned over ``N`` worker shards by a stable
hash of the campaign id, and each tick's pricing/acceptance work is mapped
over the shards through a pluggable executor (serial loop, thread pool, or
any ``concurrent.futures.Executor``).  The clock itself is the shared
:class:`~repro.engine.clock.EngineCore`; this module only supplies the
*factored* arrival backend each session runs on, so the sharded engine
inherits tick stepping, mid-flight submission, and checkpoint/resume from
the same loop the unsharded engine uses.

**Deterministic stream splitting.**  The shared NHPP worker stream is
split by *Poisson factorization* rather than by handing realized workers
around: a worker arriving at rate ``lambda_t`` accepts campaign ``i`` with
the router's choice fraction ``q_i`` (see
:meth:`~repro.engine.routing.ArrivalRouter.fractions`), and thinning a
Poisson process by independent choices yields **independent** Poisson
processes — campaign ``i``'s acceptances are exactly
``Pois(lambda_t * q_i)``, drawn from a private per-campaign generator
keyed by ``(seed, campaign_id)``.  The walk-away remainder is drawn by the
coordinator, so the superposed arrival process is distributed exactly like
the unsharded stream.

Because every random decision is keyed by campaign (not by shard), the
realized run is **invariant to the shard count and executor**: the same
seed produces identical per-campaign outcomes for 1 shard, N shards,
serial, threaded, or process-parallel — sharding is purely a throughput
lever.  The choice fractions are computed once per tick from the
canonically-ordered global price vector, which is the only cross-shard
coordination each tick needs.  ``executor="process"``
(:mod:`repro.engine.procpool`) pushes the same factorization across
process boundaries: each worker process owns its shard's campaigns and
generators end-to-end and exchanges only per-tick aggregates with the
coordinator (the differential suite in
``tests/engine/test_executor_matrix.py`` asserts the invariance cell by
cell).

**Columnar shards.**  A :class:`_Shard` holds its campaigns as
position-aligned columns (open tasks, submit and end intervals, and each
campaign's coordinates in the shard's *price book*), so a tick's
``Price(n, t)`` lookups are one clamped gather rather than one
``runtime.price`` call per campaign.  The price book is a flat float
array into which each static runtime's table is interned once: a
deadline :class:`~repro.sim.policies.TablePolicyRuntime` contributes its
``(N + 1) x N_T`` Algorithm 2 table, a budget
:class:`~repro.sim.policies.SemiStaticRuntime` an ``(N + 1) x 1`` column
of its Definition 2 sequence indexed by open tasks.  Other runtimes
(adaptive repricers, fixed prices) are still asked per call.  The
coordinator keeps each shard's campaign ids in the shard's position
order (:class:`_ShardIds`), so shards exchange bare price and fraction
columns with it, never id-keyed maps.

**Batched seeding.**  Each campaign's generator is
``default_rng([seed, _CAMPAIGN_STREAM, crc32(campaign_id)])``
(:func:`_campaign_rng`, the reference definition).  A placement batch of
at least :data:`_BATCH_SEED_MIN` campaigns instead replays numpy's
``SeedSequence`` hash on uint32 columns for the whole batch
(:func:`_campaign_seed_words`) and hands each ``PCG64`` its precomputed
seed words through the ``ISeedSequence`` interface — the same state, bit
for bit, at a fraction of the per-campaign cost.
"""

from __future__ import annotations

import concurrent.futures
import time
import zlib
from itertools import compress
from typing import Callable, Sequence, TypeVar

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.core.batch import kernels
from repro.engine.cache import PolicyCache
from repro.engine.campaign import CampaignOutcome
from repro.engine.clock import ClockBackend, EngineBase, EngineResult
from repro.engine.planning import (
    CampaignPlanner,
    _LiveCampaign,
    resolve_planning_means,
)
from repro.engine.routing import ArrivalRouter, default_router
from repro.market.acceptance import AcceptanceModel
from repro.sim.policies import SemiStaticRuntime, TablePolicyRuntime
from repro.sim.stream import SharedArrivalStream
from repro.util.rngstate import generator_from_state, generator_state

__all__ = ["ShardedEngine", "shard_of", "EXECUTORS"]

#: Built-in executor names (any ``concurrent.futures.Executor`` also works).
#: ``"process"`` runs each shard in its own worker process
#: (:mod:`repro.engine.procpool`) — same bit-identical results, true
#: multi-core parallelism.
EXECUTORS = ("serial", "thread", "process")

# Sub-stream tags keeping the coordinator's draws independent of every
# campaign's draws under one run seed.
_MARKET_STREAM = 0x5EED
_CAMPAIGN_STREAM = 0xCA4

#: Placement batches this large or larger are seeded by
#: :func:`_campaign_seed_words`.  Its numpy passes cost ~0.3 ms per call
#: whatever the batch size, against ~20 us per campaign for
#: :func:`_campaign_rng`, so smaller batches take the per-campaign path.
_BATCH_SEED_MIN = 32

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF

#: Interned floats a shard's price book may accumulate beyond twice its
#: size at the last rebuild before it is rebuilt from the live campaigns
#: (tables of retired campaigns are dropped then).
_BOOK_SLACK = 1 << 16

_T = TypeVar("_T")


def shard_of(campaign_id: str, num_shards: int) -> int:
    """Stable shard assignment: CRC-32 of the campaign id, modulo shards.

    Uses CRC rather than :func:`hash` so the partition is reproducible
    across processes (Python string hashing is salted per process).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return zlib.crc32(campaign_id.encode()) % num_shards


def _live_id(live: _LiveCampaign) -> str:
    return live.spec.campaign_id


def _by_shard(
    items: Sequence[_T], key: Callable[[_T], str], num_shards: int
) -> dict[int, list[_T]]:
    """``items`` grouped by the shard owning campaign ``key(item)``, order kept."""
    groups: dict[int, list[_T]] = {}
    for item in items:
        groups.setdefault(shard_of(key(item), num_shards), []).append(item)
    return groups


def _restore_groups(
    placed: Sequence[tuple[_LiveCampaign, dict | None]], num_shards: int
) -> dict[int, list[tuple[_LiveCampaign, dict]]]:
    """Checkpointed ``(live, generator state)`` entries grouped by shard."""
    for live, state in placed:
        if state is None:
            raise ValueError(
                f"sharded bundle lost the generator state of campaign "
                f"{_live_id(live)!r}"
            )
    return _by_shard(placed, lambda entry: _live_id(entry[0]), num_shards)


def _campaign_rng(seed: int, campaign_id: str) -> np.random.Generator:
    """The private generator owning every random decision of one campaign."""
    return np.random.default_rng(
        [seed, _CAMPAIGN_STREAM, zlib.crc32(campaign_id.encode())]
    )


def _entropy_words(value: int) -> list[int]:
    """A non-negative int as ``SeedSequence`` reads it: little-endian uint32s."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _campaign_seed_words(seed: int, crcs: np.ndarray) -> np.ndarray:
    """``PCG64`` seed words of :func:`_campaign_rng` for a batch of crcs.

    Replays ``SeedSequence([seed, _CAMPAIGN_STREAM, crc]).generate_state(
    4, uint64)`` with each uint32 step applied to a whole column of
    campaigns: the entropy words hash into a pool of four, the pool mixes
    every word into every other (and absorbs entropy beyond four words,
    which seeds of 2**64 or more produce), and eight hashed pool reads
    make the output.  Returns a ``(len(crcs), 4)`` uint64 array; row ``i``
    is what ``PCG64`` draws from the seed sequence of campaign ``i``.
    """
    k = len(crcs)
    entropy = [
        np.full(k, word, dtype=np.uint32)
        for word in (*_entropy_words(seed), _CAMPAIGN_STREAM)
    ]
    entropy.append(np.asarray(crcs, dtype=np.uint32))
    while len(entropy) < _POOL_SIZE:
        entropy.append(np.zeros(k, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    with np.errstate(over="ignore"):
        pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        out = np.empty((k, 2 * _POOL_SIZE), dtype=np.uint32)
        hash_const = _INIT_B
        for i in range(2 * _POOL_SIZE):
            value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = value * np.uint32(hash_const)
            out[:, i] = value ^ (value >> np.uint32(16))
    # Consecutive uint32 pairs read as one uint64, as generate_state does.
    return out.view(np.uint64)


class _SeedWords(ISeedSequence):
    """A seed sequence whose ``PCG64`` state words are already computed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words only seed PCG64")
        return self.words


def _campaign_rngs(seed: int, campaign_ids: Sequence[str]) -> list[np.random.Generator]:
    """:func:`_campaign_rng` for each id, batched when that is cheaper.

    The batched generators are bit-identical to the reference ones:
    same ``PCG64`` state, same draws.
    """
    if len(campaign_ids) < _BATCH_SEED_MIN or seed < 0:
        return [_campaign_rng(seed, cid) for cid in campaign_ids]
    crcs = np.fromiter(
        (zlib.crc32(cid.encode()) for cid in campaign_ids),
        dtype=np.uint32,
        count=len(campaign_ids),
    )
    return [
        np.random.Generator(np.random.PCG64(_SeedWords(words)))
        for words in _campaign_seed_words(int(seed), crcs)
    ]


#: The per-campaign columns of a :class:`_Shard`, position-aligned with
#: its ``lives`` and ``rngs`` lists: integer columns, then flags.
_INT_COLUMNS = ("remaining", "submit", "end", "base", "rows", "cols")
_COLUMNS = (*_INT_COLUMNS, "semi", "observes")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# Shared starting values.  A shard replaces its columns and book, never
# writes into them, so every shard can start from these read-only arrays.
_NO_INTS = _frozen(np.empty(0, dtype=np.int64))
_NO_FLAGS = _frozen(np.empty(0, dtype=bool))
# Slot 0 is what per-call runtimes gather before being overwritten.
_EMPTY_BOOK = _frozen(np.full(1, np.nan))


class _Shard:
    """One worker shard: its campaigns as columns, and their per-tick work.

    Position ``i`` of every column describes ``lives[i]`` (whose own
    ``remaining`` is kept equal to the ``remaining`` column) drawing from
    ``rngs[i]``.  ``base``/``rows``/``cols`` place the campaign's static
    price table in ``book``; ``rows == 0`` marks a runtime priced per call.
    All methods are called with the shard as the unit of parallelism —
    each touches only this shard's campaigns, so shards never contend.
    """

    __slots__ = (
        "index", "lives", "rngs", *_COLUMNS,
        "book", "_interned", "_book_size", "_book_floor",
    )

    def __init__(self, index: int):
        self.index = index
        self.lives: list[_LiveCampaign] = []
        self.rngs: list[np.random.Generator] = []
        for name in _COLUMNS:
            setattr(self, name, _NO_INTS if name in _INT_COLUMNS else _NO_FLAGS)
        self._reset_book()

    # ------------------------------------------------------------------
    # Placement and the price book
    # ------------------------------------------------------------------
    def _reset_book(self) -> None:
        self.book = _EMPTY_BOOK
        self._interned: dict = {}
        self._book_size = self._book_floor = 1

    def _intern(self, runtime, pending: list[np.ndarray]) -> tuple[int, int, int]:
        """``(base, N, T)`` of ``runtime``'s table in the book, interning it.

        Tables are keyed by the solved policy object (the cache shares one
        per plan) and semi-static sequences by their prices, so campaigns
        of one shape share one entry.  Other runtimes get ``(0, 0, 1)``.
        """
        kind = type(runtime)
        if kind is TablePolicyRuntime:
            key = id(runtime.policy)
        elif kind is SemiStaticRuntime:
            key = runtime.strategy.prices
        else:
            return 0, 0, 1
        entry = self._interned.get(key)
        if entry is None:
            if kind is TablePolicyRuntime:
                source = runtime.policy
                table = np.asarray(source.price_table(), dtype=float)
            else:
                # Row n (open tasks) posts prices[N - n]; row 0 is never
                # gathered (open tasks clamp to >= 1).
                source = key
                table = np.array(key[-1:] + key[::-1], dtype=float)[:, None]
            entry = (self._book_size, table.shape[0] - 1, table.shape[1], source)
            pending.append(table.ravel())
            self._book_size += table.size
            self._interned[key] = entry
        return entry[:3]

    def _extend_book(self, runtimes) -> np.ndarray:
        """Intern ``runtimes``; their ``(base, N, T)`` rows as an ``(n, 3)`` array."""
        pending: list[np.ndarray] = []
        coords = [self._intern(runtime, pending) for runtime in runtimes]
        if pending:
            self.book = np.concatenate([self.book, *pending])
        return np.array(coords, dtype=np.int64).reshape(-1, 3)

    def _rebuild_book(self) -> None:
        self._reset_book()
        coords = self._extend_book(live.runtime for live in self.lives)
        self.base, self.rows, self.cols = coords.T.copy()
        self._book_floor = self._book_size

    def place(self, lives: Sequence[_LiveCampaign], seed: int) -> None:
        """Take ownership of freshly admitted campaigns, seeding their generators."""
        self.attach(lives, _campaign_rngs(seed, [_live_id(live) for live in lives]))

    def attach(
        self, lives: Sequence[_LiveCampaign], rngs: Sequence[np.random.Generator]
    ) -> None:
        """Append campaigns with the generators they draw from.

        Placement seeds the generators; a checkpoint restore hands back
        their saved states.
        """
        if not lives:
            return
        if self._book_size > 2 * self._book_floor + _BOOK_SLACK:
            self._rebuild_book()
        coords = self._extend_book(live.runtime for live in lives)
        specs = [live.spec for live in lives]
        added = {
            "remaining": [live.remaining for live in lives],
            "submit": [spec.submit_interval for spec in specs],
            "end": [spec.end_interval for spec in specs],
            "base": coords[:, 0],
            "rows": coords[:, 1],
            "cols": coords[:, 2],
            "semi": [isinstance(live.runtime, SemiStaticRuntime) for live in lives],
            "observes": [
                getattr(live.runtime, "observe", None) is not None for live in lives
            ],
        }
        for name in _COLUMNS:
            column = getattr(self, name)
            added_column = np.asarray(added[name], dtype=column.dtype)
            setattr(self, name, np.concatenate([column, added_column]))
        self.lives.extend(lives)
        self.rngs.extend(rngs)

    def _keep(self, keep: np.ndarray) -> None:
        """Drop every position where ``keep`` is False, in every column."""
        flags = keep.tolist()
        self.lives = list(compress(self.lives, flags))
        self.rngs = list(compress(self.rngs, flags))
        for name in _COLUMNS:
            setattr(self, name, getattr(self, name)[keep])

    # ------------------------------------------------------------------
    # Per-tick work
    # ------------------------------------------------------------------
    def prices(self, t: int) -> np.ndarray:
        """Posted rewards for interval ``t``, position-aligned.

        One gather from the price book:
        ``book[base + clamp(remaining, 1, N) * T + min(t - submit, T - 1)]``,
        the clamps :class:`~repro.sim.policies.TablePolicyRuntime` applies
        (a semi-static column has ``T = 1``).  Per-call runtimes then
        overwrite their slots.
        """
        rows = np.minimum(np.maximum(self.remaining, 1), self.rows)
        ages = np.minimum(t - self.submit, self.cols - 1)
        posted = self.book[self.base + rows * self.cols + ages]
        for i in np.flatnonzero(self.rows == 0).tolist():
            live = self.lives[i]
            posted[i] = live.runtime.price(
                live.remaining, t - live.spec.submit_interval
            )
        return posted

    def step(
        self,
        t: int,
        mean_arrivals: float,
        accept_q: np.ndarray,
        consider_q: np.ndarray,
        posted: np.ndarray,
    ) -> tuple[int, int]:
        """Draw the tick's factored acceptances and apply completions.

        ``accept_q``/``consider_q`` are this shard's choice fractions and
        ``posted`` its :meth:`prices`, all position-aligned.  Each campaign
        draws ``Pois(lambda_t * accept_i)`` acceptances and an independent
        considered-but-declined remainder from its own generator — always
        the same two draws per live tick, so the consumed random stream is
        identical whatever the shard layout.  The draws stay in Python
        (they walk each campaign's private generator); applying them —
        capping at open tasks and charging the posted reward — runs
        through the :func:`repro.core.batch.kernels.shard_tick` kernel,
        whose numpy and numba paths are exact-equality-tested.
        Semi-static budget campaigns are charged through their
        per-completion price sequence (:meth:`_LiveCampaign.charge`)
        instead of the kernel's ``done * price`` product.
        Returns the shard's ``(considered, accepted)`` totals (accepted is
        counted before capping at the campaign's open tasks, matching
        :class:`~repro.engine.engine.MarketplaceEngine` accounting).
        """
        if not self.lives:
            return 0, 0
        # The two means, mean * accept and mean * max(consider - accept, 0),
        # elementwise: the same doubles the per-campaign expressions give.
        accept_means = (mean_arrivals * accept_q).tolist()
        declined_means = (
            mean_arrivals * np.maximum(consider_q - accept_q, 0.0)
        ).tolist()
        draws: list[int] = []
        declined_total = 0
        for rng, accept_mean, declined_mean in zip(
            self.rngs, accept_means, declined_means
        ):
            draws.append(rng.poisson(accept_mean))
            declined_total += rng.poisson(declined_mean)
        accepted = np.array(draws, dtype=np.int64)
        done, cost = kernels.shard_tick(accepted, self.remaining, posted)
        hit = np.flatnonzero(done)
        if hit.size:
            for i, d, paid, price, semi in zip(
                hit.tolist(),
                done[hit].tolist(),
                cost[hit].tolist(),
                posted[hit].tolist(),
                self.semi[hit].tolist(),
            ):
                live = self.lives[i]
                live.total_cost += live.charge(d, price) if semi else paid
                live.remaining -= d
                if live.remaining == 0:
                    live.finished_interval = t
            self.remaining = self.remaining - done
        accepted_total = int(accepted.sum())
        return accepted_total + declined_total, accepted_total

    def observe(self, t: int, arrived: int) -> None:
        """Feed the tick's realized marketplace arrivals to adaptive campaigns."""
        for i in np.flatnonzero(self.observes).tolist():
            live = self.lives[i]
            live.runtime.observe(t - live.spec.submit_interval, arrived)

    def retire(self, t: int) -> tuple[np.ndarray, list[CampaignOutcome]]:
        """Drop finished/expired campaigns: their positions and outcomes."""
        gone = (self.remaining == 0) | (t + 1 >= self.end)
        positions = np.flatnonzero(gone)
        if not positions.size:
            return positions, []
        outcomes = [self.lives[i].outcome() for i in positions.tolist()]
        self._keep(~gone)
        return positions, outcomes

    # ------------------------------------------------------------------
    # Cancellation, stats, checkpoints
    # ------------------------------------------------------------------
    def cancel(self, campaign_id: str) -> tuple[int, CampaignOutcome] | None:
        """Withdraw one campaign: its former position and outcome."""
        for i, live in enumerate(self.lives):
            if live.spec.campaign_id == campaign_id:
                keep = np.ones(len(self.lives), dtype=bool)
                keep[i] = False
                self._keep(keep)
                return i, live.outcome(cancelled=True)
        return None

    def live_stats(self) -> list[tuple[str, int, int, bool]]:
        return [
            (_live_id(live), live.remaining, live.num_solves(), live.spec.adaptive)
            for live in self.lives
        ]

    def export(self) -> list[tuple[_LiveCampaign, dict]]:
        return [
            (live, generator_state(rng)) for live, rng in zip(self.lives, self.rngs)
        ]


_NO_IDS = _frozen(np.empty(0, dtype=object))


class _ShardIds:
    """The coordinator's copy of each shard's campaign ids, in position order.

    With it a tick's canonical merge needs nothing but the shards' price
    columns: :meth:`fractions` orders the global price vector by campaign
    id, routes it, and splits the fractions back into per-shard,
    position-aligned columns.  Both shard backends call it, so the float
    summation order — and every byte downstream — is the same for every
    executor and shard count.
    """

    def __init__(self, num_shards: int):
        self.columns = [_NO_IDS] * num_shards

    def count(self) -> int:
        return sum(len(column) for column in self.columns)

    def extend(self, index: int, campaign_ids: list[str]) -> None:
        added = np.empty(len(campaign_ids), dtype=object)
        added[:] = campaign_ids
        self.columns[index] = np.concatenate([self.columns[index], added])

    def drop(self, index: int, positions) -> None:
        if len(positions):
            self.columns[index] = np.delete(self.columns[index], positions)

    def fractions(
        self, router: ArrivalRouter, price_columns: list[np.ndarray]
    ) -> tuple[list[np.ndarray], list[np.ndarray], float]:
        """Per-shard ``(accept, consider)`` columns and the considered mass.

        The router sees the global price vector in campaign-id order, as
        every layout would; the considered mass is summed in that order.
        """
        order = np.argsort(np.concatenate(self.columns), kind="stable")
        accept_q, consider_q = router.fractions(np.concatenate(price_columns)[order])
        accept = np.empty_like(accept_q)
        accept[order] = accept_q
        consider = np.empty_like(consider_q)
        consider[order] = consider_q
        bounds = np.cumsum([len(column) for column in self.columns[:-1]])
        return (
            np.split(accept, bounds),
            np.split(consider, bounds),
            float(consider_q.sum()),
        )


class _FactoredBackend(ClockBackend):
    """Sharded mechanics: factored per-campaign draws mapped over shards.

    Owns the shard array, the coordinator's walk-away generator, and the
    (lazily created) thread pool for the ``"thread"`` executor — pool
    lifetime matches the serving session, so tick stepping does not spin
    a pool per interval.
    """

    def __init__(
        self,
        stream: SharedArrivalStream,
        router: ArrivalRouter,
        num_shards: int,
        seed: int,
        executor: str | concurrent.futures.Executor,
    ):
        self.stream = stream
        self.router = router
        self.num_shards = num_shards
        self.seed = seed
        self.executor = executor
        self.shards = [_Shard(i) for i in range(num_shards)]
        self.ids = _ShardIds(num_shards)
        self.market_rng = np.random.default_rng([seed, _MARKET_STREAM])
        self._own_pool: concurrent.futures.ThreadPoolExecutor | None = None

    def _pool(self) -> concurrent.futures.Executor | None:
        if isinstance(self.executor, concurrent.futures.Executor):
            return self.executor
        if self.executor == "thread" and self.num_shards > 1:
            if self._own_pool is None:
                self._own_pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.num_shards, thread_name_prefix="repro-shard"
                )
            return self._own_pool
        return None

    def _map(self, fn: Callable[[_Shard], _T]) -> list[_T]:
        pool = self._pool()
        if pool is None:
            return [fn(shard) for shard in self.shards]
        return list(pool.map(fn, self.shards))

    def _timed_map(self, fn: Callable[[_Shard], _T], phase: str) -> list[_T]:
        # Per-shard compute seconds, measured inside the worker (thread or
        # the serial loop) so the ops plane can tell a slow shard from a
        # slow coordinator.  Timing is observation-only: the mapped results
        # are returned unchanged, in shard order.
        phases = self.phases
        if phases is None:
            return self._map(fn)

        def timed(shard: _Shard) -> tuple[_T, float]:
            started = time.perf_counter()
            return fn(shard), time.perf_counter() - started

        results: list[_T] = []
        for shard_index, (result, elapsed) in enumerate(self._map(timed)):
            phases.record_shard(shard_index, phase, elapsed)
            results.append(result)
        return results

    def place(self, admitted) -> None:
        for index, lives in _by_shard(admitted, _live_id, self.num_shards).items():
            self.shards[index].place(lives, self.seed)
            self.ids.extend(index, [_live_id(live) for live in lives])

    def num_live(self) -> int:
        return self.ids.count()

    def step(self, t: int, rate_factor: float = 1.0) -> tuple[int, int, int]:
        phases = self.phases
        if phases is not None:
            phase_started = time.perf_counter()
        # Phase 1 — gather posted rewards, then compute the tick's choice
        # fractions over the *canonically ordered* global price vector so
        # float summation (and therefore every fraction) is independent of
        # the shard layout.
        posted = self._timed_map(lambda s: s.prices(t), "price")
        accept, consider, considered_mass = self.ids.fractions(self.router, posted)
        # Modulation scales the *rate*, so every factored sub-stream below
        # (per-campaign acceptances, coordinator walk-aways) sees the same
        # scalar and the split stays invariant to the shard layout.
        mean_t = self.stream.mean(t) * rate_factor
        if phases is not None:
            now = time.perf_counter()
            phases.record("price", now - phase_started)
            phase_started = now
        # The coordinator owns the walk-away remainder of the factored
        # arrival process (drawn every live tick so its stream position
        # never depends on the shard layout).
        walked = int(
            self.market_rng.poisson(mean_t * max(1.0 - considered_mass, 0.0))
        )
        # Phase 2 — factored acceptance draws + completions.
        step_totals = self._timed_map(
            lambda s: s.step(
                t, mean_t, accept[s.index], consider[s.index], posted[s.index]
            ),
            "split",
        )
        considered = sum(c for c, _ in step_totals)
        accepted = sum(a for _, a in step_totals)
        arrived = walked + considered
        if phases is not None:
            now = time.perf_counter()
            phases.record("split", now - phase_started)
            phase_started = now
        # Phase 3 — adaptive campaigns observe the realized marketplace
        # arrivals (walk-aways included).
        self._timed_map(lambda s: s.observe(t, arrived), "observe")
        if phases is not None:
            phases.record("observe", time.perf_counter() - phase_started)
        return arrived, considered, accepted

    def retire(self, t: int) -> list[CampaignOutcome]:
        retired: list[CampaignOutcome] = []
        for index, (positions, outcomes) in enumerate(self._map(lambda s: s.retire(t))):
            self.ids.drop(index, positions)
            retired.extend(outcomes)
        retired.sort(key=lambda o: o.spec.campaign_id)
        return retired

    def cancel(self, campaign_id: str) -> CampaignOutcome | None:
        index = shard_of(campaign_id, self.num_shards)
        cancelled = self.shards[index].cancel(campaign_id)
        if cancelled is None:
            return None
        position, outcome = cancelled
        self.ids.drop(index, [position])
        return outcome

    def live_stats(self) -> list[tuple[str, int, int, bool]]:
        return sorted(row for shard in self.shards for row in shard.live_stats())

    def close(self) -> None:
        if self._own_pool is not None:
            self._own_pool.shutdown()
            self._own_pool = None

    def export_live(self) -> tuple[list[tuple[_LiveCampaign, dict | None]], dict]:
        entries = [entry for shard in self.shards for entry in shard.export()]
        return entries, generator_state(self.market_rng)

    def restore_live(
        self, placed: list[tuple[_LiveCampaign, dict | None]], rng_state: dict
    ) -> None:
        for index, entries in _restore_groups(placed, self.num_shards).items():
            self.shards[index].attach(
                [live for live, _ in entries],
                [generator_from_state(state) for _, state in entries],
            )
            self.ids.extend(index, [_live_id(live) for live, _ in entries])
        self.market_rng = generator_from_state(rng_state)


class ShardedEngine(EngineBase):
    """Multi-shard marketplace engine: same semantics, parallel campaigns.

    Parameters
    ----------
    stream:
        The shared marketplace arrival stream.
    acceptance:
        The marketplace's ``p(c)`` model.
    num_shards:
        Worker shards to partition the campaign set over.
    router:
        Arrival-choice model supplying the per-tick fractions; defaults
        like :class:`~repro.engine.engine.MarketplaceEngine`.
    cache:
        Shared policy cache (admission runs on the coordinator, so the
        cache needs no locking).  Session-scoped, as in the unsharded
        engine.
    planning, planning_means, truncation_eps, batch_solve:
        Forwarded to the shared :class:`CampaignPlanner` — identical
        meaning to the unsharded engine.
    executor:
        ``"serial"``, ``"thread"``, ``"process"``, or any
        ``concurrent.futures.Executor`` instance (e.g. a pre-warmed
        thread pool).  The executor choice never changes results, only
        wall-clock.  ``"process"`` gives each shard its own persistent
        worker process (:mod:`repro.engine.procpool`) that owns the
        shard's campaigns, generators, and tick loop end-to-end and
        exchanges only per-tick aggregates — the executor that actually
        escapes the GIL.  ``concurrent.futures.ProcessPoolExecutor``
        *instances* remain unsupported (a stateless pool cannot own
        mutable shard state; use ``executor="process"`` instead).
    """

    def __init__(
        self,
        stream: SharedArrivalStream,
        acceptance: AcceptanceModel,
        num_shards: int = 2,
        router: ArrivalRouter | None = None,
        cache: PolicyCache | None = None,
        planning: str = "stationary",
        planning_means: np.ndarray | None = None,
        truncation_eps: float | None = 1e-9,
        batch_solve: bool = True,
        executor: str | concurrent.futures.Executor = "thread",
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if isinstance(executor, str) and executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS} or an Executor instance, "
                f"got {executor!r}"
            )
        if isinstance(executor, concurrent.futures.ProcessPoolExecutor):
            raise ValueError(
                "process pools are not supported: shards mutate shared state"
                " (use executor='process' for the shard-owning worker "
                "processes instead)"
            )
        self.acceptance = acceptance
        self.num_shards = num_shards
        self.router = router if router is not None else default_router(acceptance)
        self.cache = cache if cache is not None else PolicyCache()
        self.executor = executor
        planner = CampaignPlanner(
            acceptance=acceptance,
            cache=self.cache,
            planning=planning,
            planning_means=resolve_planning_means(
                planning_means, stream.arrival_means
            ),
            truncation_eps=truncation_eps,
            batch_solve=batch_solve,
        )
        super().__init__(stream, planner)

    # ------------------------------------------------------------------
    # The clock (shared EngineCore; this engine only supplies the backend)
    # ------------------------------------------------------------------
    def _make_backend(self, seed: int, rng: np.random.Generator | None) -> ClockBackend:
        """One factored backend per session; all generators derive from ``seed``."""
        if rng is not None:
            raise ValueError(
                "ShardedEngine derives per-campaign generators from the seed; "
                "pass seed= instead of a Generator"
            )
        if self.executor == "process":
            # Imported lazily: procpool pulls _Shard and _ShardIds from
            # this module, so a top-level import would be circular.
            from repro.engine.procpool import _ProcessBackend

            return _ProcessBackend(
                self.stream, self.router, self.num_shards, seed
            )
        return _FactoredBackend(
            self.stream, self.router, self.num_shards, seed, self.executor
        )

    def run(
        self,
        seed: int = 0,
        rng: np.random.Generator | None = None,
        *,
        keep_outcomes: bool = True,
        outcomes_path=None,
    ) -> EngineResult:
        """Run the clock until every submitted campaign has retired.

        The result is bit-identical for any ``num_shards`` and executor:
        same seed, same per-campaign outcomes (see module docstring).
        The outcome sink lives in the coordinating process — shards hand
        back per-tick retirement batches, never whole-run lists — so
        ``keep_outcomes``/``outcomes_path`` stream exactly as they do
        unsharded.
        """
        return super().run(
            seed=seed,
            rng=rng,
            keep_outcomes=keep_outcomes,
            outcomes_path=outcomes_path,
        )

"""The sweep coordinator: chunks, leases and work-stealing over TCP.

One coordinator owns one sweep: the grid is partitioned once into
hash-stable chunks (:func:`repro.store.sharding.partition_chunks`) and
served to workers over the v2 wire protocol.  A CLAIM hands out the
largest available chunk — preferring never-granted chunks, then
*stealing* chunks whose lease expired (a dead or wedged worker) — with
a :class:`~repro.dist.leases.LeaseManager` grant whose files live
beside the store, so grants survive a coordinator restart.  HEARTBEAT
and PROGRESS renew the lease; COMPLETE retires the chunk and releases
it.  When every chunk is complete the done event fires, further CLAIMs
answer ``{"type": "EMPTY", "done": true}``, and workers drain away.

The coordinator never computes and never aggregates results — workers
write straight into the shared store, which is what makes stealing
safe: re-running a half-finished chunk re-serves the finished configs
from the store and computes only the remainder.

Live observability: PROGRESS reports feed a
:class:`~repro.service.telemetry.MetricsRegistry` (counters per worker
plus sweep-wide gauges), scraped over METRICS as line protocol or over
STATUS as the JSON body ``repro status --json`` renders.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..errors import ProtocolError, ServiceError
from ..obs import tracing as obs_tracing
from ..service import protocol
from ..service.endpoint import DEFAULT_HOST, Endpoint
from ..store.sharding import partition_chunks
from .leases import LeaseManager

__all__ = ["SweepCoordinator", "DEFAULT_CHUNK_SIZE", "DEFAULT_LEASE_S"]

#: Configs per chunk: small enough that stealing a dead worker's chunk
#: is cheap, large enough that claim round-trips stay negligible.
DEFAULT_CHUNK_SIZE = 8

#: Seconds a granted chunk lives without a heartbeat before any idle
#: worker may steal it.
DEFAULT_LEASE_S = 30.0

#: What an idle worker is told to wait before re-CLAIMing when every
#: remaining chunk is under a live lease.
RETRY_S = 0.5


@dataclass
class _Chunk:
    """One unit of work travelling through the coordinator."""

    index: int
    configs: tuple
    done: bool = False
    #: Configs the current holder has reported finished (PROGRESS).
    completed: int = 0
    #: Times this chunk was granted (1 = never stolen).
    grants: int = 0


@dataclass
class _Worker:
    """Per-worker accounting behind STATUS throughput numbers."""

    first_seen: float
    last_seen: float
    chunks_completed: int = 0
    configs_completed: int = 0
    #: Progress inside the currently-held chunk (not yet COMPLETE).
    inflight: int = 0

    def throughput(self, now: float) -> float:
        """Configs per second over this worker's observed lifetime."""
        elapsed = max(now - self.first_seen, 1e-9)
        return (self.configs_completed + self.inflight) / elapsed


class SweepCoordinator(Endpoint):
    """Serves one sweep grid to work-stealing workers.

    ``configs`` is the (already sharded, if requested) grid;
    ``store`` the shared experiment store workers write into (a
    :class:`~repro.store.Store` or directory path).  ``chunk_size``,
    ``lease_s`` and ``clock`` parameterise chunking and lease expiry
    (tests inject a manual clock); ``log`` overrides the structured
    stderr logger.  Start with :meth:`start`, wait on :meth:`wait`,
    stop with :meth:`stop` — or drive requests directly through
    :meth:`dispatch` (the lease tests do).
    """

    process = "sweep coordinator"
    served_by = "a sweep coordinator"
    refer_to = "repro serve"

    def __init__(
        self,
        configs,
        store,
        host: str = DEFAULT_HOST,
        port: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lease_s: float = DEFAULT_LEASE_S,
        clock=time.time,
        log=None,
    ) -> None:
        """See the class docstring."""
        from ..api.engine import _coerce_store

        self.store = _coerce_store(store)
        if self.store is None:
            raise ServiceError("a sweep coordinator needs a store")
        super().__init__(host, port, "repro-sweep-coordinator", log)
        self.configs = tuple(configs)
        self.clock = clock
        self._chunks = [
            _Chunk(index=i, configs=chunk)
            for i, chunk in enumerate(
                partition_chunks(self.configs, chunk_size)
            )
        ]
        self.leases = LeaseManager(
            self.store.root / "leases", ttl_s=lease_s, clock=clock
        )
        self._lock = threading.Lock()
        self._workers: dict = {}
        self._done = threading.Event()
        if not self._chunks:
            self._done.set()
        sweep = "repro_dist_sweep"
        self.metrics.gauge(sweep, "chunks_total").set(len(self._chunks))
        self._m_completed = self.metrics.counter(sweep, "chunks_completed")
        self._m_stolen = self.metrics.counter(sweep, "chunks_stolen")
        self._m_configs = self.metrics.counter(sweep, "configs_completed")
        self.metrics.gauge(sweep, "configs_total").set(len(self.configs))

    # -- lifecycle ---------------------------------------------------------------

    def _open(self) -> dict:
        return {
            "chunks": len(self._chunks),
            "configs": len(self.configs),
            "store": str(self.store.root),
        }

    def _close(self) -> dict:
        return {
            "done": self._done.is_set(),
            "chunks_completed": self._m_completed.value,
        }

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every chunk completes; True when the sweep is done."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        """Whether every chunk has been completed."""
        return self._done.is_set()

    # -- request dispatch --------------------------------------------------------

    def _fold_trace(self, message: dict) -> None:
        """Fold a worker's drained spans into this process's trace."""
        tracer = obs_tracing.active_tracer()
        if tracer is not None and message.get("trace"):
            tracer.add_foreign_spans(message["trace"])

    def _touch(self, worker: str) -> _Worker:
        now = self.clock()
        state = self._workers.get(worker)
        if state is None:
            state = self._workers[worker] = _Worker(
                first_seen=now, last_seen=now
            )
        state.last_seen = now
        return state

    def _chunk(self, message: dict) -> _Chunk:
        index = message["chunk"]
        if not 0 <= index < len(self._chunks):
            raise ProtocolError(
                f"unknown chunk {index} (sweep has {len(self._chunks)})",
                code="unknown_chunk",
            )
        return self._chunks[index]

    def _on_claim(self, message: dict) -> dict:
        self._fold_trace(message)
        worker = message["worker"]
        with self._lock:
            self._touch(worker)
            granted, stolen = self._next_grant(worker)
            if granted is None:
                return protocol.reply(
                    "EMPTY", done=self._done.is_set(), retry_s=RETRY_S
                )
            granted.grants += 1
            granted.completed = 0
            if stolen:
                self._m_stolen.inc()
        self.events.emit(
            "chunk_granted", chunk=granted.index, worker=worker,
            configs=len(granted.configs), stolen=int(stolen),
        )
        reply = protocol.reply(
            "CHUNK",
            chunk=granted.index,
            configs=[config.to_dict() for config in granted.configs],
            lease_s=self.leases.ttl_s,
            store=str(self.store.root),
        )
        if obs_tracing.active_tracer() is not None:
            reply["trace"] = True
        return reply

    def _next_grant(self, worker: str):
        """The best claimable chunk: fresh first, then expired grants.

        Fresh chunks go out largest-first (the classic LPT greedy):
        hash partitioning leaves chunk sizes uneven, and handing the
        big ones out early means the sweep's tail — the last chunks
        finishing while other workers idle — is bounded by the
        *smallest* chunks rather than the largest.  Ties break on
        index, so grant order stays deterministic.

        Returns ``(chunk, stolen)``; ``(None, False)`` when every
        pending chunk is under a live lease (or the sweep is done).
        """
        fresh = []
        reclaimable = []
        for chunk in self._chunks:
            if chunk.done:
                continue
            lease = self.leases.holder(chunk.index)
            if lease is None:
                fresh.append(chunk)
            elif lease.expired(self.clock()):
                reclaimable.append(chunk)
        fresh.sort(key=lambda chunk: (-len(chunk.configs), chunk.index))
        for chunk in fresh:
            if self.leases.claim(chunk.index, worker) is not None:
                return chunk, chunk.grants > 0
        for chunk in reclaimable:
            holder = self.leases.holder(chunk.index)
            if self.leases.claim(chunk.index, worker) is not None:
                self.events.emit(
                    "lease_expired", chunk=chunk.index,
                    worker=holder.worker if holder is not None else "?",
                )
                return chunk, True
        return None, False

    def _on_heartbeat(self, message: dict) -> dict:
        return self._renew(message, completed=None)

    def _on_progress(self, message: dict) -> dict:
        return self._renew(message, completed=message["completed"])

    def _renew(self, message: dict, completed) -> dict:
        self._fold_trace(message)
        worker = message["worker"]
        chunk = self._chunk(message)
        with self._lock:
            state = self._touch(worker)
            if chunk.done:
                # The chunk was stolen and finished by someone else;
                # the renewing worker must abandon its copy.
                raise ProtocolError(
                    f"chunk {chunk.index} already completed",
                    code="stale_lease",
                )
            lease = self.leases.renew(chunk.index, worker)
            if completed is not None:
                delta = max(0, completed - chunk.completed)
                chunk.completed = max(chunk.completed, completed)
                state.inflight += delta
                self._m_configs.inc(delta)
                self.metrics.counter(
                    "repro_dist_worker", "configs_completed",
                    {"worker": worker},
                ).inc(delta)
        return protocol.reply("OK", chunk=chunk.index, expires=lease.expires)

    def _on_complete(self, message: dict) -> dict:
        self._fold_trace(message)
        worker = message["worker"]
        chunk = self._chunk(message)
        with self._lock:
            state = self._touch(worker)
            if chunk.done:
                raise ProtocolError(
                    f"chunk {chunk.index} already completed",
                    code="stale_lease",
                )
            self.leases.release(chunk.index, worker)
            chunk.done = True
            # COMPLETE implies the whole chunk ran, whatever the last
            # PROGRESS said; settle the remainder into the counters.
            delta = len(chunk.configs) - chunk.completed
            chunk.completed = len(chunk.configs)
            state.inflight = 0
            state.chunks_completed += 1
            state.configs_completed += chunk.completed
            self._m_completed.inc()
            if delta > 0:
                self._m_configs.inc(delta)
                self.metrics.counter(
                    "repro_dist_worker", "configs_completed",
                    {"worker": worker},
                ).inc(delta)
            done = all(c.done for c in self._chunks)
        self.events.emit(
            "chunk_completed", chunk=chunk.index, worker=worker,
            configs=len(chunk.configs),
        )
        if done:
            self._done.set()
            self.events.emit(
                "sweep_done", chunks=len(self._chunks),
                configs=len(self.configs),
            )
        return protocol.reply("OK", chunk=chunk.index, done=done)

    # -- observability -----------------------------------------------------------

    def _status_fields(self) -> dict:
        """The coordinator's part of the STATUS body.

        ``chunks`` counts total/pending/leased/completed/stolen;
        ``workers`` maps each worker id to its chunk/config counts and
        configs-per-second throughput; ``configs`` tracks sweep-wide
        completion.
        """
        now = self.clock()
        with self._lock:
            leased = sum(
                1
                for chunk in self._chunks
                if not chunk.done
                and (lease := self.leases.holder(chunk.index)) is not None
                and not lease.expired(now)
            )
            completed = sum(1 for chunk in self._chunks if chunk.done)
            stolen = sum(
                max(0, chunk.grants - 1) for chunk in self._chunks
            )
            workers = {
                name: {
                    "chunks_completed": state.chunks_completed,
                    "configs_completed": state.configs_completed
                    + state.inflight,
                    "throughput_configs_s": state.throughput(now),
                    "last_seen_s": max(0.0, now - state.last_seen),
                }
                for name, state in sorted(self._workers.items())
            }
            configs_done = sum(chunk.completed for chunk in self._chunks)
        return {
            "done": self._done.is_set(),
            "store": str(self.store.root),
            "lease_s": self.leases.ttl_s,
            "chunks": {
                "total": len(self._chunks),
                "pending": len(self._chunks) - completed - leased,
                "leased": leased,
                "completed": completed,
                "stolen": stolen,
            },
            "configs": {
                "total": len(self.configs),
                "completed": configs_done,
            },
            "workers": workers,
        }

"""Persistent partition workers with shared-memory batch transport.

:class:`ShardWorkerPool` is the process backend of
:class:`~repro.monitor.sharding.ShardedSession`, the one engine that runs
``N`` per-partition sessions over a partitioned stream (the flow-hash shards
of a :class:`~repro.monitor.sharding.ShardedSystem` and the nodes of a
:class:`~repro.fleet.runner.FleetRunner` alike).  Each **long-lived worker
process** hosts one or more partitions: it owns their full
:class:`~repro.monitor.session.MonitoringSession` objects (the whole
predict → allocate → shed → execute pipeline, resident across bins) and is
fed its partitions' pre-split sub-batches once per time bin.  The shard
tier runs one process per shard; the fleet packs its nodes round-robin
into fewer processes.  A partition whose config asks for
``num_shards > 1`` runs as a nested in-process sharded session inside its
worker (daemonic workers cannot fork children of their own).

* **Transport** — every message names the partition it is for.  The parent
  packs one bin's sub-batches for a worker back to back into a
  ``multiprocessing.shared_memory`` segment using the canonical
  :func:`repro.monitor.packet.column_layout` wire format (the same column
  layout the trace store mmaps), so no column data is ever pickled.  Two
  segments per worker are used round-robin (double buffering): the parent
  packs bin ``i + 1`` into one slot while the worker still reads bin ``i``
  from the other.  The worker copies the columns out of the segment when
  it builds its :class:`~repro.monitor.packet.Batch` (one contiguous
  memcpy per column), after which the slot is free for reuse — zero
  serialisation, one copy.  Payloads, when present, are variable-length
  Python objects and ride the command pipe instead.
* **Result channel** — every ingested bin answers with one
  :class:`~repro.monitor.pipeline.BinRecord` per hosted partition on a
  per-worker result pipe.  Control messages (capacity changes — including
  the per-bin capacity-rebalance updates computed by the parent from the
  previous bin's records — query arrivals/departures, partial-result
  snapshots) are piggybacked on the command pipe in FIFO order with the
  batches, so they apply at exactly the bin boundary they would
  in-process.
* **Lifecycle** — :meth:`close` flushes every partition session and returns
  each partition's :class:`~repro.monitor.system.ExecutionResult` with the
  wall seconds its ingest took per bin; :meth:`stop` (idempotent, also run
  by ``close`` and ``__del__``) joins the processes and closes *and
  unlinks* every shared-memory segment, so no ``/dev/shm`` entries outlive
  the pool.  A worker dying mid-stream surfaces as a
  :class:`ShardWorkerError` naming the worker, not a hang.

Workers are started with the ``fork`` start method when the platform has
it, so the per-partition configs and the query factory are inherited
rather than pickled (lambda factories keep working).  On spawn-only
platforms the pool still runs, but configs and factories must then be
picklable.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Sequence, Tuple

from .packet import Batch

__all__ = [
    "ShardExecutionWarning",
    "ShardWorkerError",
    "ShardWorkerPool",
    "fork_start_available",
]

#: Smallest shared-memory segment the pool allocates; grown segments get a
#: 25% headroom so a slowly growing stream does not reallocate every bin.
_MIN_SEGMENT_BYTES = 1 << 16
_GROWTH_FACTOR = 1.25

#: Seconds between liveness checks while waiting on a worker response.
_POLL_INTERVAL = 0.05
#: Seconds :meth:`ShardWorkerPool.stop` waits for a worker to exit before
#: terminating it.
_JOIN_TIMEOUT = 5.0


class ShardWorkerError(RuntimeError):
    """A worker process failed (raised, or died without answering)."""


class ShardExecutionWarning(UserWarning):
    """A sharded execution that requested process workers runs in-process.

    Emitted instead of silently degrading, so callers asking for
    ``n_workers > 1`` learn that their session executes serially (e.g. the
    ``inprocess`` backend was chosen, or the host has a single core).
    """


def fork_start_available() -> bool:
    """Whether the host supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without tracker interference.

    The attaching process must not register the segment with the
    ``resource_tracker`` — the parent owns it and unlinks it on pool
    shutdown; a duplicate registration confuses the (fork-shared) tracker
    into dropping the parent's registration or double-unlinking at worker
    exit.  Python 3.13 exposes ``track=False`` for exactly this; older
    versions get the registration suppressed during the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


# ----------------------------------------------------------------------
# Worker process main loop
# ----------------------------------------------------------------------
def _worker_main(worker_index: int, partitions: Sequence[Tuple],
                 query_factory: Optional[Callable], time_bin: float,
                 commands, results) -> None:
    """Host some partitions, resident: open their sessions once, serve bins.

    ``partitions`` lists ``(partition_index, config, name)`` for every
    partition this worker hosts; ``commands`` / ``results`` are the worker
    ends of its pipes.  Every message is handled in FIFO order, which is
    what gives control messages (capacity, query arrivals) their
    bin-boundary semantics: a ``set_capacity`` sent before bin ``i``'s batch
    is queued by the session and applied when bin ``i`` is ingested,
    exactly as in-process.  Requests that expect an answer carry a sequence
    id and are answered with ``(kind, seq, payload)``, where the payload
    holds one entry per hosted partition, in hosted order.
    """
    segments = {}
    try:
        from .sharding import open_partition, partition_profile
        sessions = {index: open_partition(config, query_factory, time_bin,
                                          name)
                    for index, config, name in partitions}
        bin_seconds = {index: [] for index in sessions}
        while True:
            message = commands.recv()
            kind = message[0]
            if kind == "ingest":
                _, seq, segment_name, entries = message
                if segment_name is not None and segment_name not in segments:
                    segments[segment_name] = _attach_segment(segment_name)
                records = []
                for index, n, offset, bin_len, start_ts, payloads in entries:
                    if n:
                        # Copy the columns out of the slot: the batch then
                        # owns its arrays and the parent may repack the slot
                        # as soon as it sees this bin's records.
                        batch = Batch.from_buffer(
                            segments[segment_name].buf[offset:], n,
                            time_bin=bin_len, start_ts=start_ts,
                            payloads=payloads, copy=True)
                    else:
                        batch = Batch.empty(time_bin=bin_len,
                                            start_ts=start_ts,
                                            with_payloads=payloads is not None)
                    started = time.perf_counter()
                    records.append(sessions[index].ingest(batch))
                    bin_seconds[index].append(time.perf_counter() - started)
                results.send(("ingest", seq, records))
            elif kind == "set_capacity":
                sessions[message[1]].set_capacity(message[2])
            elif kind == "add_query":
                sessions[message[1]].add_query(message[2],
                                               start_time=message[3])
            elif kind == "remove_query":
                sessions[message[1]].remove_query(message[2])
            elif kind == "partial":
                results.send((kind, message[1],
                              [session.partial_result()
                               for session in sessions.values()]))
            elif kind == "metrics":
                # Ship the live profilers and sharing stats; the parent
                # folds the per-partition profiles into one summary.
                results.send((kind, message[1],
                              [partition_profile(session)
                               for session in sessions.values()]))
            elif kind == "state":
                # Checkpoint capture: ship the sessions back.  Pickling them
                # over the pipe *is* the snapshot — the parent receives
                # private copies while the live sessions stream on.
                results.send((kind, message[1], list(sessions.values())))
            elif kind == "load_session":
                # Checkpoint restore: adopt the sessions shipped by the
                # parent (unpickling rebuilt them in this process),
                # replacing the fresh ones opened at startup.
                sessions = dict(zip(sessions, message[2]))
                results.send((kind, message[1], [None] * len(sessions)))
            elif kind == "close":
                results.send((kind, message[1],
                              [(session.close(), bin_seconds[index])
                               for index, session in sessions.items()]))
            elif kind == "detach":
                segment = segments.pop(message[1], None)
                if segment is not None:
                    segment.close()
            elif kind == "stop":
                break
            else:  # pragma: no cover - protocol error
                raise ValueError(f"unknown worker command {kind!r}")
    except (EOFError, KeyboardInterrupt):  # parent went away; just exit
        pass
    except BaseException:
        try:
            results.send(("error", worker_index, traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        for segment in segments.values():
            try:
                segment.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass


# ----------------------------------------------------------------------
# Parent-side handles
# ----------------------------------------------------------------------
class _Slot:
    """One shared-memory buffer slot of a worker's double buffer."""

    __slots__ = ("shm", "capacity", "busy_seq")

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.shm = shm
        self.capacity = shm.size
        #: Sequence number of the ingest currently reading from this slot;
        #: the slot may be repacked once that sequence has been acked.
        self.busy_seq: Optional[int] = None


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("index", "partitions", "process", "commands", "results",
                 "slots", "seq", "acked", "pending_unlinks")

    def __init__(self, index: int, partitions: List[int], process, commands,
                 results, slots: List[_Slot]) -> None:
        self.index = index
        #: Partition indices this worker hosts, in hosted order.
        self.partitions = partitions
        self.process = process
        self.commands = commands
        self.results = results
        self.slots = slots
        self.seq = 0
        self.acked = 0
        #: Retired (grown-out-of) segments awaiting unlink, as
        #: ``(shm, fence_seq)``: safe to unlink once ``acked >= fence_seq``
        #: (FIFO command handling guarantees the worker processed the
        #: preceding ``detach`` by then).
        self.pending_unlinks: List[tuple] = []


class ShardWorkerPool:
    """Persistent worker processes hosting the partitions of one stream.

    Parameters
    ----------
    configs:
        Per-partition :class:`~repro.monitor.config.SystemConfig` objects
        (the shard configs of a
        :class:`~repro.monitor.sharding.ShardedSystem`, or a fleet's node
        configs).
    query_factory:
        Zero-argument callable returning fresh query instances; called
        once per partition *inside* its worker, so per-partition query
        state never crosses a process boundary.  ``None`` builds every
        partition's declarative ``config.queries`` instead.
    time_bin, names:
        Session parameters forwarded to each partition's
        ``open_session(time_bin=..., name=names[i])``.
    buffers_per_worker:
        Shared-memory slots per worker (the run-ahead window).
    processes:
        Worker processes to start; partition ``i`` lives in process
        ``i % processes``.  ``None`` starts one process per partition.
    """

    def __init__(self, configs: Sequence, query_factory: Optional[Callable],
                 time_bin: float, names: Sequence[str],
                 buffers_per_worker: int = 2,
                 processes: Optional[int] = None) -> None:
        if len(names) != len(configs):
            raise ValueError("need one session name per partition config")
        count = len(configs)
        processes = count if processes is None else \
            max(1, min(int(processes), count))
        method = "fork" if fork_start_available() else None
        context = multiprocessing.get_context(method)
        self._closed_results: Optional[List] = None
        self._stopped = False
        self._failed: Optional[str] = None
        #: Every segment name this pool ever created (leak tests read it).
        self.created_segments: List[str] = []
        self._workers: List[_Worker] = []
        try:
            for index in range(processes):
                hosted = list(range(index, count, processes))
                command_recv, command_send = multiprocessing.Pipe(duplex=False)
                result_recv, result_send = multiprocessing.Pipe(duplex=False)
                slots = [self._new_slot(_MIN_SEGMENT_BYTES)
                         for _ in range(int(buffers_per_worker))]
                process = context.Process(
                    target=_worker_main,
                    args=(index,
                          [(p, configs[p], names[p]) for p in hosted],
                          query_factory, float(time_bin), command_recv,
                          result_send),
                    daemon=True,
                    name=f"repro-worker-{index}")
                process.start()
                # The worker owns these ends now; closing the parent's
                # copies keeps fd counts flat across many pools.
                command_recv.close()
                result_send.close()
                self._workers.append(_Worker(index, hosted, process,
                                             command_send, result_recv,
                                             slots))
        except BaseException:
            self.stop()
            raise
        #: The worker hosting each partition.
        self._host = [self._workers[p % processes] for p in range(count)]

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self._host)

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _new_slot(self, nbytes: int) -> _Slot:
        shm = shared_memory.SharedMemory(
            create=True, size=max(int(nbytes), _MIN_SEGMENT_BYTES))
        self.created_segments.append(shm.name)
        return _Slot(shm)

    # ------------------------------------------------------------------
    # Failure plumbing
    # ------------------------------------------------------------------
    def _fail(self, message: str) -> "ShardWorkerError":
        self._failed = message
        self.stop()
        return ShardWorkerError(message)

    def _check_usable(self) -> None:
        if self._failed is not None:
            raise ShardWorkerError(self._failed)
        if self._stopped:
            raise ShardWorkerError("the shard worker pool has been stopped")

    def _send(self, worker: _Worker, message: tuple) -> None:
        try:
            worker.commands.send(message)
        except (BrokenPipeError, OSError):
            raise self._fail(
                f"shard worker {worker.index} died (its command channel is "
                "closed); the sharded execution cannot continue") from None

    def _recv(self, worker: _Worker):
        """Next response from ``worker``; raises if the worker died."""
        while True:
            try:
                if worker.results.poll(_POLL_INTERVAL):
                    response = worker.results.recv()
                    break
            except (EOFError, OSError):
                raise self._fail(
                    f"shard worker {worker.index} died mid-stream without "
                    "reporting a result") from None
            if not worker.process.is_alive():
                # One final drain: the worker may have answered (or sent
                # its error report) just before exiting.
                try:
                    if worker.results.poll(0):
                        response = worker.results.recv()
                        break
                except (EOFError, OSError):
                    pass
                raise self._fail(
                    f"shard worker {worker.index} died mid-stream "
                    f"(exit code {worker.process.exitcode}) without "
                    "reporting a result")
        if response[0] == "error":
            raise self._fail(
                f"shard worker {response[1]} raised:\n{response[2]}")
        return response

    def _note_ack(self, worker: _Worker, seq: int) -> None:
        worker.acked = max(worker.acked, int(seq))
        while worker.pending_unlinks and \
                worker.pending_unlinks[0][1] <= worker.acked:
            shm, _ = worker.pending_unlinks.pop(0)
            self._release_segment(shm)

    @staticmethod
    def _release_segment(shm: shared_memory.SharedMemory) -> None:
        try:
            shm.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest_async(self, parts: Sequence[Batch]) -> List[int]:
        """Ship one bin's sub-batches (one per partition); no waiting.

        Returns one sequence id per worker.  With rebalancing off the
        caller may run up to ``buffers_per_worker`` bins ahead per worker
        (the slot acquisition below enforces exactly that window); pair
        with :meth:`wait_records` for lockstep semantics.
        """
        self._check_usable()
        if len(parts) != len(self._host):
            raise ValueError(f"need one sub-batch per partition: got "
                             f"{len(parts)} for {len(self._host)}")
        return [self._ship(worker, [(p, parts[p]) for p in worker.partitions])
                for worker in self._workers]

    def _ship(self, worker: _Worker, parts: List[Tuple[int, Batch]]) -> int:
        """Pack ``parts`` back to back into one slot; send one message."""
        worker.seq += 1
        seq = worker.seq
        sizes = [batch.buffer_nbytes() if len(batch) else 0
                 for _, batch in parts]
        needed = sum(sizes)
        segment_name = None
        if needed:
            slot = worker.slots[seq % len(worker.slots)]
            # Flow control: the slot is free only once the bin that last
            # used it has been answered.
            while slot.busy_seq is not None and worker.acked < slot.busy_seq:
                self._note_ack(worker, self._recv(worker)[1])
            if needed > slot.capacity:
                # Grow: retire the old segment (unlink deferred until the
                # worker has provably moved past the detach message).
                self._send(worker, ("detach", slot.shm.name))
                worker.pending_unlinks.append((slot.shm, seq))
                slot = self._new_slot(int(needed * _GROWTH_FACTOR))
                worker.slots[seq % len(worker.slots)] = slot
            slot.busy_seq = seq
            segment_name = slot.shm.name
        entries = []
        offset = 0
        for (partition, batch), size in zip(parts, sizes):
            if size:
                batch.pack_into(slot.shm.buf[offset:offset + size])
            entries.append((partition, len(batch), offset, batch.time_bin,
                            batch.start_ts, batch.payloads))
            offset += size
        self._send(worker, ("ingest", seq, segment_name, entries))
        return seq

    def wait_records(self, seqs: Sequence[int]) -> List:
        """Block until every worker answers ``seqs``; records per partition.

        Responses arrive in FIFO order; records overtaken while waiting
        (possible only when the caller ran ahead with :meth:`ingest_async`)
        are acknowledged and dropped — their bins are already folded into
        the worker sessions' own results.
        """
        self._check_usable()
        records = [None] * len(self._host)
        for worker, seq in zip(self._workers, seqs):
            answers = self._await_payload(worker, seq, "ingest")
            for partition, record in zip(worker.partitions, answers):
                records[partition] = record
        return records

    def ingest(self, parts: Sequence[Batch]) -> List:
        """Lockstep helper: one bin across all partitions, records returned.

        All sub-batches are shipped first so the workers compute the bin
        concurrently; the parent then gathers one record per partition.
        """
        return self.wait_records(self.ingest_async(parts))

    # ------------------------------------------------------------------
    # Control messages (FIFO with the batches: bin-boundary semantics)
    # ------------------------------------------------------------------
    def set_capacity(self, partition: int, cycles_per_second: float) -> None:
        self._check_usable()
        self._send(self._host[partition],
                   ("set_capacity", partition, float(cycles_per_second)))

    def add_query(self, partition: int, query, start_time=None) -> None:
        self._check_usable()
        self._send(self._host[partition],
                   ("add_query", partition, query, start_time))

    def remove_query(self, partition: int, name: str) -> None:
        self._check_usable()
        self._send(self._host[partition], ("remove_query", partition, name))

    # ------------------------------------------------------------------
    # Results and lifecycle
    # ------------------------------------------------------------------
    def _request(self, kind: str, payloads: Optional[Sequence] = None
                 ) -> List:
        """One ``kind`` request per worker; answers in partition order.

        ``payloads`` (one per partition) ride along, each to the worker
        hosting its partition.  FIFO with the batches, so every answer
        lands at a bin boundary.
        """
        self._check_usable()
        seqs = []
        for worker in self._workers:
            worker.seq += 1
            message = (kind, worker.seq)
            if payloads is not None:
                message += ([payloads[p] for p in worker.partitions],)
            self._send(worker, message)
            seqs.append(worker.seq)
        answers = [None] * len(self._host)
        for worker, seq in zip(self._workers, seqs):
            for partition, answer in zip(
                    worker.partitions,
                    self._await_payload(worker, seq, kind)):
                answers[partition] = answer
        return answers

    def _await_payload(self, worker: _Worker, seq: int, kind: str):
        while True:
            response = self._recv(worker)
            self._note_ack(worker, response[1])
            if response[0] == kind and response[1] == seq:
                return response[2]

    def partial_results(self) -> List:
        """Accuracy-so-far snapshot of every partition (sessions keep
        running)."""
        return self._request("partial")

    def metrics(self) -> List:
        """Per-partition ``(profiler, sharing_stats)`` pairs (sessions keep
        running)."""
        return self._request("metrics")

    def session_states(self) -> List:
        """Checkpoint capture: every resident partition session, copied out
        at a bin boundary; the workers keep streaming afterwards."""
        return self._request("state")

    def load_sessions(self, sessions: Sequence) -> None:
        """Checkpoint restore: replace every resident partition session.

        Each worker adopts the session objects shipped to it (state built
        by a prior execution), discarding the fresh ones it opened at
        startup; the ack keeps the restore synchronous, so the caller may
        ingest immediately after.
        """
        if len(sessions) != len(self._host):
            raise ValueError(
                f"need one session per partition: got {len(sessions)} "
                f"for {len(self._host)} partitions")
        self._request("load_session", sessions)

    def close(self) -> List[Tuple]:
        """Flush every partition session.

        Returns ``(execution result, per-bin ingest seconds)`` per
        partition.  Idempotent: later calls return the same objects.  The
        pool is stopped (processes joined, segments unlinked) before
        returning.
        """
        if self._closed_results is None:
            self._closed_results = self._request("close")
            self.stop()
        return self._closed_results

    def stop(self) -> None:
        """Terminate the workers and release every shared resource.

        Idempotent and unconditional: safe to call on a half-constructed,
        failed or already-closed pool (``__del__`` does).
        """
        if self._stopped:
            return
        self._stopped = True
        for worker in self._workers:
            try:
                worker.commands.send(("stop",))
            except Exception:
                pass
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for worker in self._workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=_JOIN_TIMEOUT)
        for worker in self._workers:
            for conn in (worker.commands, worker.results):
                try:
                    conn.close()
                except Exception:
                    pass
            for slot in worker.slots:
                self._release_segment(slot.shm)
            for shm, _ in worker.pending_unlinks:
                self._release_segment(shm)
            worker.pending_unlinks = []

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.stop()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.stop()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stopped" if self._stopped else "running"
        return (f"ShardWorkerPool(partitions={self.num_partitions}, "
                f"processes={len(self._workers)}, {state}, "
                f"pid={os.getpid()})")

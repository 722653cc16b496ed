"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload has a timed :meth:`~Workload.setup` (trace generation or
store write, capacity calibration with its unshedded reference run, system
build, and the start of the live session, worker pool or daemon), a
:meth:`~Workload.run_pass` that ingests the whole trace once through a
fresh session and times every bin, and :meth:`~Workload.checks` that
verify the outputs outside the timed region.

Every pass ingests freshly built, independent per-bin batches: the
program's per-batch memo caches (filter results, flow hashes) start cold
in every bin of every pass, as they would on live traffic.

Outside the timed intervals a pass runs calibration units (``host.py``)
after every bin, or on ``serve-paced`` after every ops round, so that its
timings can be read in reference-host seconds.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import multiprocessing
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import SystemConfig, TenantGroup
from repro.core.features import FeatureExtractor
from repro.core.prediction import CyclePredictor
from repro.core.shedding import LoadSheddingController
from repro.experiments import runner
from repro.monitor.packet import Batch, PacketTrace
from repro.monitor.pipeline import DEFAULT_STAGES, BinRecord
from repro.monitor.sharding import ShardedSystem
from repro.monitor.workers import ShardWorkerPool
from repro.queries import QUERY_CLASSES
from repro.serve import MonitorDaemon, ReplayFeed
from repro.testing import assert_results_identical
from repro.traffic.models import load_preset
from repro.traffic.trace_io import TraceStore, save_trace_store

from host import REFERENCE_UNIT_S, ReferenceClock, calibrate, \
    calibration_unit
from measure import median, open_loop, speed_factors
from spans import Tracer

#: Bin length (the paper's 100 ms).
TIME_BIN = 0.1
#: Overload factor K: the evaluated system gets (1 - K) of the capacity
#: an unshedded run needs (paper Section 5.4).
OVERLOAD = 0.5

#: Chapter 5 nine-query mix in three weighted tenant groups, so the
#: two-tier (tenant, then query) allocator runs.
TENANTS = (
    TenantGroup(name="ops", queries=("counter", "flows", "high-watermark"),
                weight=2.0, min_rate=0.05),
    TenantGroup(name="research",
                queries=("top-k", "super-sources", "autofocus")),
    TenantGroup(name="security",
                queries=("application", "pattern-search", "trace")),
)

#: The P2P detector sheds its own load (Chapter 6 custom shedding).
DENSE_QUERIES = ("counter", "flows", "top-k", "application",
                 "pattern-search", ("p2p-detector", {"custom_shedding": True}))
SHARDED_QUERIES = ("counter", "flows", "top-k", "p2p-detector",
                   "application")
SHARDS = 2
#: Generator knobs that keep traffic volume alike across seeds: lighter
#: flow-size tails, calm per-second rate noise and short flows (so the
#: ramp-up before the first flows end is brief).  Every workload keeps its
#: preset's application mix, host skew and payload model.
STEADY_TRAFFIC = dict(rate_noise=0.05, pareto_shape=2.5,
                      mean_flow_duration=0.5)
#: Seconds of generated traffic dropped from the front of every trace:
#: flows ramp up until the first ones end, and a monitor attached to a
#: busy link never sees that ramp.
WARMUP_S = 1.0
#: Packets per chunk of the streamed trace store, and chunks kept resident.
CHUNK_PACKETS = 16384
RESIDENT_CHUNKS = 4
#: Open-loop rate of the paced serve feed in packets per wall second,
#: whatever the seed's traffic volume: about 20 bins/s, a quarter of what
#: ``small-bins`` sustains offline on a 2-vCPU host, so the ingest thread,
#: the event loop and the ops client together stay well short of
#: saturating the interpreter even when the host slows down.
SERVE_PKT_PER_S = 6800.0
#: The closed-loop ops client starts a round when a bin's ingest begins
#: (skipping bins that began during the previous round), so every round
#: meets ingest at the same point of the bin instead of at a phase that
#: drifts with the host's speed.  It gives up waiting for a bin after:
OPS_BIN_WAIT_S = 1.0
#: The ops client stops this many bins before the feed ends, so no request
#: is in flight when the daemon shuts its API down.
OPS_STOP_MARGIN_BINS = 6
OPS_PROBE_QUERY = "ops-probe"
OPS_TIMEOUT_S = 5.0
#: Calibration units the ops client runs after each round, before it
#: waits for the next bin: the daemon is idle then on a host that keeps up.
OPS_CALIBRATION_UNITS = 2


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Context:
    """What one setup produced; the timed passes reuse it."""

    trace: object
    capacity: float
    reference: object
    config: SystemConfig
    n_bins: int
    packets: int
    live: object = None
    store_path: Optional[Path] = None


@dataclass
class PassResult:
    traced: bool
    packets: int
    #: Wall seconds of the ingest loop, in-loop ops calls excluded.
    seconds: float
    #: ``seconds`` in reference-host seconds (serve: the wall seconds of
    #: the open loop, whose rate the feed sets).
    ref_seconds: float
    #: Per-bin latency in seconds (serve: from the bin's due time).
    latencies: List[float]
    #: Per-bin host speed factor (``measure.speed_factors``).
    speed: List[float]
    #: Per-bin: finished within one bin period.
    ontime: List[bool]
    #: (endpoint, seconds, ok) of every ops request.
    ops: List[Tuple[str, float, bool]]
    #: Seconds of every ops round (each endpoint once, in a fixed order).
    rounds: List[float]
    #: Host speed factor of every ops round.
    round_speed: List[float]
    result: object
    metrics: Dict
    extra: Dict = field(default_factory=dict)


def steady_trace(preset: str, seed: int, duration: float,
                 flow_arrival_rate: float, **knobs) -> PacketTrace:
    """``duration`` seconds of a preset's traffic in steady state
    (``knobs`` override further generator settings)."""
    trace = load_preset(preset, seed=seed, duration=duration + WARMUP_S,
                        flow_arrival_rate=flow_arrival_rate,
                        **{**STEADY_TRAFFIC, **knobs})
    packets = trace.packets
    keep = np.flatnonzero(packets.ts >= packets.ts[0] + WARMUP_S)
    return PacketTrace(_detached(packets.select(keep)), name=trace.name)


def _detached(batch: Batch, start_ts: Optional[float] = None) -> Batch:
    """A copy of ``batch`` that shares no arrays and no memo caches."""
    return Batch(
        ts=batch.ts.copy(), src_ip=batch.src_ip.copy(),
        dst_ip=batch.dst_ip.copy(), src_port=batch.src_port.copy(),
        dst_port=batch.dst_port.copy(), proto=batch.proto.copy(),
        size=batch.size.copy(),
        payloads=None if batch.payloads is None else list(batch.payloads),
        time_bin=TIME_BIN, start_ts=start_ts)


def fresh_bins(trace) -> List[Batch]:
    """The trace's bins as independent batches with cold memo caches."""
    return [_detached(batch, batch.start_ts)
            for batch in trace.batch_list(TIME_BIN)]


class _Bins:
    """A recorded trace of prebuilt bins, replayable by ``ReplayFeed``."""

    def __init__(self, bins: List[Batch], name: str) -> None:
        self._bins = bins
        self.name = name

    def batch_list(self, time_bin: float = TIME_BIN) -> List[Batch]:
        return self._bins

    def batches(self, time_bin: float = TIME_BIN):
        return iter(self._bins)


# ----------------------------------------------------------------------
# Tracing of the program's layers (installed only around traced passes)
# ----------------------------------------------------------------------
def trace_pipeline(tracer: Tracer) -> None:
    """Spans for the in-process pipeline and the modules it calls."""
    for stage in DEFAULT_STAGES:
        cls = type(stage)
        tracer.wrap(cls, "run", f"pipeline.{cls.__name__}")
    for attr in ("extract", "commit"):
        tracer.wrap(FeatureExtractor, attr, "features.extract")
    for cls in CyclePredictor.__subclasses__():
        for attr in ("predict", "observe"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "prediction.predict")
    for attr in ("plan", "plan_arrays"):
        tracer.wrap(LoadSheddingController, attr, "allocation")

    def count_packets(args, result, seconds):
        tracer.count("query.packets", len(args[1]))

    def count_custom(args, result, seconds):
        tracer.count("query.packets", len(args[1]))
        tracer.count("shedding.custom_s", seconds)

    for kind, cls in QUERY_CLASSES.items():
        tracer.wrap(cls, "update", f"query.{kind}", count_packets)
        if "shed_load" in cls.__dict__:
            tracer.wrap(cls, "shed_load", f"query.{kind}", count_custom)


def trace_sharding(tracer: Tracer) -> None:
    """Spans for the parent side of a sharded session."""

    def count_skew(args, parts, seconds):
        sizes = [len(part) for part in parts]
        mean = sum(sizes) / len(sizes)
        if mean > 0:
            tracer.count("sharding.skew_sum", max(sizes) / mean)
            tracer.count("sharding.skew_bins", 1)

    def count_bytes(args, nbytes, seconds):
        tracer.count("workers.bytes", nbytes)

    tracer.wrap(Batch, "partition", "packet.partition", count_skew)
    tracer.wrap(Batch, "buffer_nbytes", "workers.pack", count_bytes)
    tracer.wrap(ShardWorkerPool, "ingest", "workers.wait")
    tracer.wrap(BinRecord, "merge", "sharding.merge")


def _ops_round(session) -> List[Tuple[str, float, bool]]:
    """One round of read-side ops on a live session, between two bins.

    The in-process work behind the daemon's ``/status`` (a partial-result
    snapshot with every query's sampling-rate series) and ``/metrics``
    endpoints; on a sharded session both cross the worker pipes.
    """
    begin = perf_counter()
    snapshot = session.partial_result()
    for name in snapshot.query_logs:
        snapshot.rate_series(name)
    snapshot.mean_sampling_rate()
    middle = perf_counter()
    session.metrics
    end = perf_counter()
    return [("status", middle - begin, True), ("metrics", end - middle, True)]


@dataclass
class _Loop:
    """What :func:`_ingest_loop` measured."""

    seconds: float
    ref_seconds: float
    latencies: List[float]
    speed: List[float]
    ops: List[Tuple[str, float, bool]]
    rounds: List[float]


def _ingest_loop(session, next_batch: Callable[[int], Batch], n_bins: int,
                 tracer: Optional[Tracer]) -> _Loop:
    """Ingest ``n_bins`` bins with one ops round and one calibration unit
    after each bin.

    Each bin's loop time (fetching the batch and ingesting it) and its ops
    round are scaled by the host speed of the calibration units around it.
    """
    latencies, segments, units, ops, rounds = [], [], [], [], []
    for index in range(n_bins):
        fetch = perf_counter()
        batch = next_batch(index)
        begin = perf_counter()
        if tracer is None:
            session.ingest(batch)
        else:
            token = tracer.open("session.ingest", bin=index)
            try:
                session.ingest(batch)
            finally:
                tracer.close(token)
        end = perf_counter()
        latencies.append(end - begin)
        segments.append(end - fetch)
        requests = _ops_round(session)
        ops.extend(requests)
        rounds.append(sum(request[1] for request in requests))
        units.append(calibration_unit())
    speed = speed_factors(units, REFERENCE_UNIT_S)
    return _Loop(seconds=sum(segments),
                 ref_seconds=sum(s * f for s, f in zip(segments, speed)),
                 latencies=latencies, speed=speed, ops=ops, rounds=rounds)


def _offline_pass(loop: _Loop, tracer: Optional[Tracer], result, metrics,
                  extra: Optional[Dict] = None) -> PassResult:
    return PassResult(
        traced=tracer is not None, packets=result.total_packets,
        seconds=loop.seconds, ref_seconds=loop.ref_seconds,
        latencies=loop.latencies, speed=loop.speed,
        ontime=[latency <= TIME_BIN for latency in loop.latencies],
        ops=loop.ops, rounds=loop.rounds, round_speed=loop.speed,
        result=result, metrics=metrics, extra=extra or {})


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One benchmark workload; subclasses fix the trace and the system."""

    name = ""

    def build_trace(self, seed: int):
        raise NotImplementedError

    def make_config(self, seed: int, capacity: float) -> SystemConfig:
        raise NotImplementedError

    def query_specs(self) -> tuple:
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path,
              clock: ReferenceClock) -> Context:
        """Set up, timing each step on ``clock``."""
        trace = clock.step(self.build_trace, seed)
        store_path = clock.step(self.write_store, trace,
                                workdir / f"store-{seed}")
        capacity, reference = clock.step(
            lambda: runner.calibrate_capacity(self.query_specs(), trace,
                                              time_bin=TIME_BIN))
        config = self.make_config(seed, capacity * (1.0 - OVERLOAD))
        ctx = Context(trace=trace, capacity=capacity,
                      reference=reference, config=config,
                      n_bins=trace.num_batches(TIME_BIN),
                      packets=len(trace), store_path=store_path)
        ctx.live = clock.step(self.start, ctx)
        return ctx

    def write_store(self, trace, path: Path) -> Optional[Path]:
        """Persist the trace for workloads that replay it from disk."""
        return None

    def start(self, ctx: Context):
        """Start the live execution object (timed as part of set-up)."""
        return ctx.config.build().open_session(time_bin=TIME_BIN,
                                               name=self.name)

    def teardown(self, ctx: Context) -> None:
        if ctx.live is not None:
            ctx.live.close()
            ctx.live = None

    def run_pass(self, ctx: Context, tracer: Optional[Tracer]) -> PassResult:
        bins = fresh_bins(ctx.trace)
        session = ctx.config.build().open_session(time_bin=TIME_BIN,
                                                  name=self.name)
        if tracer is not None:
            trace_pipeline(tracer)
        try:
            loop = _ingest_loop(session, bins.__getitem__, len(bins), tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        metrics = session.metrics
        result = session.close()
        return _offline_pass(loop, tracer, result, metrics)

    def checks(self, ctx: Context, passes: List[PassResult]) -> List[Check]:
        """Every pass bit-identical to the first (report.py adds the
        checks common to all workloads)."""
        checks = []
        first = passes[0].result
        for index, other in enumerate(passes[1:], start=1):
            checks.append(_identical(
                f"pass {index} identical to pass 0 (traced={other.traced})",
                first, other.result))
        return checks


def _identical(name: str, first, second) -> Check:
    try:
        assert_results_identical(first, second, name)
    except AssertionError as exc:
        return Check(name, False, f"results differ: {exc!r}")
    return Check(name, True)


class SmallBins(Workload):
    """Few packets per bin, nine queries in three tenant groups."""

    name = "small-bins"
    duration = 24.0

    def build_trace(self, seed: int):
        return steady_trace("CESCA-II", seed, self.duration,
                            flow_arrival_rate=243.0)

    def query_specs(self) -> tuple:
        return SystemConfig(tenants=TENANTS).queries

    def make_config(self, seed: int, capacity: float) -> SystemConfig:
        return runner.system_config(tenants=TENANTS, strategy="mmfs_cpu",
                                    seed=seed, cycles_per_second=capacity)


class DenseBins(Workload):
    """Many payload packets per bin, six flat queries."""

    name = "dense-bins"

    def build_trace(self, seed: int):
        # Flat load: the preset's 4 s load sinusoid would span the whole
        # 40-bin trace, spreading per-bin work over a factor of two with
        # most bins near the extremes, where the median of so few bins
        # moves with the seed.
        return steady_trace("CESCA-II", seed, 4.0, flow_arrival_rate=11300.0,
                            burstiness=0.0)

    def query_specs(self) -> tuple:
        return DENSE_QUERIES

    def make_config(self, seed: int, capacity: float) -> SystemConfig:
        return runner.system_config(queries=DENSE_QUERIES,
                                    strategy="mmfs_cpu", seed=seed,
                                    cycles_per_second=capacity)


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ShardedStream(Workload):
    """A trace store streamed into two worker-process shards."""

    name = "sharded-stream"

    def build_trace(self, seed: int):
        return steady_trace("CESCA-I", seed, 12.0, flow_arrival_rate=2290.0)

    def query_specs(self) -> tuple:
        return SHARDED_QUERIES

    def make_config(self, seed: int, capacity: float) -> SystemConfig:
        return runner.system_config(
            queries=SHARDED_QUERIES, seed=seed, cycles_per_second=capacity,
            num_shards=SHARDS, shard_rebalance=True, shard_backend="workers")

    def write_store(self, trace, path: Path) -> Optional[Path]:
        shutil.rmtree(path, ignore_errors=True)
        save_trace_store(trace, path, time_bin=TIME_BIN)
        return path

    def start(self, ctx: Context):
        sharded = ShardedSystem(config=ctx.config, n_workers=SHARDS,
                                respect_cores=False)
        return sharded.open_session(time_bin=TIME_BIN, name=self.name)

    def run_pass(self, ctx: Context, tracer: Optional[Tracer]) -> PassResult:
        streaming = TraceStore(ctx.store_path).streaming(
            chunk_packets=CHUNK_PACKETS, max_resident_chunks=RESIDENT_CHUNKS,
            prefetch=True)
        session = self.start(ctx)
        if session.backend != "workers":
            raise RuntimeError(f"sharded session runs on {session.backend!r},"
                               " expected the 'workers' backend")
        with session:
            bins = iter(streaming.batches(TIME_BIN))
            if tracer is None:
                def next_batch(index):
                    return next(bins)
            else:
                def next_batch(index):
                    token = tracer.open("trace_io.read", bin=index)
                    try:
                        return next(bins)
                    finally:
                        tracer.close(token)
                trace_sharding(tracer)
            try:
                loop = _ingest_loop(session, next_batch, ctx.n_bins, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            children_kb = sum(_vm_hwm_kb(child.pid)
                              for child in multiprocessing.active_children())
            metrics = session.metrics
            result = session.close()
        streaming.close()
        return _offline_pass(loop, tracer, result, metrics, extra={
            "children_hwm_kb": children_kb,
            "chunk_hits": streaming.cache_hits,
            "chunk_misses": streaming.cache_misses})

    def checks(self, ctx: Context, passes: List[PassResult]) -> List[Check]:
        checks = super().checks(ctx, passes)
        inprocess = ShardedSystem(
            config=ctx.config.replace(shard_backend="inprocess"),
            n_workers=1).run(TraceStore(ctx.store_path), time_bin=TIME_BIN)
        checks.append(_identical(
            "workers backend bit-identical to the in-process sharded run",
            inprocess, passes[0].result))
        return checks


class _StampedReplayFeed(ReplayFeed):
    """A paced ``ReplayFeed`` that records its schedule origin and lag."""

    def __init__(self, source, pace: float) -> None:
        super().__init__(source, time_bin=TIME_BIN, pace=pace)
        self.first_due: Optional[float] = None
        self.lag_max = 0.0

    async def _pace_gate(self, pace: float, wall_start: float,
                         bins_out: int) -> None:
        if self.first_due is None:
            self.first_due = wall_start
        await super()._pace_gate(pace, wall_start, bins_out)
        self.lag_max = max(self.lag_max, self.lag_seconds)


def _request(port: int, method: str, path: str, body) -> bool:
    """One ops request on its own connection (the API closes each one)."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=OPS_TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        response.read()
        return 200 <= response.status < 300
    except (OSError, http.client.HTTPException):
        return False
    finally:
        conn.close()


class _DaemonRun:
    """A ``MonitorDaemon`` serving on a background thread."""

    def __init__(self, config: SystemConfig, bins: List[Batch], name: str,
                 bins_per_s: float, tracer: Optional[Tracer] = None) -> None:
        self.feed = _StampedReplayFeed(_Bins(bins, name),
                                       pace=bins_per_s * TIME_BIN)
        self.daemon = MonitorDaemon(config, self.feed, name=name)
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.offloads: List[int] = []
        #: Bins whose ingest has begun.
        self.begun = 0
        self._begun_cv = threading.Condition()
        #: Session metrics taken right after the last bin (the daemon
        #: closes the session on its way out).
        self.final_metrics: Optional[Dict] = None
        session = self.daemon.session
        ingest = session.ingest
        chunk = self.daemon._ingest_chunk

        def stamped_ingest(batch):
            start = time.monotonic()
            with self._begun_cv:
                self.begun += 1
                self._begun_cv.notify_all()
            token = None if tracer is None else \
                tracer.open("session.ingest", bin=len(self.starts))
            try:
                return ingest(batch)
            finally:
                if token is not None:
                    tracer.close(token)
                self.starts.append(start)
                self.ends.append(time.monotonic())
                if len(self.ends) == len(bins):
                    self.final_metrics = session.metrics

        def counted_chunk(batches):
            self.offloads.append(len(batches))
            return chunk(batches)

        session.ingest = stamped_ingest
        self.daemon._ingest_chunk = counted_chunk
        self._box: Dict = {}
        self._thread = threading.Thread(target=self._drive,
                                        name=f"perfbench-{name}")

    def _drive(self) -> None:
        try:
            self._box["result"] = asyncio.run(self.daemon.run())
        except BaseException as exc:  # reported by join()
            self._box["error"] = exc

    def start(self, timeout: float = 10.0) -> int:
        self._thread.start()
        deadline = time.monotonic() + timeout
        while self.daemon.bound_port == 0:
            if not self._thread.is_alive() or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("daemon did not bind its ops API")
            time.sleep(0.001)
        return self.daemon.bound_port

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def wait_for_bin(self, seen: int, timeout: float) -> int:
        """Wait until more than ``seen`` bins have begun; returns how many
        have (``seen`` again on timeout)."""
        with self._begun_cv:
            self._begun_cv.wait_for(lambda: self.begun > seen, timeout)
            return self.begun

    def stop(self) -> None:
        self.daemon.stop()
        self.join()

    def join(self, timeout: float = 60.0):
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("daemon thread did not finish")
        if "error" in self._box:
            raise self._box["error"]
        return self._box.get("result")

    def close(self) -> None:
        """Teardown alias, so a set-up daemon tears down like a session."""
        self.stop()


class ServePaced(SmallBins):
    """The ``small-bins`` traffic and config, served by the daemon."""

    name = "serve-paced"
    duration = 12.0

    @staticmethod
    def bins_per_s(ctx: Context) -> float:
        """Bin rate that offers :data:`SERVE_PKT_PER_S` on this trace."""
        return SERVE_PKT_PER_S * ctx.n_bins / ctx.packets

    def start(self, ctx: Context):
        run = _DaemonRun(ctx.config, fresh_bins(ctx.trace), self.name,
                         self.bins_per_s(ctx))
        run.start()
        return run

    def run_pass(self, ctx: Context, tracer: Optional[Tracer]) -> PassResult:
        run = _DaemonRun(ctx.config, fresh_bins(ctx.trace), self.name,
                         self.bins_per_s(ctx), tracer)
        if tracer is not None:
            trace_pipeline(tracer)
        try:
            port = run.start()
            try:
                ops, rounds, units = self._ops_client(port, ctx, run)
            finally:
                result = run.join()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not rounds:
            raise RuntimeError("the ops client completed no round")
        period = 1.0 / self.bins_per_s(ctx)
        timing = open_loop(run.feed.first_due, period, run.starts, run.ends)
        seconds = run.ends[-1] - run.feed.first_due
        speed = REFERENCE_UNIT_S / median(units)
        return PassResult(
            traced=tracer is not None, packets=result.total_packets,
            seconds=seconds, ref_seconds=seconds, latencies=timing.latency,
            speed=[speed] * len(timing.latency),
            ontime=[not late for late in timing.late], ops=ops,
            rounds=rounds, round_speed=[speed] * len(rounds),
            result=result, metrics=run.final_metrics,
            extra={"queue_wait": timing.queue_wait,
                   "offloads": run.offloads,
                   "feed_lag_max": run.feed.lag_max})

    @staticmethod
    def _ops_client(port: int, ctx: Context, run: _DaemonRun
                    ) -> Tuple[list, list, list]:
        """Closed loop: the next request goes out when the last returns,
        and a round starts when the next bin's ingest begins.

        Returns every request, the seconds of every whole round and the
        calibration units run between rounds.
        """
        cycle = (
            ("get_metrics", "GET", "/metrics", None),
            ("get_status", "GET", "/status", None),
            ("get_result", "GET", "/result", None),
            ("post_capacity", "POST", "/capacity",
             {"cycles_per_second": ctx.config.cycles_per_second}),
            ("post_queries", "POST", "/queries",
             {"kind": "counter", "kwargs": {"name": OPS_PROBE_QUERY}}),
            ("delete_queries", "DELETE", f"/queries/{OPS_PROBE_QUERY}", None),
        )
        stop_at = ctx.n_bins - OPS_STOP_MARGIN_BINS
        ops, rounds, units = [], [], []
        seen = 0
        # Whole rounds only, so every added probe query is deleted again.
        while run.alive and len(run.ends) < stop_at:
            begun = run.wait_for_bin(seen, OPS_BIN_WAIT_S)
            if begun == seen:
                continue
            seen = begun
            round_start = perf_counter()
            for endpoint, method, path, body in cycle:
                begin = perf_counter()
                ok = _request(port, method, path, body)
                ops.append((endpoint, perf_counter() - begin, ok))
            rounds.append(perf_counter() - round_start)
            units.extend(calibrate(OPS_CALIBRATION_UNITS))
        return ops, rounds, units

    def checks(self, ctx: Context, passes: List[PassResult]) -> List[Check]:
        # Ops writes land at timing-dependent bins, so passes legitimately
        # differ; completeness and 2xx ops are common checks (report.py).
        return []


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (SmallBins(), DenseBins(), ShardedStream(), ServePaced())
}

"""Execute a fleet topology over a traffic stream and merge the answer.

:class:`FleetRunner` is the scenario runner of the fleet tier.  A fleet is
a partitioned session: the runner hands its topology's node configs
(:meth:`~repro.fleet.topology.FleetTopology.node_configs`) and its
partitioner's split (:class:`~repro.fleet.partition.FleetPartitioner`) to
:meth:`repro.monitor.sharding.ShardedSystem.partitioned`, streams the trace
through the resulting :class:`~repro.monitor.sharding.ShardedSession` and
closes it.  Every node runs one full predict/shed loop — a
:class:`~repro.monitor.session.MonitoringSession` or, for nodes configured
with ``num_shards > 1``, a nested in-process sharded session — and the
session folds the per-node results through the ``RESULT_MERGE`` rules.

Node execution therefore has the shard tier's backends: ``inprocess``
(every node serially in the caller) or ``workers`` (persistent worker
processes fed through shared memory, the nodes packed round-robin into
``effective_workers(n_workers, nodes)`` processes).  Both run the same
per-node sessions over the same sub-batches, so the federated result is
bit-identical either way.

:func:`verify_exactness` is the fleet's correctness gate: it runs the fleet
and a single unpartitioned node in reference mode (no shedding, sampling
rate 1.0 — every reported quantity is an integer-valued float, so addition
order cannot perturb it) and checks the federated query logs are
*bit-identical* to the single-node logs for every merge-exact query kind
(:data:`repro.queries.MERGE_EXACT_KINDS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..monitor.config import SystemConfig
from ..monitor.packet import as_trace
from ..monitor.sharding import ShardedSession, ShardedSystem
from ..monitor.system import ExecutionResult
from ..profile import summarize
from ..queries import MERGE_EXACTNESS, QUERY_CLASSES
from .aggregate import FleetAggregator
from .partition import FleetPartitioner
from .topology import FleetTopology

#: Fleet node execution backends (the shard tier's).
BACKENDS: Tuple[str, ...] = ("auto", "inprocess", "workers")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class FleetResult:
    """Everything a fleet run produced: the one answer plus the evidence."""

    federated: ExecutionResult
    node_results: List[ExecutionResult]
    node_metrics: List[Dict]
    #: Wall seconds each node spent ingesting each bin; shape (nodes, bins).
    node_bin_seconds: np.ndarray
    topology: FleetTopology
    time_bin: float
    backend: str
    metrics: Dict = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.node_results)

    @property
    def bin_latency(self) -> np.ndarray:
        """Per-bin fleet latency: the straggler node's ingest seconds.

        A bin's federated answer is ready when its slowest node finishes,
        so the fleet-level per-bin latency is the max across nodes.
        """
        if self.node_bin_seconds.size == 0:
            return np.zeros(0)
        return self.node_bin_seconds.max(axis=0)

    def report(self, reference: Optional[ExecutionResult] = None) -> Dict:
        """The fleet report: one JSON-able dict for dashboards and CI.

        Includes per-bin shed-latency percentiles both in wall time (the
        measured straggler ingest latency) and on the simulated cycle
        clock (the federated ``delay`` series: the cycles by which the
        worst node runs behind real time), the folded node metrics, and —
        when a reference execution is given — per-query mean and per-bin
        accuracy percentiles.
        """
        federated = self.federated
        report = {
            "nodes": self.num_nodes,
            "partition_by": self.topology.partition_by,
            "backend": self.backend,
            "bins": len(federated.bins),
            "time_bin": self.time_bin,
            "total_packets": federated.total_packets,
            "dropped_packets": federated.dropped_packets,
            "drop_fraction": federated.drop_fraction,
            "mean_sampling_rate": federated.mean_sampling_rate(),
            "bin_latency_seconds": summarize(self.bin_latency),
            "node_bin_latency_seconds": summarize(
                self.node_bin_seconds.ravel()),
            "delay_cycles": summarize(federated.series("delay")),
            "metrics": self.metrics,
        }
        if reference is not None:
            from ..experiments import runner as experiments_runner
            report["accuracy"] = experiments_runner.accuracy_by_query(
                federated, reference)
            report["accuracy_per_bin"] = {
                name: summarize(experiments_runner.accuracy_series(
                    federated, reference, name))
                for name in federated.query_logs
                if name in reference.query_logs
            }
        return report


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class FleetRunner:
    """Runs every node of a topology over a partitioned stream.

    Parameters
    ----------
    topology:
        The fleet description (nodes, partition rule, overlays).
    config:
        Base :class:`SystemConfig` every node derives from.  Must carry a
        declarative ``queries`` field — the fleet ships configs, not query
        instances (defaults to the experiment harness's config with the
        standard ``counter,flows,top-k`` mix).
    n_workers:
        Node-execution parallelism: the ``workers`` backend packs the
        nodes into ``effective_workers(n_workers, nodes, respect_cores)``
        processes.  A node's own ``num_shards`` always runs in-process
        inside whichever process hosts the node.
    backend:
        ``"inprocess"`` (serial), ``"workers"`` (persistent worker
        processes), or ``"auto"`` — workers when ``n_workers > 1``, more
        than one node, and the host can honour it.
    """

    def __init__(self, topology: FleetTopology,
                 config: Optional[SystemConfig] = None,
                 n_workers: int = 1, backend: str = "auto",
                 respect_cores: bool = True) -> None:
        if backend not in BACKENDS:
            raise ValueError(f"unknown fleet backend {backend!r}; "
                             f"valid backends: {BACKENDS}")
        self.topology = topology
        if config is None:
            from ..experiments.runner import system_config
            from ..queries import parse_query_specs
            config = system_config(
                queries=parse_query_specs("counter,flows,top-k"))
        if config.queries is None:
            raise ValueError(
                "the fleet base config needs a declarative 'queries' field "
                "(nodes are built from shipped configs, not from query "
                "instances); set config = config.replace(queries=...)")
        self.config = config
        self.partitioner = FleetPartitioner(topology)
        self.n_workers = int(n_workers)
        self.respect_cores = bool(respect_cores)
        self.backend = backend
        self.aggregator = FleetAggregator()

    # ------------------------------------------------------------------
    def open_session(self, time_bin: float = 0.1, name: str = "live",
                     force: Optional[Dict[str, object]] = None
                     ) -> ShardedSession:
        """Open one streaming session over the whole fleet.

        The fleet is a partitioned system: the topology's node configs
        plus the partitioner's split.  ``force`` overlays config fields
        onto *every* node after all topology overlays (used by the
        exactness check to pin the whole fleet to reference mode).
        """
        system = ShardedSystem.partitioned(
            self.config, self.topology.node_configs(self.config, force=force),
            self.partitioner.split,
            labels=[node.name for node in self.topology.nodes],
            n_workers=self.n_workers, respect_cores=self.respect_cores,
            backend=self.backend)
        return system.open_session(time_bin=time_bin, name=name)

    def query_classes(self) -> Dict[str, type]:
        """Query class per instance name, resolved from the node configs.

        Federation folds per-name logs through the owning class's
        ``RESULT_MERGE`` spec; the classes come from the first node's
        config (every node must run the same query names for the merge to
        be defined — per-node overlays may change budgets and modes, not
        the query set's names).
        """
        queries = self.topology.node_configs(self.config)[0].build_queries()
        return {query.name: type(query) for query in queries}

    # ------------------------------------------------------------------
    def run(self, trace, time_bin: float = 0.1,
            force: Optional[Dict[str, object]] = None) -> FleetResult:
        """Execute every node over its partition and merge the results.

        ``force`` overlays config fields onto every node (see
        :meth:`open_session`).  ``trace`` may be anything
        :func:`repro.monitor.packet.as_trace` accepts; a trace store
        streams bin by bin.
        """
        trace = as_trace(trace)
        with self.open_session(time_bin=time_bin, name=trace.name,
                               force=force) as session:
            session.ingest_trace(trace)
        federated = session.close()
        outcomes = session.partition_outcomes
        results = [result for result, _, _ in outcomes]
        metrics = [node_metrics for _, node_metrics, _ in outcomes]
        bin_seconds = np.array([seconds for _, _, seconds in outcomes],
                               dtype=np.float64)
        return FleetResult(
            federated=federated, node_results=results, node_metrics=metrics,
            node_bin_seconds=bin_seconds, topology=self.topology,
            time_bin=float(time_bin), backend=session.backend,
            metrics=self.aggregator.fold_metrics(metrics))


# ----------------------------------------------------------------------
# The federated ≡ single-node identity check
# ----------------------------------------------------------------------
def _query_kind(query_cls: type) -> Optional[str]:
    for kind, cls in QUERY_CLASSES.items():
        if cls is query_cls:
            return kind
    return None


def verify_exactness(topology: FleetTopology, trace,
                     config: Optional[SystemConfig] = None,
                     time_bin: float = 0.1, n_workers: int = 1,
                     backend: str = "auto") -> Dict:
    """Check the federated answer equals one node over the whole stream.

    Runs the fleet *and* a single unpartitioned system in reference mode
    (no shedding — results are deterministic integer-valued floats, so
    merge-exact queries must agree bit for bit) and compares every query
    log.  Returns a JSON-able verdict::

        {"queries": {name: {"kind", "exactness", "checked", "identical"}},
         "exact_queries_identical": bool}   # the fleet correctness gate

    Only kinds whose :data:`repro.queries.MERGE_EXACTNESS` entry is
    ``"exact"`` are gated (``checked=True``); bounded/prefix/union kinds
    report their observed identity for information but cannot fail the
    check.  ``n_workers`` and ``backend`` choose how the fleet executes,
    as for :class:`FleetRunner`.
    """
    fleet = FleetRunner(topology, config=config, n_workers=n_workers,
                        backend=backend)
    fleet_result = fleet.run(trace, time_bin=time_bin,
                             force={"mode": "reference"})
    single_config = fleet.config.replace(mode="reference", num_shards=1)
    single = single_config.build().run(as_trace(trace), time_bin=time_bin)

    classes = fleet.query_classes()
    queries: Dict[str, Dict] = {}
    gate = True
    for name, log in fleet_result.federated.query_logs.items():
        kind = _query_kind(classes.get(name))
        exactness = MERGE_EXACTNESS.get(kind, "unknown")
        reference_log = single.query_logs.get(name)
        identical = (
            reference_log is not None
            and log.intervals == reference_log.intervals
            and log.results == reference_log.results)
        checked = exactness == "exact"
        if checked and not identical:
            gate = False
        queries[name] = {"kind": kind, "exactness": exactness,
                         "checked": checked, "identical": identical}
    return {"queries": queries, "exact_queries_identical": gate,
            "nodes": topology.num_nodes,
            "partition_by": topology.partition_by,
            "bins": len(fleet_result.federated.bins)}


__all__ = ["BACKENDS", "FleetResult", "FleetRunner", "verify_exactness"]

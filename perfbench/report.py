"""Turn measured passes into checks, end-to-end and per-layer metrics."""

from __future__ import annotations

import resource
from typing import Dict, List, Sequence, Tuple

from repro.experiments import runner
from repro.monitor.pipeline import DEFAULT_STAGES
from repro.queries import QUERY_CLASSES

from measure import median, self_times, tail
from spans import Tracer, inclusive_totals
from workloads import Check, Context, PassResult

Metrics = Dict[str, Tuple[float, str]]

#: Metrics that are shares and must lie in [0, 1].
UNIT_INTERVAL = (
    "accuracy_mean", "delivered_frac", "overrun_bin_frac", "late_bin_frac",
    "drop_frac",
    "features.shared_read_ratio", "shedding.unsampled_frac",
    "trace_io.chunk_hit_ratio",
)
API_ENDPOINTS = ("get_metrics", "get_status", "get_result", "post_capacity",
                 "post_queries", "delete_queries")


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def common_checks(ctx: Context, passes: Sequence[PassResult],
                  fingerprints: Sequence[tuple]) -> List[Check]:
    """Checks every workload must pass (run outside the timed region)."""
    checks = [Check("every set-up produced the same trace and capacity",
                    len(set(fingerprints)) == 1, repr(fingerprints))]
    for index, run in enumerate(passes):
        result = run.result
        checks.append(Check(
            f"pass {index}: every bin and packet ingested",
            len(result.bins) == ctx.n_bins and run.packets == ctx.packets,
            f"{len(result.bins)}/{ctx.n_bins} bins, "
            f"{run.packets}/{ctx.packets} packets"))
        bad = [(record.index, name, rate) for record in result.bins
               for name, rate in record.rates.items()
               if not 0.0 <= rate <= 1.0]
        checks.append(Check(f"pass {index}: every sampling rate in [0, 1]",
                            not bad, repr(bad[:5])))
        accuracy = runner.accuracy_by_query(result, ctx.reference)
        missing = sorted(set(ctx.reference.query_logs) - set(accuracy))
        checks.append(Check(
            f"pass {index}: accuracy of every query against the reference",
            not missing and all(0.0 <= a <= 1.0 for a in accuracy.values()),
            f"missing={missing}"))
        failed_ops = [op for op in run.ops if not op[2]]
        checks.append(Check(f"pass {index}: every ops request succeeded",
                            not failed_ops, repr(failed_ops[:5])))
    return checks


def range_checks(metrics: Metrics, details: Dict) -> List[Check]:
    values = {name: value for name, (value, _) in metrics.items()}
    values.update({name: details[name] for name in UNIT_INTERVAL
                   if name in details})
    out = {name: values[name] for name in UNIT_INTERVAL
           if name in values and not 0.0 <= values[name] <= 1.0}
    return [Check("every reported share lies in [0, 1]", not out,
                  repr(out))]


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def peak_rss_mb(passes: Sequence[PassResult]) -> float:
    """Peak RSS of this process plus the largest per-pass sum of the
    worker children's peaks (children are sampled before they exit)."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = max((p.extra.get("children_hwm_kb", 0) for p in passes),
                      default=0)
    return (own_kb + children_kb) / 1024.0


def _quality(ctx: Context, result) -> Dict[str, float]:
    accuracy = runner.accuracy_by_query(result, ctx.reference)
    overruns = sum(1 for record in result.bins if record.delay > 0)
    return {
        "accuracy_mean": sum(accuracy.values()) / len(accuracy),
        "delivered_frac": 1.0 - result.drop_fraction,
        "overrun_bin_frac": overruns / len(result.bins),
    }


def _scaled(values: Sequence[float], speed: Sequence[float]) -> List[float]:
    """Wall times in reference-host seconds."""
    return [value * factor for value, factor in zip(values, speed)]


def end_to_end_metrics(ctx: Context, passes: Sequence[PassResult],
                       setup_times: Sequence[Tuple[float, float]],
                       rss_mb: float) -> Tuple[Metrics, Dict]:
    """End-to-end metrics of the untraced passes.

    Timings are in reference-host seconds (``host.py``): each wall time
    is scaled by the host speed measured next to it.  Every timing is
    summarised per pass (median, and the tail by the >=10-beyond rule
    within the pass) and the median over passes is reported, so one pass
    caught in a host hiccup cannot move the result.
    """
    untraced = [p for p in passes if not p.traced]
    bins = [_pass_timing(_scaled(p.latencies, p.speed)) for p in untraced]
    ops = [_pass_timing(_scaled(p.rounds, p.round_speed)) for p in untraced]
    ontime = [flag for p in untraced for flag in p.ontime]
    # Quality is a function of the seed alone where passes are identical
    # (checked); under concurrent ops writes it is the median pass.
    qualities = [_quality(ctx, p.result) for p in untraced]
    quality = {key: median([q[key] for q in qualities])
               for key in qualities[0]}
    metrics: Metrics = {
        "throughput_pkt_s": (median([p.packets / p.ref_seconds
                                     for p in untraced]), "pkt/s"),
        "bin_latency_p50_ms": (median([b["p50"] for b in bins]) * 1e3,
                               "ms"),
        "bin_latency_tail_ms": (median([b["tail"] for b in bins]) * 1e3,
                                "ms"),
        "setup_s": (median([ref for _, ref in setup_times]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "accuracy_mean": (quality["accuracy_mean"], "ratio"),
        "delivered_frac": (quality["delivered_frac"], "ratio"),
        "overrun_bin_frac": (quality["overrun_bin_frac"], "ratio"),
        "ops_latency_p50_ms": (median([o["p50"] for o in ops]) * 1e3, "ms"),
        "ops_latency_tail_ms": (median([o["tail"] for o in ops]) * 1e3,
                                "ms"),
    }
    details = {
        "passes": len(untraced),
        "bin_latency_per_pass": [_without_values(b) for b in bins],
        "ops_round_per_pass": [_without_values(o) for o in ops],
        "setup_s_samples": [ref for _, ref in setup_times],
        "setup_wall_s_samples": [wall for wall, _ in setup_times],
        "throughput_pkt_s_per_pass": [p.packets / p.ref_seconds
                                      for p in untraced],
        "wall_throughput_pkt_s_per_pass": [p.packets / p.seconds
                                           for p in untraced],
        "wall_bin_latency_p50_ms_per_pass": [median(p.latencies) * 1e3
                                             for p in untraced],
        "host_speed_per_pass": [median(p.speed) for p in untraced],
        "late_bin_frac": 1.0 - sum(ontime) / len(ontime),
        "drop_frac": 1.0 - quality["delivered_frac"],
    }
    return metrics, details


def _pass_timing(values: Sequence[float]) -> Dict:
    """Median and tail of one pass; the tail falls back to the maximum
    (percentile 100, flagged) when the pass has 10 samples or fewer."""
    result = tail(values)
    if result is None:
        return {"p50": median(values), "tail": max(values),
                "percentile": 100.0, "samples": len(values), "beyond": 0}
    return {"p50": median(values), "tail": result.value,
            "percentile": result.percentile, "samples": result.samples,
            "beyond": result.beyond}


def _without_values(timing: Dict) -> Dict:
    return {key: timing[key] for key in ("percentile", "samples", "beyond")}


# ----------------------------------------------------------------------
# Per-layer metrics (traced passes)
# ----------------------------------------------------------------------
def layer_metrics(ctx: Context, passes: Sequence[PassResult],
                  tracer: Tracer) -> Tuple[Metrics, Dict]:
    """Per-layer metrics; a layer the workload does not exercise in the
    benchmark's own process reports 0."""
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    traced_bins = sum(len(p.latencies) for p in traced)
    untraced_bins = sum(len(p.latencies) for p in untraced)
    spans = tracer.span_objects()
    totals = inclusive_totals(spans)
    counters = tracer.counters
    metrics: Metrics = {}

    def per_bin_ms(seconds: float) -> float:
        return seconds * 1e3 / traced_bins

    # monitor.pipeline: the program's own StageProfiler (untraced passes).
    for stage in DEFAULT_STAGES:
        name = type(stage).__name__
        seconds = sum(p.metrics["profile"]["stages"].get(name, {})
                      .get("seconds_total", 0.0) for p in untraced
                      if p.metrics)
        metrics[f"pipeline.{name}.ms_per_bin"] = (
            seconds * 1e3 / untraced_bins, "ms")

    # monitor.session: ingest time not spent in a child layer.
    own = self_times(spans)
    ingest_self = sum(own[span.id] for span in spans
                      if span.name == "session.ingest")
    metrics["session.ingest_self_ms_per_bin"] = (per_bin_ms(ingest_self),
                                                 "ms")

    # core.features
    metrics["features.extract_ms_per_bin"] = (
        per_bin_ms(totals.get("features.extract", 0.0)), "ms")
    sharing = (untraced[0].metrics or {}).get(
        "feature_sharing", {"shared_reads": 0, "computed_reads": 0})
    reads = sharing["shared_reads"] + sharing["computed_reads"]
    metrics["features.shared_read_ratio"] = (
        sharing["shared_reads"] / reads if reads else 0.0, "ratio")

    # core.prediction
    metrics["prediction.predict_ms_per_bin"] = (
        per_bin_ms(totals.get("prediction.predict", 0.0)), "ms")
    errors = [abs(r.predicted_cycles - r.query_cycles) /
              max(r.query_cycles, 1.0)
              for r in untraced[0].result.bins if r.predicted_cycles > 0]
    metrics["prediction.rel_error_mean"] = (
        sum(errors) / len(errors) if errors else 0.0, "ratio")

    # core.fairness / core.tenancy
    metrics["allocation.ms_per_bin"] = (
        per_bin_ms(totals.get("allocation", 0.0)), "ms")

    # core.sampling / core.custom
    metrics["shedding.custom_ms_per_bin"] = (
        per_bin_ms(counters.get("shedding.custom_s", 0.0)), "ms")
    result = untraced[0].result
    incoming = sum(r.incoming_packets for r in result.bins)
    metrics["shedding.unsampled_frac"] = (
        result.unsampled_packets / incoming if incoming else 0.0, "ratio")

    # queries
    query_seconds = 0.0
    for kind in sorted(QUERY_CLASSES):
        seconds = totals.get(f"query.{kind}", 0.0)
        query_seconds += seconds
        metrics[f"queries.{kind}.ms_per_bin"] = (per_bin_ms(seconds), "ms")
    packets = counters.get("query.packets", 0.0)
    metrics["queries.ns_per_pkt"] = (
        query_seconds * 1e9 / packets if packets else 0.0, "ns")

    # monitor.packet / monitor.workers / monitor.sharding
    metrics["packet.partition_ms_per_bin"] = (
        per_bin_ms(totals.get("packet.partition", 0.0)), "ms")
    metrics["workers.bytes_per_bin"] = (
        counters.get("workers.bytes", 0.0) / traced_bins, "B")
    metrics["workers.wait_ms_per_bin"] = (
        per_bin_ms(totals.get("workers.wait", 0.0)), "ms")
    skew_bins = counters.get("sharding.skew_bins", 0.0)
    metrics["sharding.shard_skew"] = (
        counters.get("sharding.skew_sum", 0.0) / skew_bins
        if skew_bins else 0.0, "x")
    metrics["sharding.merge_ms_per_bin"] = (
        per_bin_ms(totals.get("sharding.merge", 0.0)), "ms")

    # traffic.trace_io
    hits = sum(p.extra.get("chunk_hits", 0) for p in traced)
    lookups = hits + sum(p.extra.get("chunk_misses", 0) for p in traced)
    metrics["trace_io.chunk_hit_ratio"] = (
        hits / lookups if lookups else 0.0, "ratio")
    metrics["trace_io.read_ms_per_bin"] = (
        per_bin_ms(totals.get("trace_io.read", 0.0)), "ms")

    # serve (open-loop feed and ops API; all passes)
    waits = [w for p in passes for w in p.extra.get("queue_wait", ())]
    offloads = [n for p in passes for n in p.extra.get("offloads", ())]
    metrics["serve.queue_wait_ms"] = (
        median(waits) * 1e3 if waits else 0.0, "ms")
    metrics["serve.bins_per_offload"] = (
        sum(offloads) / len(offloads) if offloads else 0.0, "count")
    metrics["serve.feed_lag_max_ms"] = (
        max((p.extra.get("feed_lag_max", 0.0) for p in passes),
            default=0.0) * 1e3, "ms")
    for endpoint in API_ENDPOINTS:
        values = [op[1] for p in passes for op in p.ops
                  if op[0] == endpoint]
        metrics[f"api.{endpoint}.ms"] = (
            median(values) * 1e3 if values else 0.0, "ms")

    # Tracing overhead: traced against untraced throughput, both in
    # reference-host seconds.
    plain = median([p.packets / p.ref_seconds for p in untraced])
    with_spans = median([p.packets / p.ref_seconds for p in traced])
    metrics["tracing.overhead_frac"] = (1.0 - with_spans / plain, "ratio")
    details = {"traced_passes": len(traced), "untraced_passes": len(untraced),
               "traced_bins": traced_bins, "spans": len(spans),
               "untraced_throughput_pkt_s": plain,
               "traced_throughput_pkt_s": with_spans}
    return metrics, details

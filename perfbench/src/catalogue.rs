//! Every metric the benchmark reports: name, unit, which direction is
//! better, the workloads that reach it and, for each layer metric, the
//! end-to-end metric it should move and the workload it should move it on.
//! `BENCHMARK.json` lists the same names and units; the self-tests keep the
//! two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// For a layer metric: `<end-to-end metric>@<workload>` pairs it should
    /// move, or a note on why it should not move at all.
    pub moves: &'static str,
    /// Workloads whose runs measure the metric. A run of one of them that
    /// did not measure it fails; the others report 0.
    pub on: &'static [&'static str],
}

impl MetricDef {
    pub fn reached_by(&self, workload: &str) -> bool {
        self.on.contains(&workload)
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const ALL: &[&str] = &["screen", "wide", "fabric", "approx"];
const IN_PROCESS: &[&str] = &["screen", "wide", "approx"];
const FABRIC: &[&str] = &["fabric"];
/// Exact-lattice cohorts: sharded on `screen` and `wide`, dense on `fabric`.
const EXACT: &[&str] = &["screen", "wide", "fabric"];
const SHARDED: &[&str] = &["screen", "wide"];
/// Sessions with a separate marginals phase: the sharded session fuses it
/// into its observe stage.
const DENSE_OR_BP: &[&str] = &["fabric", "approx"];
const BP: &[&str] = &["approx"];
/// Sessions that dispatch engine jobs: the dense session runs in place.
const ENGINE: &[&str] = &["screen", "wide", "approx"];
const SCREEN: &[&str] = &["screen"];

use std::collections::BTreeMap;

use sbgt_service::ShedReason;
use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    m("throughput_sps", "1/s", Higher, ALL, "specimens classified per second, saturated phase"),
    m("turnaround_p50_ms", "ms", Lower, ALL, "due time to the poll returning the report, paced phase"),
    m("turnaround_p90_ms", "ms", Lower, ALL, "as turnaround_p50_ms, 90th percentile"),
    m("admitted_share", "ratio", Higher, ALL, "specimens admitted / specimens offered, paced phase (1 - shed share)"),
    m("assays_per_specimen", "assays/specimen", Lower, ALL, "assays spent per classified specimen"),
    m("sensitivity", "ratio", Higher, ALL, "planted positives classified positive; undetermined counts wrong"),
    m("specificity", "ratio", Higher, ALL, "planted negatives classified negative; undetermined counts wrong"),
    m("setup_s", "s", Lower, ALL, "median set-up (inputs, engine, service or shard processes) over the run's phases"),
    m("peak_rss_mb", "MB", Lower, ALL, "peak resident memory; fabric sums the router and its shards"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). A
/// workload that does not reach a layer reports 0 for its metrics. Shed
/// counts are the service's own counters: specimens in process, cohort
/// placements summed over the shards in `fabric`.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    // service: SurveillanceService calls and ServiceStats
    m("service.submit_us.p50", "us", Lower, IN_PROCESS, "throughput_sps@screen"),
    m("service.submit_us.p99", "us", Lower, IN_PROCESS, "throughput_sps@screen"),
    m("service.poll_us.p50", "us", Lower, IN_PROCESS, "turnaround_p50_ms@screen"),
    m("service.batch_fill_ms.p50", "ms", Lower, IN_PROCESS, "none: set by the arrival rate alone"),
    m("service.sched_wait_ms.p50", "ms", Lower, IN_PROCESS, "turnaround_p90_ms@screen"),
    m("service.sched_wait_ms.p90", "ms", Lower, IN_PROCESS, "turnaround_p90_ms@screen"),
    m("service.queue_peak", "count", Lower, IN_PROCESS, "turnaround_p90_ms@screen"),
    m("service.shed.queue_full", "count", Lower, ALL, "admitted_share@screen,wide,fabric,approx"),
    m("service.shed.slo_exceeded", "count", Lower, ALL, "admitted_share@screen,wide,fabric,approx"),
    m("service.shed.draining", "count", Lower, ALL, "admitted_share@fabric"),
    m("service.checkpoint_encode_us", "us", Lower, ALL, "turnaround_p90_ms@fabric"),
    m("service.checkpoint_decode_us", "us", Lower, ALL, "turnaround_p90_ms@fabric"),
    m("service.checkpoint_bytes", "bytes", Lower, ALL, "turnaround_p90_ms@fabric"),
    // session: CohortActor::new / run_round replayed serially per cohort
    m("session.create_us.p50", "us", Lower, ALL, "throughput_sps@screen"),
    m("session.round_us.sharded.p50", "us", Lower, SHARDED, "throughput_sps@wide"),
    m("session.round_us.sharded.p99", "us", Lower, SHARDED, "throughput_sps@wide"),
    m("session.round_us.dense.p50", "us", Lower, FABRIC, "throughput_sps@fabric"),
    m("session.round_us.dense.p99", "us", Lower, FABRIC, "throughput_sps@fabric"),
    m("session.round_us.bp.p50", "us", Lower, BP, "throughput_sps@approx"),
    m("session.round_us.bp.p99", "us", Lower, BP, "throughput_sps@approx"),
    m("session.rounds_per_cohort", "count", Lower, ALL, "assays_per_specimen@screen,wide,fabric,approx"),
    m("session.cohort_compute_ms.p50", "ms", Lower, ALL, "turnaround_p50_ms@wide"),
    m("session.marginals_us", "us", Lower, DENSE_OR_BP, "throughput_sps@approx,fabric"),
    m("session.select_us", "us", Lower, ALL, "throughput_sps@wide"),
    m("session.observe_us", "us", Lower, ALL, "throughput_sps@wide"),
    m("session.placement_divergent_cohorts", "count", Lower, SCREEN, "assays_per_specimen,sensitivity@screen"),
    m("session.placement_divergent_status_cohorts", "count", Lower, SCREEN, "sensitivity,specificity@screen"),
    // engine: JobMetrics of the replay's stages
    m("engine.stages_per_round", "count", Lower, ENGINE, "throughput_sps@screen"),
    m("engine.dispatch_us.p50", "us", Lower, ENGINE, "throughput_sps@screen; flat on wide"),
    m("engine.task_us.p50", "us", Lower, ENGINE, "throughput_sps@wide"),
    // lattice
    m("lattice.posterior_bytes", "bytes", Lower, EXACT, "peak_rss_mb@wide"),
    m("lattice.task_ns_per_state", "ns", Lower, SHARDED, "throughput_sps@wide"),
    // select
    m("select.plan_hit_ratio", "ratio", Higher, FABRIC, "throughput_sps@fabric"),
    // approx
    m("approx.round_us.p50", "us", Lower, BP, "throughput_sps@approx"),
    m("approx.bp_sweeps_per_round", "count", Lower, BP, "throughput_sps@approx"),
    // net: FabricRouter calls, wire codec, drain
    m("net.place_rtt_us.p50", "us", Lower, FABRIC, "turnaround_p50_ms,throughput_sps@fabric"),
    m("net.place_rtt_us.p99", "us", Lower, FABRIC, "turnaround_p50_ms,throughput_sps@fabric"),
    m("net.poll_rtt_us.p50", "us", Lower, FABRIC, "turnaround_p50_ms@fabric"),
    m("net.frame_encode_us", "us", Lower, FABRIC, "throughput_sps@fabric"),
    m("net.frame_decode_us", "us", Lower, FABRIC, "throughput_sps@fabric"),
    m("net.bytes_per_specimen", "bytes", Lower, FABRIC, "throughput_sps@fabric"),
    m("net.drain_ms", "ms", Lower, FABRIC, "turnaround_p90_ms@fabric"),
    m("net.relocated_cohorts", "count", Lower, FABRIC, "turnaround_p90_ms@fabric"),
    // generator and tail: validity of the run, not gated
    m("gen.lag_p99_ms", "ms", Lower, ALL, "validity: how late the paced generator ran"),
    m("gen.lag_max_ms", "ms", Lower, ALL, "validity: how late the paced generator ran"),
    m("gen.lag_samples", "count", Higher, ALL, "validity: sample count of gen.lag_*"),
    m("tail.turnaround_p99_ms", "ms", Lower, ALL, "diagnostic: swings run to run, not gated"),
    m("tail.turnaround_samples", "count", Higher, ALL, "diagnostic: sample count of tail.turnaround_p99_ms"),
    m("trace_overhead", "ratio", Higher, ALL, "traced / untraced saturated throughput of the same run"),
];

/// A service's shed counters by metric name: `shed` in total, of which
/// `slo` for a breached SLO and `draining` during a drain; the rest found
/// the queue full.
pub fn shed_by_reason(shed: u64, slo: u64, draining: u64) -> BTreeMap<&'static str, u64> {
    BTreeMap::from([
        (
            "service.shed.queue_full",
            shed.saturating_sub(slo + draining),
        ),
        ("service.shed.slo_exceeded", slo),
        ("service.shed.draining", draining),
    ])
}

/// The per-layer metric counting sheds for `reason`.
pub fn shed_metric(reason: ShedReason) -> &'static str {
    match reason {
        ShedReason::QueueFull => "service.shed.queue_full",
        ShedReason::SloExceeded => "service.shed.slo_exceeded",
        ShedReason::Draining => "service.shed.draining",
        other => panic!("shed reason {other:?} has no metric in the catalogue"),
    }
}

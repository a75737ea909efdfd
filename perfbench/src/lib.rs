//! Same-host surveillance benchmark for the SBGT workspace.
//!
//! One run drives one workload through alternating repetitions of two
//! phases on the same seeded trace: a paced open-loop phase at the
//! workload's fixed rate (turnaround from each specimen's due time) and a
//! saturated closed-loop phase (throughput). Every repetition and a serial
//! replay of every cohort must agree bit for bit, or the run fails. An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) times the benchmark's calls into each crate, reads the
//! counters the crates export and reports the per-layer metrics of
//! [`catalogue::PER_LAYER`].

pub mod catalogue;
pub mod fabric;
pub mod gate;
pub mod inproc;
pub mod replay;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::io;
use std::time::Duration;

use sbgt_service::CohortSpec;
use sbgt_sim::traffic::Arrival;

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::gate::{quality, Gate, PhaseResult};
use crate::replay::{layer_samples, placement_divergence, replay, ReplayLayers, Replayed};
use crate::stats::{peak_rss_mb, quantile, Metrics};
use crate::workloads::{Topology, Workload};

/// A phase that has not finished after this long fails the run.
pub const PHASE_TIMEOUT: Duration = Duration::from_secs(120);

/// Second seed on which any claim made with this benchmark is re-checked.
pub const CHECK_SEED: u64 = 7919;

/// Timings and counters one phase collected, beyond its [`PhaseResult`].
#[derive(Debug, Default)]
pub struct PhaseTiming {
    pub setup: Duration,
    /// First due time (paced) or first submit (saturated) to the poll that
    /// returned the last report.
    pub elapsed: Duration,
    /// `(cohort, turnaround ms)` per admitted specimen.
    pub turnaround: Vec<(u64, f64)>,
    /// Per admitted specimen, its submit to its cohort's last submit.
    pub batch_fill_ms: Vec<f64>,
    /// How late the paced generator submitted each specimen.
    pub lag_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub poll_us: Vec<f64>,
    pub queue_peak: f64,
    /// Cohort id → the service's own time on it, ms: its batch-seal span
    /// (session creation) plus every round span (traced in-process paced
    /// phases only).
    pub service_compute_ms: BTreeMap<u64, f64>,
    pub place_us: Vec<f64>,
    pub drain_ms: Option<f64>,
    pub relocated: u64,
    pub plan_hits: f64,
    pub plan_misses: f64,
    pub frame_encode_us: Vec<f64>,
    pub frame_decode_us: Vec<f64>,
    pub frame_bytes: u64,
    /// Summed peak RSS of the phase's shard processes, MiB.
    pub rss_mb: f64,
}

impl PhaseTiming {
    fn throughput(&self, result: &PhaseResult) -> f64 {
        result.accepted as f64 / self.elapsed.as_secs_f64()
    }
}

/// What the command line asks for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Four cohorts per phase and two repetitions: the self-tests' mode.
    pub tiny: bool,
}

/// A finished run: the gate's verdict, the metrics of its mode, the host
/// fingerprint, and per-repetition figures for stderr.
#[derive(Debug)]
pub struct RunOutput {
    pub gate: Gate,
    pub metrics: Metrics,
    pub fingerprint: String,
    pub diagnostics: Vec<String>,
}

#[derive(Clone, Copy)]
enum Loop {
    Paced,
    Saturated,
}

fn phase(
    opts: &Options,
    kind: Loop,
    traced: bool,
    arrivals: &dyn Fn() -> Vec<Arrival>,
) -> io::Result<(PhaseResult, PhaseTiming)> {
    let w = opts.workload;
    let cfg = w.service_config(opts.seed);
    match (w.topology, kind) {
        (Topology::InProcess, Loop::Paced) => inproc::paced(&cfg, traced, arrivals),
        (Topology::InProcess, Loop::Saturated) => inproc::saturated(&cfg, traced, arrivals),
        (Topology::Fabric, Loop::Paced) => fabric::paced(w, opts.seed, traced, arrivals),
        (Topology::Fabric, Loop::Saturated) => fabric::saturated(w, opts.seed, traced, arrivals),
    }
}

/// Run one workload per `opts`.
pub fn run(opts: &Options) -> io::Result<RunOutput> {
    let w = opts.workload;
    let cfg = w.service_config(opts.seed);
    let (n_paced, n_sat, reps) = if opts.tiny {
        (w.batch * 4, w.batch * 4, 2)
    } else {
        let s = opts.seconds;
        (w.paced_specimens(s), w.saturated_specimens(s), w.reps)
    };
    // Every repetition runs on a fresh service (or fresh shard processes).
    // Repetition r offers the trace of `trace_seed(seed, r)`: the same
    // trace every time, so repetitions differ only in timing, except on a
    // workload with fresh traces. The paced trace is a prefix of the
    // saturated one. Repetitions alternate, paced then saturated, so each
    // metric samples the host over the whole run. An untimed saturated
    // phase on the first paced trace warms the host up first; its reports
    // are not used. Peak RSS is read after the first paced repetition:
    // set-up and serving at the fixed rate, before any saturated backlog
    // larger than the warm-up's.
    let warm_up_seed = w.trace_seed(opts.seed, 0);
    phase(opts, Loop::Saturated, false, &|| {
        w.arrivals(n_paced, warm_up_seed)
    })?;
    let (mut paced, mut sats, mut plain) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_mb = None;
    for r in 0..reps {
        let seed = w.trace_seed(opts.seed, r);
        let paced_trace = || w.paced_arrivals(n_paced, seed);
        let sat_trace = || w.arrivals(n_sat, seed);
        let (result, timing) = phase(opts, Loop::Paced, opts.trace, &paced_trace)?;
        rss_mb = rss_mb.or_else(|| peak_rss_mb(None).map(|own| own + timing.rss_mb));
        paced.push((result, timing));
        // A traced run also runs every saturated repetition untraced, for
        // trace_overhead.
        if opts.trace {
            plain.push(phase(opts, Loop::Saturated, false, &sat_trace)?);
        }
        sats.push(phase(opts, Loop::Saturated, opts.trace, &sat_trace)?);
    }

    // The correctness gate: ledgers, phase agreement, and a serial replay
    // of every distinct cohort. Each repetition's longest phase is checked
    // first, so the others reuse its replay wherever they formed the same
    // cohorts, as do later repetitions of the same trace.
    let mut gate = Gate::default();
    let mut replays: Vec<Replayed> = Vec::new();
    for r in 0..reps {
        let mut phases = vec![("paced", &paced[r].0), ("saturated", &sats[r].0)];
        if let Some((p, _)) = plain.get(r) {
            phases.push(("untraced saturated", p));
        }
        phases.sort_by_key(|(_, p)| std::cmp::Reverse(p.specs.len()));
        for (label, p) in phases {
            check_replay(&mut gate, &format!("{label} #{r}"), p, &mut replays, &cfg);
        }
        gate.check_phases_agree(&paced[r].0, &sats[r].0);
    }
    // The replay of the first repetition's longest phase: every cohort it
    // formed.
    let none = Replayed::new();
    let reference = replays.first().unwrap_or(&none);

    let mut metrics = Metrics::default();
    let mut diagnostics = Vec::new();
    // Throughput and turnaround percentiles are each the median over the
    // repetitions.
    let mut summarize = |label: &str, values: Vec<f64>, q: f64| {
        diagnostics.push(format!("{label} per repetition: {values:.4?}"));
        quantile(&values, q).expect("at least one repetition")
    };
    let throughputs = |phases: &[(PhaseResult, PhaseTiming)]| -> Vec<f64> {
        phases.iter().map(|(p, t)| t.throughput(p)).collect()
    };
    if opts.trace {
        let layers = layer_samples(reference.values().map(|(spec, _)| spec), &cfg);
        let traced = summarize("traced throughput_sps", throughputs(&sats), 0.5);
        let untraced = summarize("untraced throughput_sps", throughputs(&plain), 0.5);
        metrics.set("trace_overhead", traced / untraced);
        let sat_t = &sats[0].1;
        layer_metrics(opts, &paced, sat_t, reference, &layers, &mut metrics);
    } else {
        let throughput = summarize("throughput_sps", throughputs(&sats), 0.5);
        metrics.set("throughput_sps", throughput);
        for (name, p) in [("turnaround_p50_ms", 0.5), ("turnaround_p90_ms", 0.9)] {
            let per_rep: Vec<f64> = paced
                .iter()
                .filter_map(|(_, t)| quantile(&turnarounds(t), p))
                .collect();
            metrics.set(name, summarize(name, per_rep, 0.5));
        }
        let offered: u64 = paced.iter().map(|(p, _)| p.offered).sum();
        let accepted: u64 = paced.iter().map(|(p, _)| p.accepted).sum();
        metrics.set("admitted_share", accepted as f64 / offered as f64);
        let q = quality(sats.iter().map(|(p, _)| p));
        metrics.set("assays_per_specimen", q.assays_per_specimen);
        metrics.set("sensitivity", q.sensitivity);
        metrics.set("specificity", q.specificity);
        let setups: Vec<f64> = paced
            .iter()
            .chain(&sats)
            .map(|(_, t)| t.setup.as_secs_f64())
            .collect();
        metrics.set_quantile("setup_s", &setups, 0.5);
        if let Some(rss) = rss_mb {
            metrics.set("peak_rss_mb", rss);
        }
    }
    let fingerprint = fingerprint(opts, n_paced, n_sat, reps);
    Ok(RunOutput {
        gate,
        metrics,
        fingerprint,
        diagnostics,
    })
}

fn turnarounds(t: &PhaseTiming) -> Vec<f64> {
    t.turnaround.iter().map(|&(_, ms)| ms).collect()
}

/// Check `phase`'s ledger, and its reports against the serial replays in
/// `replays`; cohorts none of them ran yet are replayed and added.
fn check_replay(
    gate: &mut Gate,
    name: &str,
    phase: &PhaseResult,
    replays: &mut Vec<Replayed>,
    cfg: &sbgt_service::ServiceConfig,
) {
    gate.check_ledger(name, phase);
    let replayed = |spec: &CohortSpec| {
        replays
            .iter()
            .any(|r| r.get(&spec.id).is_some_and(|(s, _)| s == spec))
    };
    let new: Vec<&CohortSpec> = phase.specs.values().filter(|s| !replayed(s)).collect();
    if !new.is_empty() {
        replays.push(replay(new, cfg, cfg.policy()));
    }
    let refs: Vec<&Replayed> = replays.iter().collect();
    gate.check_replay(name, phase, &refs);
}

/// Per-layer metrics: timings from the first repetition of each phase;
/// sheds, drains and relocations over every paced repetition.
fn layer_metrics(
    opts: &Options,
    paced_reps: &[(PhaseResult, PhaseTiming)],
    sat_t: &PhaseTiming,
    reference: &Replayed,
    layers: &ReplayLayers,
    m: &mut Metrics,
) {
    let w = opts.workload;
    let cfg = w.service_config(opts.seed);
    let (paced, paced_t) = &paced_reps[0];
    layers.report(w.batch, m);
    let mut shed: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, count) in paced_reps.iter().flat_map(|(p, _)| &p.shed_by_reason) {
        *shed.entry(name).or_default() += count;
    }
    for (name, count) in shed {
        m.set(name, count as f64);
    }
    let lag = &paced_t.lag_ms;
    m.set_quantile("gen.lag_p99_ms", lag, 0.99);
    m.set_quantile("gen.lag_max_ms", lag, 1.0);
    m.set("gen.lag_samples", lag.len() as f64);
    let turnaround = turnarounds(paced_t);
    m.set_quantile("tail.turnaround_p99_ms", &turnaround, 0.99);
    m.set("tail.turnaround_samples", turnaround.len() as f64);
    match w.topology {
        Topology::InProcess => {
            m.set_quantile("service.submit_us.p50", &sat_t.submit_us, 0.5);
            m.set_quantile("service.submit_us.p99", &sat_t.submit_us, 0.99);
            m.set_quantile("service.poll_us.p50", &paced_t.poll_us, 0.5);
            m.set_quantile("service.batch_fill_ms.p50", &paced_t.batch_fill_ms, 0.5);
            m.set("service.queue_peak", paced_t.queue_peak);
            let wait: Vec<f64> = paced_t
                .turnaround
                .iter()
                .zip(&paced_t.batch_fill_ms)
                .filter_map(|(&(cohort, t), fill)| {
                    let compute = paced_t.service_compute_ms.get(&cohort)?;
                    Some(t - fill - compute)
                })
                .collect();
            m.set_quantile("service.sched_wait_ms.p50", &wait, 0.5);
            m.set_quantile("service.sched_wait_ms.p90", &wait, 0.9);
        }
        Topology::Fabric => {
            m.set_quantile("net.place_rtt_us.p50", &paced_t.place_us, 0.5);
            m.set_quantile("net.place_rtt_us.p99", &paced_t.place_us, 0.99);
            m.set_quantile("net.poll_rtt_us.p50", &paced_t.poll_us, 0.5);
            m.set_mean("net.frame_encode_us", &paced_t.frame_encode_us);
            m.set_mean("net.frame_decode_us", &paced_t.frame_decode_us);
            m.set(
                "net.bytes_per_specimen",
                paced_t.frame_bytes as f64 / paced.accepted.max(1) as f64,
            );
            let drains: Vec<f64> = paced_reps.iter().filter_map(|(_, t)| t.drain_ms).collect();
            m.set_quantile("net.drain_ms", &drains, 0.5);
            let relocated: u64 = paced_reps.iter().map(|(_, t)| t.relocated).sum();
            m.set("net.relocated_cohorts", relocated as f64);
            let hits = paced_t.plan_hits + sat_t.plan_hits;
            let lookups = hits + paced_t.plan_misses + sat_t.plan_misses;
            if lookups > 0.0 {
                m.set("select.plan_hit_ratio", hits / lookups);
            }
        }
    }
    // Placement only varies results where the workload runs the sharded
    // exact path on cohorts small enough to also run dense.
    if w.name == "screen" {
        let (any, status) = placement_divergence(reference, &cfg);
        m.set("session.placement_divergent_cohorts", any as f64);
        m.set("session.placement_divergent_status_cohorts", status as f64);
    }
}

/// One JSON line identifying the host and the run's inputs.
fn fingerprint(opts: &Options, paced: usize, saturated: usize, reps: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::env::var("SBGT_COMMIT").ok().or_else(git_head);
    format!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"check_seed\": {}, \"trace\": {}, \
         \"nproc\": {}, \"simd\": \"{}\", \"commit\": \"{}\", \"offered_rate_sps\": {}, \
         \"paced_specimens\": {}, \"saturated_specimens\": {}, \"repetitions\": {}, \"fresh_traces\": {}, \
         \"seconds\": {}}}}}",
        opts.workload.name,
        opts.seed,
        CHECK_SEED,
        u8::from(opts.trace),
        nproc,
        sbgt_lattice::simd::active_name(),
        commit.unwrap_or_else(|| "unknown".to_string()),
        opts.workload.rate,
        paced,
        saturated,
        reps,
        opts.workload.fresh_traces,
        opts.seconds,
    )
}

/// The commit of a git checkout run from its root; `GIT_DIR` keeps git
/// from searching the parent directories of an exported tree.
fn git_head() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let head = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !head.is_empty()).then_some(head)
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// the run's mode with its unit. A layer metric `workload` does not reach
/// reports 0; a metric it reaches that was not measured, or that is not
/// finite, is an error.
pub fn result_line(out: &RunOutput, workload: &str, trace: bool) -> io::Result<String> {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let value = match out.metrics.get(def.name) {
            Some(v) => v,
            None if !def.reached_by(workload) => 0.0,
            None => {
                return Err(io::Error::other(format!(
                    "metric {} was not measured on {workload}",
                    def.name
                )))
            }
        };
        if !value.is_finite() {
            return Err(io::Error::other(format!("metric {} is {value}", def.name)));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.gate.correct(),
        out.gate.attempted,
        out.gate.failed,
        fields.join(", ")
    ))
}

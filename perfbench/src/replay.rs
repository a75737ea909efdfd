//! Serial replay of every cohort a run formed: with `run_cohort_serial`,
//! the reference the correctness gate compares reports against; step by
//! step with timed calls, the source of the session, engine, lattice,
//! approx and checkpoint layer numbers of a traced run.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use sbgt::{RoundStep, SessionOutcome};
use sbgt_engine::obs::{ObsConfig, SpanKind};
use sbgt_engine::{Engine, EngineConfig};
use sbgt_service::{
    run_cohort_serial, CohortActor, CohortCheckpoint, CohortKind, CohortSpec, ServiceConfig,
    SessionPolicy,
};

use crate::stats::{ms, us, Metrics};

/// Cohort id → (spec, serial outcome).
pub type Replayed = BTreeMap<u64, (CohortSpec, SessionOutcome)>;

/// Engine threads of every engine the benchmark builds (2-core host).
pub const ENGINE_THREADS: usize = 2;

/// Threads of the untraced replay (2-core host).
const REPLAY_THREADS: usize = 2;

/// Per-layer samples of a traced replay.
#[derive(Debug, Default)]
pub struct ReplayLayers {
    pub create_us: Vec<f64>,
    pub round_us: BTreeMap<&'static str, Vec<f64>>,
    pub rounds_per_cohort: Vec<f64>,
    /// Cohort id → creation plus every round, in milliseconds.
    pub compute_ms: BTreeMap<u64, f64>,
    /// Phase span time in nanoseconds and span count: marginals, select,
    /// observe.
    pub phase_ns: [u64; 3],
    pub phase_spans: [u64; 3],
    pub rounds: u64,
    pub ckpt_encode_us: Vec<f64>,
    pub ckpt_decode_us: Vec<f64>,
    pub ckpt_bytes: Vec<f64>,
    pub jobs: u64,
    pub dispatch_us: Vec<f64>,
    pub task_us: Vec<f64>,
    /// Engine task time summed over exact-lattice rounds, and those rounds.
    pub lattice_task_ns: f64,
    pub lattice_rounds: u64,
    pub bp_sweeps: u64,
    pub bp_rounds: u64,
}

const PHASES: [&str; 3] = ["session:marginals", "session:select", "session:observe"];

/// Cohorts traced between two span-ring snapshots; far fewer events than
/// a lane holds, so no phase span wraps out unread.
const SNAPSHOT_EVERY: usize = 64;
const LANE_CAPACITY: usize = 1 << 16;

fn kind_name(kind: CohortKind) -> &'static str {
    match kind {
        CohortKind::Dense => "dense",
        CohortKind::Sharded => "sharded",
        CohortKind::Sparse => "sparse",
        CohortKind::Bp => "bp",
        CohortKind::Particle => "particle",
    }
}

fn replay_engine(traced: bool) -> Engine {
    let obs = if traced {
        ObsConfig::full().with_lane_capacity(LANE_CAPACITY)
    } else {
        ObsConfig::off()
    };
    Engine::new(
        EngineConfig::default()
            .with_threads(ENGINE_THREADS)
            .with_obs(obs),
    )
}

/// Replay `specs` under `policy` with `run_cohort_serial`, on one thread
/// per core, each with its own engine, taking the next cohort when it
/// finishes one; every cohort still runs serially.
pub fn replay<'a>(
    specs: impl IntoIterator<Item = &'a CohortSpec>,
    cfg: &ServiceConfig,
    policy: SessionPolicy,
) -> Replayed {
    let specs: Vec<&CohortSpec> = specs.into_iter().collect();
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        let workers: Vec<_> = (0..REPLAY_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let engine = replay_engine(false);
                    let mut out = Vec::new();
                    while let Some(spec) = specs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let outcome =
                            run_cohort_serial(&engine, spec, cfg.model, cfg.session, policy);
                        out.push((spec.id, ((*spec).clone(), outcome)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay thread panicked"))
            .collect()
    })
}

/// Run `specs` serially again under the workload's own policy, one
/// `CohortActor::run_round` at a time, timing creation and every round,
/// checkpointing each cohort once after its first round, and reading the
/// engine's job metrics and phase spans. The outcomes are not kept: the
/// gate's reference is [`replay`].
pub fn layer_samples<'a>(
    specs: impl IntoIterator<Item = &'a CohortSpec>,
    cfg: &ServiceConfig,
) -> ReplayLayers {
    let engine = replay_engine(true);
    let rec = engine.obs();
    let phase_ids = PHASES.map(|p| rec.intern(p));
    let mut layers = ReplayLayers::default();
    let mut chunk_start = rec.now_ns();
    for (i, spec) in specs.into_iter().enumerate() {
        let t = Instant::now();
        let mut actor =
            CohortActor::new(&engine, spec.clone(), cfg.model, cfg.session, cfg.policy());
        let mut compute = t.elapsed();
        layers.create_us.push(us(compute));
        let kind = actor.kind();
        let mut rounds = 0u64;
        loop {
            let t = Instant::now();
            let step = actor.run_round(&engine);
            let d = t.elapsed();
            compute += d;
            rounds += 1;
            layers
                .round_us
                .entry(kind_name(kind))
                .or_default()
                .push(us(d));
            match step {
                RoundStep::Finished(_) => break,
                RoundStep::Progressed if rounds == 1 => checkpoint_once(&actor, &mut layers),
                RoundStep::Progressed => {}
            }
        }
        layers.rounds += rounds;
        layers.rounds_per_cohort.push(rounds as f64);
        layers.compute_ms.insert(spec.id, ms(compute));
        read_engine_metrics(&engine, kind, rounds, &mut layers);
        if (i + 1) % SNAPSHOT_EVERY == 0 {
            chunk_start = read_phase_spans(&engine, &phase_ids, chunk_start, &mut layers);
        }
    }
    read_phase_spans(&engine, &phase_ids, chunk_start, &mut layers);
    layers
}

fn checkpoint_once(actor: &CohortActor, layers: &mut ReplayLayers) {
    let checkpoint = actor.checkpoint();
    let t = Instant::now();
    let bytes = std::hint::black_box(checkpoint.to_bytes());
    let encode = t.elapsed();
    let t = Instant::now();
    let decoded = CohortCheckpoint::from_bytes(std::hint::black_box(&bytes));
    let decode = t.elapsed();
    assert!(
        decoded.as_ref() == Ok(&checkpoint),
        "checkpoint of cohort {} did not round-trip",
        checkpoint.spec.id
    );
    layers.ckpt_encode_us.push(us(encode));
    layers.ckpt_decode_us.push(us(decode));
    layers.ckpt_bytes.push(bytes.len() as f64);
}

/// Fold the cohort's engine jobs and BP relaxations into `layers`, then
/// clear the registry for the next cohort.
fn read_engine_metrics(engine: &Engine, kind: CohortKind, rounds: u64, layers: &mut ReplayLayers) {
    let registry = engine.metrics();
    let mut task_total = Duration::ZERO;
    for job in registry.jobs() {
        layers.jobs += 1;
        let longest = job.max_task_time();
        layers
            .dispatch_us
            .push(us(job.wall.saturating_sub(longest)));
        layers
            .task_us
            .extend(job.tasks.iter().map(|t| us(t.duration)));
        task_total += job.total_task_time();
    }
    if matches!(kind, CohortKind::Dense | CohortKind::Sharded) {
        layers.lattice_task_ns += task_total.as_secs_f64() * 1e9;
        layers.lattice_rounds += rounds;
    }
    let bp = registry.bp_stats();
    if kind == CohortKind::Bp {
        layers.bp_sweeps += bp.sweeps.sum();
        layers.bp_rounds += rounds;
    }
    registry.clear();
}

/// Add the phase spans recorded since `since` (recorder clock); returns
/// the new chunk start.
fn read_phase_spans(engine: &Engine, ids: &[u32; 3], since: u64, layers: &mut ReplayLayers) -> u64 {
    let rec = engine.obs();
    let now = rec.now_ns();
    let snapshot = rec.snapshot();
    for ev in snapshot.all_events() {
        if ev.kind != SpanKind::Phase || ev.start_ns < since || ev.start_ns >= now {
            continue;
        }
        if let Some(k) = ids.iter().position(|&id| id == ev.name) {
            layers.phase_ns[k] += ev.end_ns.saturating_sub(ev.start_ns);
            layers.phase_spans[k] += 1;
        }
    }
    now
}

impl ReplayLayers {
    /// Session, engine, lattice, approx and checkpoint metrics. `cohort`
    /// is the workload's cohort size.
    pub fn report(&self, cohort: usize, m: &mut Metrics) {
        m.set_quantile("session.create_us.p50", &self.create_us, 0.5);
        for (kind, p50, p99) in [
            (
                "sharded",
                "session.round_us.sharded.p50",
                "session.round_us.sharded.p99",
            ),
            (
                "dense",
                "session.round_us.dense.p50",
                "session.round_us.dense.p99",
            ),
            ("bp", "session.round_us.bp.p50", "session.round_us.bp.p99"),
        ] {
            if let Some(samples) = self.round_us.get(kind) {
                m.set_quantile(p50, samples, 0.5);
                m.set_quantile(p99, samples, 0.99);
            }
        }
        if let Some(bp) = self.round_us.get("bp") {
            m.set_quantile("approx.round_us.p50", bp, 0.5);
        }
        if self.bp_rounds > 0 {
            m.set(
                "approx.bp_sweeps_per_round",
                self.bp_sweeps as f64 / self.bp_rounds as f64,
            );
        }
        m.set_mean("session.rounds_per_cohort", &self.rounds_per_cohort);
        let compute: Vec<f64> = self.compute_ms.values().copied().collect();
        m.set_quantile("session.cohort_compute_ms.p50", &compute, 0.5);
        let rounds = self.rounds.max(1) as f64;
        let phases = [
            "session.marginals_us",
            "session.select_us",
            "session.observe_us",
        ];
        for ((name, ns), spans) in phases.into_iter().zip(self.phase_ns).zip(self.phase_spans) {
            if spans > 0 {
                m.set(name, ns as f64 / 1e3 / rounds);
            }
        }
        m.set_mean("service.checkpoint_encode_us", &self.ckpt_encode_us);
        m.set_mean("service.checkpoint_decode_us", &self.ckpt_decode_us);
        m.set_mean("service.checkpoint_bytes", &self.ckpt_bytes);
        if self.jobs > 0 {
            m.set("engine.stages_per_round", self.jobs as f64 / rounds);
        }
        m.set_quantile("engine.dispatch_us.p50", &self.dispatch_us, 0.5);
        m.set_quantile("engine.task_us.p50", &self.task_us, 0.5);
        if self.lattice_rounds > 0 && cohort <= 16 {
            let states = (1u64 << cohort) as f64;
            m.set("lattice.posterior_bytes", states * 8.0);
            if self.lattice_task_ns > 0.0 {
                m.set(
                    "lattice.task_ns_per_state",
                    self.lattice_task_ns / self.lattice_rounds as f64 / states,
                );
            }
        }
    }
}

/// Cohorts whose dense and sharded replays differ: `(assays or statuses,
/// statuses)`. `sharded` is the replay under the workload's own (sharded)
/// placement; the dense replay runs here.
pub fn placement_divergence(sharded: &Replayed, cfg: &ServiceConfig) -> (u64, u64) {
    let dense_policy = SessionPolicy {
        dense_threshold: usize::MAX,
        ..cfg.policy()
    };
    let dense = replay(sharded.values().map(|(spec, _)| spec), cfg, dense_policy);
    let (mut any, mut status) = (0, 0);
    for (id, (_, s)) in sharded {
        let d = &dense[id].1;
        let statuses_differ = d.classification.statuses != s.classification.statuses;
        any += u64::from(statuses_differ || d.tests != s.tests);
        status += u64::from(statuses_differ);
    }
    (any, status)
}

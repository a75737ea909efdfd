//! The four workloads: what traffic each offers, at which fixed paced
//! rate, and which service configuration classifies it.

use std::time::Duration;

use sbgt_service::{ApproxBackend, ServiceConfig, Specimen, TenantSpec};
use sbgt_sim::traffic::{generate_arrivals, Arrival, TrafficConfig};

/// Where the cohorts run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One in-process `SurveillanceService`.
    InProcess,
    /// Two shard processes behind a `FabricRouter`.
    Fabric,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    pub topology: Topology,
    /// Offered rate of the paced phase, specimens per second. Fixed, and
    /// below the saturated capacity measured on a 2-core host.
    pub rate: f64,
    /// Specimens per cohort.
    pub batch: usize,
    /// Repetitions of each phase in a run.
    pub reps: usize,
    /// Share of `--seconds` the paced repetitions last together.
    pub paced_share: f64,
    /// Specimens each saturated repetition classifies per second of
    /// `--seconds`: all repetitions together last what the paced ones and
    /// the correctness gate leave of the run on a 2-core host.
    pub saturated_rate: f64,
    /// Whether each repetition offers a trace of its own. Where per-cohort
    /// cost is heavy-tailed, one trace holds too few cohorts for its cost
    /// to be the same from seed to seed.
    pub fresh_traces: bool,
}

/// Shard count of the fabric workload.
pub const FABRIC_SHARDS: u32 = 2;

/// A batch never closes by deadline within a run: both phases must
/// classify identical, size-closed cohorts.
const SIZE_ONLY_DEADLINE: Duration = Duration::from_secs(30);

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "screen",
        why: "default service config, mixed risks, cohorts of 10 on the 4-partition sharded path: admission, batching, WFQ and stage dispatch dominate; paced at 20000/s",
        topology: Topology::InProcess,
        rate: 20_000.0,
        batch: 10,
        reps: 9,
        paced_share: 0.5,
        saturated_rate: 2_500.0,
        fresh_traces: false,
    },
    Workload {
        name: "wide",
        why: "cohorts of 16, the 65536-state exact wall: lattice kernels and BHA selection dominate, the service layer is idle; paced at 2000/s",
        topology: Topology::InProcess,
        rate: 2_000.0,
        batch: 16,
        reps: 9,
        paced_share: 0.5,
        saturated_rate: 400.0,
        fresh_traces: false,
    },
    Workload {
        name: "fabric",
        why: "2 shard processes, 2 tenants at WFQ 2:1, cohorts of 12, plan cache with risk buckets, one mid-run drain: wire codec, reactor, plan cache, checkpoints; paced at 8000/s",
        topology: Topology::Fabric,
        rate: 8_000.0,
        batch: 12,
        // Turnaround here is steady and throughput is not: the saturated
        // phase gets most of the run, in more and shorter repetitions.
        reps: 15,
        paced_share: 0.25,
        saturated_rate: 2_160.0,
        fresh_traces: false,
    },
    Workload {
        name: "approx",
        why: "cohorts of 17 at 20% prevalence, one past the exact 2^16 wall, on the BP backend via approx_threshold 17: the only path into sbgt-approx; paced at 400/s",
        topology: Topology::InProcess,
        rate: 400.0,
        batch: 17,
        reps: 9,
        // Per-cohort BP cost is heavy-tailed: the saturated phase gets
        // more of the run, so it classifies more cohorts.
        paced_share: 0.35,
        saturated_rate: 36.0,
        fresh_traces: true,
    },
];

/// The service's view of a trace entry.
pub fn specimen(a: &Arrival) -> Specimen {
    Specimen {
        risk: a.risk,
        infected: a.infected,
    }
}

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The service configuration: of the in-process service, or of every
    /// shard in the fabric.
    pub fn service_config(&self, seed: u64) -> ServiceConfig {
        let base = ServiceConfig {
            batch_deadline: SIZE_ONLY_DEADLINE,
            base_seed: seed,
            ..ServiceConfig::default()
        };
        match self.name {
            "screen" => base,
            "wide" => ServiceConfig {
                batch_size: self.batch,
                ..base
            },
            "approx" => ServiceConfig {
                batch_size: self.batch,
                approx_threshold: 17,
                approx_backend: ApproxBackend::Bp,
                ..base
            },
            "fabric" => ServiceConfig {
                workers: 1,
                batch_size: self.batch,
                dense_threshold: self.batch + 1,
                plan_cache_nodes: 4096,
                plan_risk_buckets: 16,
                tenants: vec![TenantSpec::weighted(0, 2), TenantSpec::weighted(1, 1)],
                ..base
            },
            other => unreachable!("no service config for workload {other}"),
        }
    }

    /// The trace seed of repetition `rep` of a run with `seed`.
    pub fn trace_seed(&self, seed: u64, rep: usize) -> u64 {
        if self.fresh_traces {
            seed.wrapping_add((rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        } else {
            seed
        }
    }

    /// The seeded trace of `specimens` specimens: risk class and planted
    /// truth per specimen, Poisson arrival offsets at the paced rate.
    pub fn arrivals(&self, specimens: usize, seed: u64) -> Vec<Arrival> {
        let traffic = match self.name {
            "screen" | "wide" => TrafficConfig::mixed(self.rate, specimens, seed),
            "approx" => TrafficConfig {
                rate_per_sec: self.rate,
                ..TrafficConfig::large_cohort(self.batch, specimens / self.batch, 0.20, seed)
            },
            "fabric" => TrafficConfig::two_tenant(self.rate, specimens, 0.5, seed),
            other => unreachable!("no traffic for workload {other}"),
        };
        generate_arrivals(&traffic)
    }

    /// The paced phase's trace: [`Self::arrivals`] re-timed to a fixed
    /// rate, one specimen every `1 / rate` seconds, so turnaround does not
    /// vary with the seed's arrival gaps.
    pub fn paced_arrivals(&self, specimens: usize, seed: u64) -> Vec<Arrival> {
        let mut arrivals = self.arrivals(specimens, seed);
        for (i, a) in arrivals.iter_mut().enumerate() {
            a.at = Duration::from_secs_f64(i as f64 / self.rate);
        }
        arrivals
    }

    /// Specimens each paced repetition offers: the paced phase's share of
    /// the run at the paced rate, split over the repetitions and rounded
    /// up to whole cohorts.
    pub fn paced_specimens(&self, seconds: f64) -> usize {
        self.whole_cohorts(self.rate * seconds * self.paced_share / self.reps as f64)
    }

    /// Specimens each saturated repetition offers.
    pub fn saturated_specimens(&self, seconds: f64) -> usize {
        self.whole_cohorts(self.saturated_rate * seconds)
    }

    fn whole_cohorts(&self, specimens: f64) -> usize {
        (specimens.ceil() as usize).div_ceil(self.batch).max(1) * self.batch
    }
}

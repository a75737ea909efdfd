//! Drives the in-process workloads (`screen`, `wide`, `approx`) through one
//! `SurveillanceService`, from a single generator thread that also polls.

use std::collections::BTreeMap;
use std::io;
use std::thread;
use std::time::{Duration, Instant};

use sbgt_engine::obs::{ObsConfig, SpanKind, NO_COHORT};
use sbgt_engine::{EngineConfig, SharedEngine};
use sbgt_service::{CohortSpec, ServiceConfig, ServiceError, Specimen, SurveillanceService};
use sbgt_sim::traffic::Arrival;

use crate::catalogue::{shed_by_reason, shed_metric};
use crate::gate::PhaseResult;
use crate::replay::ENGINE_THREADS;
use crate::stats::{ms, us};
use crate::workloads::specimen;
use crate::{PhaseTiming, PHASE_TIMEOUT};

/// How often the paced generator polls for reports when it is idle.
const POLL_EVERY: Duration = Duration::from_micros(200);

/// Span-ring slots per thread in a traced paced phase: enough that no
/// `service:*` span of the phase is overwritten before it is read.
const PACED_LANE_CAPACITY: usize = 1 << 17;

/// Set-up of one phase: build the arrival trace, the engine and the
/// service. Returns them with the set-up time.
fn set_up(
    cfg: &ServiceConfig,
    obs: ObsConfig,
    make_arrivals: &dyn Fn() -> Vec<Arrival>,
) -> io::Result<(Vec<Arrival>, SharedEngine, SurveillanceService, Duration)> {
    let t = Instant::now();
    let arrivals = make_arrivals();
    let engine = SharedEngine::new(
        EngineConfig::default()
            .with_threads(ENGINE_THREADS)
            .with_obs(obs),
    );
    let service = SurveillanceService::start(engine.clone(), cfg.clone())
        .map_err(|e| io::Error::other(e.to_string()))?;
    Ok((arrivals, engine, service, t.elapsed()))
}

/// Per cohort, the time the service spent on it: its `service:batch-seal`
/// span (session creation) plus every `service:round` span. Empty when the
/// span rings wrapped, so no cohort is undercounted.
fn service_compute_ms(engine: &SharedEngine) -> BTreeMap<u64, f64> {
    let rec = engine.obs();
    let names = [
        rec.intern("service:batch-seal"),
        rec.intern("service:round"),
    ];
    let snapshot = rec.snapshot();
    let mut out = BTreeMap::new();
    if snapshot.total_dropped() > 0 {
        return out;
    }
    for ev in snapshot.all_events() {
        if ev.kind == SpanKind::Service && names.contains(&ev.name) && ev.meta.cohort != NO_COHORT {
            *out.entry(ev.meta.cohort).or_default() += (ev.end_ns - ev.start_ns) as f64 / 1e6;
        }
    }
    out
}

/// Admitted and shed specimens as the service counted them.
fn count_admissions(engine: &SharedEngine, result: &mut PhaseResult) {
    let stats = engine.metrics().service_stats();
    result.accepted = stats.submitted;
    result.shed = stats.shed;
    result.shed_by_reason = shed_by_reason(stats.shed, stats.shed_slo, stats.shed_draining);
}

/// Cohorts as the single-tenant batcher forms them: admitted specimens in
/// order, `batch` at a time, ids from 0.
fn rebuild_specs(cfg: &ServiceConfig, admitted: &[Specimen]) -> BTreeMap<u64, CohortSpec> {
    admitted
        .chunks(cfg.batch_size)
        .enumerate()
        .map(|(k, chunk)| {
            let spec = CohortSpec::from_specimens(k as u64, cfg.base_seed, chunk);
            (k as u64, spec)
        })
        .collect()
}

/// Open-loop phase at the workload's fixed rate: each specimen is due at
/// its trace offset, shed specimens are counted, and each specimen's
/// turnaround runs from its due time to the poll that returns its report.
pub fn paced(
    cfg: &ServiceConfig,
    traced: bool,
    make_arrivals: &dyn Fn() -> Vec<Arrival>,
) -> io::Result<(PhaseResult, PhaseTiming)> {
    let obs = if traced {
        ObsConfig::full().with_lane_capacity(PACED_LANE_CAPACITY)
    } else {
        ObsConfig::off()
    };
    let (arrivals, engine, service, setup) = set_up(cfg, obs, make_arrivals)?;
    let mut timing = PhaseTiming {
        setup,
        ..PhaseTiming::default()
    };
    let mut result = PhaseResult {
        offered: arrivals.len() as u64,
        ..PhaseResult::default()
    };
    let mut admitted: Vec<Specimen> = Vec::with_capacity(arrivals.len());
    let mut admitted_due: Vec<Instant> = Vec::with_capacity(arrivals.len());
    let mut admitted_at: Vec<Instant> = Vec::with_capacity(arrivals.len());
    let mut done: BTreeMap<u64, Instant> = BTreeMap::new();
    let start = Instant::now();
    let mut next = 0usize;
    let mut next_poll = start;
    loop {
        let now = Instant::now();
        while next < arrivals.len() && start + arrivals[next].at <= now {
            let a = &arrivals[next];
            let due = start + a.at;
            let t = if traced { Instant::now() } else { now };
            match service.try_submit_tagged(a.tenant, specimen(a)) {
                Ok(()) => {
                    let at = if traced {
                        let after = Instant::now();
                        timing.submit_us.push(us(after - t));
                        after
                    } else {
                        now
                    };
                    admitted.push(specimen(a));
                    admitted_due.push(due);
                    admitted_at.push(at);
                }
                Err(ServiceError::Shed(reason)) => {
                    *result.seen_shed.entry(shed_metric(reason)).or_default() += 1
                }
                Err(e) => return Err(io::Error::other(e.to_string())),
            }
            timing.lag_ms.push(ms(now - due));
            next += 1;
        }
        if now >= next_poll {
            let t = Instant::now();
            let got = service.take_completed();
            let at = Instant::now();
            if traced {
                timing.poll_us.push(us(at - t));
            }
            result.record(got, at, &mut done);
            next_poll = at + POLL_EVERY;
        }
        let full_cohorts = admitted.len() / cfg.batch_size;
        if next == arrivals.len() && result.reports.len() >= full_cohorts {
            break;
        }
        if now - start > PHASE_TIMEOUT {
            return Err(io::Error::other("paced phase timed out"));
        }
        let wake = match arrivals.get(next) {
            Some(a) => (start + a.at).min(next_poll),
            None => next_poll,
        };
        let now = Instant::now();
        if wake > now {
            thread::sleep(wake - now);
        }
    }
    // A shed leaves a partial last cohort; the drain seals it.
    let tail = service.drain();
    result.record(tail, Instant::now(), &mut done);
    timing.elapsed = done.values().max().map_or(Duration::ZERO, |&t| t - start);
    timing.queue_peak = engine.metrics().service_stats().queue_peak as f64;
    if traced {
        timing.service_compute_ms = service_compute_ms(&engine);
    }
    count_admissions(&engine, &mut result);
    result.seen_accepted = admitted.len() as u64;
    result.specs = rebuild_specs(cfg, &admitted);
    for (j, due) in admitted_due.iter().enumerate() {
        let cohort = (j / cfg.batch_size) as u64;
        let last = ((j / cfg.batch_size + 1) * cfg.batch_size).min(admitted.len()) - 1;
        let Some(&at) = done.get(&cohort) else {
            continue;
        };
        timing.turnaround.push((cohort, ms(at - *due)));
        timing
            .batch_fill_ms
            .push(ms(admitted_at[last] - admitted_at[j]));
    }
    Ok((result, timing))
}

/// Closed-loop phase: every specimen submitted with the blocking `submit`,
/// so backpressure paces the generator; throughput is specimens over the
/// time from the first submit to the poll returning the last report.
pub fn saturated(
    cfg: &ServiceConfig,
    traced: bool,
    make_arrivals: &dyn Fn() -> Vec<Arrival>,
) -> io::Result<(PhaseResult, PhaseTiming)> {
    let obs = if traced {
        ObsConfig::full()
    } else {
        ObsConfig::off()
    };
    let (arrivals, engine, service, setup) = set_up(cfg, obs, make_arrivals)?;
    let mut timing = PhaseTiming {
        setup,
        ..PhaseTiming::default()
    };
    let mut result = PhaseResult {
        offered: arrivals.len() as u64,
        ..PhaseResult::default()
    };
    let mut done = BTreeMap::new();
    let start = Instant::now();
    for a in &arrivals {
        let t = Instant::now();
        service
            .submit_tagged(a.tenant, specimen(a))
            .map_err(|e| io::Error::other(e.to_string()))?;
        if traced {
            timing.submit_us.push(us(t.elapsed()));
        }
    }
    let cohorts = arrivals.len().div_ceil(cfg.batch_size);
    while result.reports.len() < cohorts {
        let got = service.take_completed();
        result.record(got, Instant::now(), &mut done);
        if start.elapsed() > PHASE_TIMEOUT {
            return Err(io::Error::other("saturated phase timed out"));
        }
        thread::sleep(Duration::from_micros(100));
    }
    timing.elapsed = start.elapsed();
    let tail = service.drain();
    result.record(tail, Instant::now(), &mut done);
    let admitted: Vec<Specimen> = arrivals.iter().map(specimen).collect();
    count_admissions(&engine, &mut result);
    result.seen_accepted = admitted.len() as u64;
    result.specs = rebuild_specs(cfg, &admitted);
    Ok((result, timing))
}

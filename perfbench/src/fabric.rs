//! Drives the `fabric` workload: shard processes spawned by re-executing
//! this binary, a `FabricRouter` with one connection per shard, and one
//! generator thread that submits, polls and drains.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use sbgt_engine::obs::{parse_prometheus, ObsConfig};
use sbgt_engine::{EngineConfig, SharedEngine, TraceContext};
use sbgt_net::{
    FabricConfig, FabricRouter, HashRing, Request, Response, ShardServer, DEFAULT_VNODES,
};
use sbgt_service::{CohortReport, CohortSpec, ServiceConfig, ShedReason, Specimen};
use sbgt_sim::traffic::Arrival;

use crate::catalogue::{shed_by_reason, shed_metric};
use crate::gate::PhaseResult;
use crate::replay::ENGINE_THREADS;
use crate::stats::{ms, peak_rss_mb, us};
use crate::workloads::{specimen, Workload, FABRIC_SHARDS};
use crate::{PhaseTiming, PHASE_TIMEOUT};

/// How often the paced generator polls the fabric for reports when idle.
const POLL_EVERY: Duration = Duration::from_millis(1);
/// Shard drained out of the fabric mid-way through the paced phase.
const VICTIM: u32 = FABRIC_SHARDS - 1;

/// The shard role: serve one `ShardServer` until the router's shutdown.
pub fn serve_shard(w: &Workload, traced: bool) -> io::Result<()> {
    let obs = if traced {
        ObsConfig::full()
    } else {
        ObsConfig::off()
    };
    let engine = SharedEngine::new(
        EngineConfig::default()
            .with_threads(ENGINE_THREADS)
            .with_obs(obs),
    );
    let server = ShardServer::bind("127.0.0.1:0", engine, w.service_config(0))?;
    println!("ADDR {}", server.local_addr());
    io::stdout().flush()?;
    server.join()
}

/// Shard processes of one phase; killed and reaped on drop if the phase
/// ends early.
struct Shards {
    children: Vec<Child>,
}

impl Shards {
    fn spawn(w: &Workload, traced: bool) -> io::Result<(Shards, Vec<(u32, SocketAddr)>)> {
        let mut shards = Shards {
            children: Vec::new(),
        };
        let level = if traced { "1" } else { "0" };
        for _ in 0..FABRIC_SHARDS {
            let child = Command::new(std::env::current_exe()?)
                .args(["--shard", "--workload", w.name, "--trace", level])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()?;
            shards.children.push(child);
        }
        let mut addrs = Vec::new();
        for (id, child) in shards.children.iter_mut().enumerate() {
            let stdout = child.stdout.take().expect("shard stdout is piped");
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line)?;
            let addr = line
                .trim()
                .strip_prefix("ADDR ")
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| io::Error::other(format!("shard announced no address: {line:?}")))?;
            addrs.push((id as u32, addr));
        }
        Ok((shards, addrs))
    }

    /// Summed peak RSS of the shard processes, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .filter_map(|c| peak_rss_mb(Some(c.id())))
            .sum()
    }

    /// Wait for every shard to exit after a wire-side shutdown.
    fn wait(mut self) -> io::Result<()> {
        for mut child in std::mem::take(&mut self.children) {
            let status = child.wait()?;
            if !status.success() {
                return Err(io::Error::other(format!("shard exited with {status}")));
            }
        }
        Ok(())
    }
}

impl Drop for Shards {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

struct Live {
    router: FabricRouter,
    shards: Shards,
}

fn set_up(
    w: &Workload,
    seed: u64,
    traced: bool,
    make_arrivals: &dyn Fn() -> Vec<Arrival>,
) -> io::Result<(Vec<Arrival>, Live, Duration)> {
    let t = Instant::now();
    let arrivals = make_arrivals();
    let (shards, addrs) = Shards::spawn(w, traced)?;
    let config = FabricConfig {
        batch_size: w.batch,
        base_seed: seed,
        ..FabricConfig::default()
    };
    let router = FabricRouter::connect(&addrs, &config)?;
    Ok((arrivals, Live { router, shards }, t.elapsed()))
}

/// The router's client-side cohort formation, mirrored so the benchmark
/// knows each cohort's id, tenant and specimens without asking the router.
struct Mirror {
    batch: usize,
    base_seed: u64,
    pending: BTreeMap<u32, Vec<Specimen>>,
    next_id: u64,
}

impl Mirror {
    /// Whether submitting one more specimen for `tenant` seals a cohort.
    fn seals(&self, tenant: u32) -> bool {
        self.pending.get(&tenant).map_or(0, Vec::len) + 1 >= self.batch
    }

    fn push(&mut self, tenant: u32, s: Specimen) -> Option<CohortSpec> {
        let batch = self.pending.entry(tenant).or_default();
        batch.push(s);
        (batch.len() >= self.batch).then(|| self.seal(tenant))
    }

    fn seal(&mut self, tenant: u32) -> CohortSpec {
        let batch = self.pending.remove(&tenant).unwrap_or_default();
        let id = self.next_id;
        self.next_id += 1;
        CohortSpec::from_specimens(id, self.base_seed, &batch).with_tenant(tenant)
    }

    fn open_tenants(&self) -> Vec<u32> {
        self.pending.keys().copied().collect()
    }
}

/// Record a placed (or refused) cohort in the generator's tally of
/// `result`: a refusal, seen as a placement that left the router's
/// accepted count unchanged, under the reason the shard gave.
fn admit(router: &FabricRouter, accepted_before: u64, spec: CohortSpec, result: &mut PhaseResult) {
    if router.counters().accepted_specimens == accepted_before {
        let reason = router.last_shed_reason().unwrap_or(ShedReason::QueueFull);
        *result.seen_shed.entry(shed_metric(reason)).or_default() += 1;
    } else {
        result.seen_accepted += spec.n_subjects() as u64;
        result.specs.insert(spec.id, spec);
    }
}

/// Drain every remaining shard (which folds plan-cache counters into its
/// scrape), read the router's admission counters, the shards' shed and
/// plan-cache counters and shard memory, and shut down.
fn tear_down(live: Live, result: &mut PhaseResult, timing: &mut PhaseTiming) -> io::Result<()> {
    let Live { mut router, shards } = live;
    let at = Instant::now();
    for shard in router.live_shards() {
        let reports = router.drain_shard(shard)?;
        result.record(reports, at, &mut BTreeMap::new());
    }
    let counters = router.counters();
    result.accepted = counters.accepted_specimens;
    result.shed = counters.shed_specimens;
    let (mut shed, mut slo, mut draining) = (0.0, 0.0, 0.0);
    for shard in router.all_shards() {
        let samples = parse_prometheus(&router.stats(shard)?).map_err(io::Error::other)?;
        for s in samples {
            match s.name.as_str() {
                "sbgt_service_plan_hits_total" => timing.plan_hits += s.value,
                "sbgt_service_plan_misses_total" => timing.plan_misses += s.value,
                "sbgt_service_specimens_shed_total" => shed += s.value,
                "sbgt_service_specimens_shed_slo_total" => slo += s.value,
                "sbgt_service_specimens_shed_draining_total" => draining += s.value,
                _ => {}
            }
        }
    }
    result.shed_by_reason = shed_by_reason(shed as u64, slo as u64, draining as u64);
    timing.rss_mb = shards.peak_rss_mb();
    router.shutdown_all()?;
    shards.wait()
}

/// Open-loop phase at the fixed rate, with one drain of the victim shard
/// half-way through; its live cohorts move by checkpoint handoff.
pub fn paced(
    w: &Workload,
    seed: u64,
    traced: bool,
    make_arrivals: &dyn Fn() -> Vec<Arrival>,
) -> io::Result<(PhaseResult, PhaseTiming)> {
    let (arrivals, mut live, setup) = set_up(w, seed, traced, make_arrivals)?;
    let mut timing = PhaseTiming {
        setup,
        ..PhaseTiming::default()
    };
    let mut result = PhaseResult {
        offered: arrivals.len() as u64,
        ..PhaseResult::default()
    };
    let mut mirror = Mirror {
        batch: w.batch,
        base_seed: seed,
        pending: BTreeMap::new(),
        next_id: 0,
    };
    let ring = ring();
    let mut due_of: BTreeMap<u64, Vec<Instant>> = BTreeMap::new();
    let mut done: BTreeMap<u64, Instant> = BTreeMap::new();
    let mut polls: Vec<Vec<CohortReport>> = Vec::new();
    let mut drained = false;
    let start = Instant::now();
    let mut next = 0usize;
    let mut next_poll = start;
    let mut open_due: BTreeMap<u32, Vec<Instant>> = BTreeMap::new();
    loop {
        let now = Instant::now();
        while next < arrivals.len() && start + arrivals[next].at <= now {
            let a = &arrivals[next];
            let due = start + a.at;
            open_due.entry(a.tenant).or_default().push(due);
            let accepted_before = live.router.counters().accepted_specimens;
            let t = Instant::now();
            live.router.submit(a.tenant, specimen(a))?;
            let rtt = t.elapsed();
            if let Some(spec) = mirror.push(a.tenant, specimen(a)) {
                timing.place_us.push(us(rtt));
                due_of.insert(spec.id, open_due.remove(&a.tenant).unwrap_or_default());
                let id = spec.id;
                admit(&live.router, accepted_before, spec, &mut result);
                let midway = next >= arrivals.len() / 2;
                if !drained && midway && ring.shard_for(id).ok() == Some(VICTIM) {
                    drain_victim(&mut live.router, &mut result, &mut timing, &mut done)?;
                    drained = true;
                }
            }
            timing.lag_ms.push(ms(now - due));
            next += 1;
        }
        if next == arrivals.len() && !mirror.pending.is_empty() {
            for tenant in mirror.open_tenants() {
                let accepted_before = live.router.counters().accepted_specimens;
                let t = Instant::now();
                live.router.flush_tenant(tenant)?;
                timing.place_us.push(us(t.elapsed()));
                let spec = mirror.seal(tenant);
                due_of.insert(spec.id, open_due.remove(&tenant).unwrap_or_default());
                admit(&live.router, accepted_before, spec, &mut result);
            }
        }
        // A short trace may place no cohort on the victim after half-way:
        // drain it once everything is placed.
        if next == arrivals.len() && !drained {
            drain_victim(&mut live.router, &mut result, &mut timing, &mut done)?;
            drained = true;
        }
        if now >= next_poll {
            let t = Instant::now();
            let got = live.router.poll_reports()?;
            let at = Instant::now();
            timing.poll_us.push(us(at - t));
            if traced && !got.is_empty() {
                polls.push(got.clone());
            }
            result.record(got, at, &mut done);
            next_poll = at + POLL_EVERY;
        }
        if next == arrivals.len() && result.reports.len() >= result.specs.len() {
            break;
        }
        if now - start > PHASE_TIMEOUT {
            return Err(io::Error::other("fabric paced phase timed out"));
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
    timing.elapsed = done.values().max().map_or(Duration::ZERO, |&t| t - start);
    timing.relocated = live.router.counters().relocated_cohorts;
    for (id, dues) in &due_of {
        if let Some(&at) = done.get(id) {
            timing
                .turnaround
                .extend(dues.iter().map(|&due| (*id, ms(at - due))));
        }
    }
    if traced {
        codec_costs(&result, &polls, &mut timing);
    }
    tear_down(live, &mut result, &mut timing)?;
    Ok((result, timing))
}

/// Closed-loop phase: fewer than `max_live_cohorts` cohorts outstanding
/// per shard, so no placement sheds; polls only when a shard is full.
pub fn saturated(
    w: &Workload,
    seed: u64,
    traced: bool,
    make_arrivals: &dyn Fn() -> Vec<Arrival>,
) -> io::Result<(PhaseResult, PhaseTiming)> {
    let (arrivals, mut live, setup) = set_up(w, seed, traced, make_arrivals)?;
    // A shard hands out a report a moment before it counts the cohort
    // complete, so a cohort placed right after that poll can still find
    // the shard full; one cohort of headroom per shard (one worker each)
    // keeps the closed loop from ever shedding.
    let cfg: ServiceConfig = w.service_config(seed);
    let max_live = cfg.max_live_cohorts as u64 - 1;
    let mut timing = PhaseTiming {
        setup,
        ..PhaseTiming::default()
    };
    let mut result = PhaseResult {
        offered: arrivals.len() as u64,
        ..PhaseResult::default()
    };
    let mut mirror = Mirror {
        batch: w.batch,
        base_seed: seed,
        pending: BTreeMap::new(),
        next_id: 0,
    };
    let ring = ring();
    let mut outstanding: BTreeMap<u32, u64> = BTreeMap::new();
    let mut done = BTreeMap::new();
    let start = Instant::now();
    // Make room on the shard that cohort `id` lands on.
    let mut make_room = |live: &mut Live,
                         result: &mut PhaseResult,
                         done: &mut BTreeMap<u64, Instant>,
                         id: u64|
     -> io::Result<()> {
        let shard = ring
            .shard_for(id)
            .map_err(|e| io::Error::other(e.to_string()))?;
        while outstanding.get(&shard).copied().unwrap_or(0) >= max_live {
            let got = live.router.poll_reports()?;
            if got.is_empty() {
                thread::sleep(Duration::from_micros(200));
            }
            for r in &got {
                let s = ring
                    .shard_for(r.cohort)
                    .map_err(|e| io::Error::other(e.to_string()))?;
                *outstanding.entry(s).or_default() -= 1;
            }
            result.record(got, Instant::now(), done);
            if start.elapsed() > PHASE_TIMEOUT {
                return Err(io::Error::other("fabric saturated phase timed out"));
            }
        }
        *outstanding.entry(shard).or_default() += 1;
        Ok(())
    };
    for a in &arrivals {
        if mirror.seals(a.tenant) {
            make_room(&mut live, &mut result, &mut done, mirror.next_id)?;
        }
        let accepted_before = live.router.counters().accepted_specimens;
        live.router.submit(a.tenant, specimen(a))?;
        if let Some(spec) = mirror.push(a.tenant, specimen(a)) {
            admit(&live.router, accepted_before, spec, &mut result);
        }
    }
    for tenant in mirror.open_tenants() {
        make_room(&mut live, &mut result, &mut done, mirror.next_id)?;
        let accepted_before = live.router.counters().accepted_specimens;
        live.router.flush_tenant(tenant)?;
        admit(
            &live.router,
            accepted_before,
            mirror.seal(tenant),
            &mut result,
        );
    }
    while result.reports.len() < result.specs.len() {
        let got = live.router.poll_reports()?;
        if got.is_empty() {
            thread::sleep(Duration::from_micros(200));
        }
        result.record(got, Instant::now(), &mut done);
        if start.elapsed() > PHASE_TIMEOUT {
            return Err(io::Error::other("fabric saturated phase timed out"));
        }
    }
    timing.elapsed = start.elapsed();
    tear_down(live, &mut result, &mut timing)?;
    Ok((result, timing))
}

/// Drain the victim shard, timing the drain and recording the reports it
/// returned.
fn drain_victim(
    router: &mut FabricRouter,
    result: &mut PhaseResult,
    timing: &mut PhaseTiming,
    done: &mut BTreeMap<u64, Instant>,
) -> io::Result<()> {
    let t = Instant::now();
    let reports = router.drain_shard(VICTIM)?;
    let at = Instant::now();
    timing.drain_ms = Some(ms(at - t));
    result.record(reports, at, done);
    Ok(())
}

fn ring() -> HashRing {
    let mut ring = HashRing::new(DEFAULT_VNODES);
    for shard in 0..FABRIC_SHARDS {
        ring.add_shard(shard);
    }
    ring
}

/// Wire codec cost of the frames the run exchanged: every placement
/// request and every non-empty report response, encoded and decoded again
/// after the phase so the measurement does not perturb it.
fn codec_costs(result: &PhaseResult, polls: &[Vec<CohortReport>], timing: &mut PhaseTiming) {
    for spec in result.specs.values() {
        let request = Request::PlaceCohort {
            spec: spec.clone(),
            trace: Some(TraceContext::for_cohort(spec.id)),
        };
        let t = Instant::now();
        let bytes = std::hint::black_box(request.encode());
        timing.frame_encode_us.push(us(t.elapsed()));
        let t = Instant::now();
        let decoded = Request::decode(std::hint::black_box(&bytes));
        timing.frame_decode_us.push(us(t.elapsed()));
        assert!(
            matches!(decoded, Ok((ref r, n)) if *r == request && n == bytes.len()),
            "placement frame of cohort {} did not round-trip",
            spec.id
        );
        timing.frame_bytes += bytes.len() as u64;
    }
    for reports in polls {
        let response = Response::Reports {
            reports: reports.clone(),
        };
        let bytes = response.encode();
        let t = Instant::now();
        let decoded = Response::decode(std::hint::black_box(&bytes));
        timing.frame_decode_us.push(us(t.elapsed()));
        assert!(
            matches!(decoded, Ok((ref r, _)) if *r == response),
            "report frame did not round-trip"
        );
        timing.frame_bytes += bytes.len() as u64;
    }
}

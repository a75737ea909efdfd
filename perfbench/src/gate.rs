//! The correctness gate every run passes through, and the statistical
//! quality of the classifications against planted truth.

use std::collections::BTreeMap;
use std::time::Instant;

use sbgt::prelude::SubjectStatus;
use sbgt::SessionOutcome;
use sbgt_service::{CohortReport, CohortSpec};

/// What one phase of a run produced.
#[derive(Debug, Default, Clone)]
pub struct PhaseResult {
    /// Admitted cohorts as the benchmark rebuilt them, by cohort id.
    pub specs: BTreeMap<u64, CohortSpec>,
    /// Reports the system returned, by cohort id.
    pub reports: BTreeMap<u64, CohortReport>,
    /// Specimens the trace offered.
    pub offered: u64,
    /// Specimens admitted and refused, from the system's own counters.
    pub accepted: u64,
    pub shed: u64,
    /// The system's shed counters by metric name (specimens in process,
    /// cohort placements in `fabric`).
    pub shed_by_reason: BTreeMap<&'static str, u64>,
    /// The generator's tally: specimens whose submission the system
    /// acknowledged, and refusals by metric name of their reason, in the
    /// units of `shed_by_reason`.
    pub seen_accepted: u64,
    pub seen_shed: BTreeMap<&'static str, u64>,
}

impl PhaseResult {
    /// Add `reports`, polled at `at`, noting each cohort's completion time
    /// in `done`.
    pub fn record(
        &mut self,
        reports: Vec<CohortReport>,
        at: Instant,
        done: &mut BTreeMap<u64, Instant>,
    ) {
        for r in reports {
            done.insert(r.cohort, at);
            self.reports.insert(r.cohort, r);
        }
    }
}

/// Whether two outcomes agree bit for bit: assays, statuses and marginal
/// bits.
pub fn same_bits(a: &SessionOutcome, b: &SessionOutcome) -> bool {
    a.tests == b.tests
        && a.subjects == b.subjects
        && a.classification.statuses == b.classification.statuses
        && a.marginals.len() == b.marginals.len()
        && a.marginals
            .iter()
            .zip(&b.marginals)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Running tally of checked cohorts and every failed check.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Gate {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Offered = accepted + shed by the system's counters, which agree
    /// with the generator's tally, reason by reason; every admitted cohort
    /// reported exactly once, and classified specimens = accepted
    /// specimens.
    pub fn check_ledger(&mut self, phase: &str, p: &PhaseResult) {
        if p.offered != p.accepted + p.shed {
            self.fail(format!(
                "{phase}: ledger {} offered != {} accepted + {} shed",
                p.offered, p.accepted, p.shed
            ));
        }
        if p.seen_accepted != p.accepted {
            self.fail(format!(
                "{phase}: system counted {} specimens accepted, generator saw {}",
                p.accepted, p.seen_accepted
            ));
        }
        let reasons = p.shed_by_reason.keys().chain(p.seen_shed.keys());
        for reason in reasons.collect::<std::collections::BTreeSet<_>>() {
            let counted = p.shed_by_reason.get(reason).copied().unwrap_or(0);
            let seen = p.seen_shed.get(reason).copied().unwrap_or(0);
            if counted != seen {
                self.fail(format!(
                    "{phase}: system counted {counted} {reason}, generator saw {seen}"
                ));
            }
        }
        let classified: u64 = p.reports.values().map(|r| r.subjects as u64).sum();
        if classified != p.accepted {
            self.fail(format!(
                "{phase}: {classified} specimens classified != {} accepted",
                p.accepted
            ));
        }
        let admitted: u64 = p.specs.values().map(|s| s.n_subjects() as u64).sum();
        if admitted != p.accepted {
            self.fail(format!(
                "{phase}: rebuilt cohorts hold {admitted} specimens != {} accepted",
                p.accepted
            ));
        }
        for id in p.reports.keys().filter(|id| !p.specs.contains_key(id)) {
            self.fail(format!("{phase}: report for unknown cohort {id}"));
        }
    }

    /// Every admitted cohort's report matches the serial replay of its
    /// spec bit for bit. Each of `replays` maps cohort id to `(spec,
    /// outcome)`; the first whose spec equals the cohort's is used.
    pub fn check_replay(
        &mut self,
        phase: &str,
        p: &PhaseResult,
        replays: &[&BTreeMap<u64, (CohortSpec, SessionOutcome)>],
    ) {
        for (id, spec) in &p.specs {
            self.attempted += 1;
            let Some(report) = p.reports.get(id) else {
                self.fail(format!("{phase}: cohort {id} never reported"));
                continue;
            };
            let replayed = replays
                .iter()
                .filter_map(|r| r.get(id))
                .find(|(rspec, _)| rspec == spec);
            match replayed {
                Some((_, outcome)) => {
                    if report.subjects != spec.n_subjects() || !same_bits(&report.outcome, outcome)
                    {
                        self.fail(format!(
                            "{phase}: cohort {id} differs from its serial replay"
                        ));
                    }
                }
                _ => self.fail(format!("{phase}: cohort {id} has no replay")),
            }
        }
    }

    /// Cohorts both phases formed identically returned identical reports.
    pub fn check_phases_agree(&mut self, paced: &PhaseResult, saturated: &PhaseResult) {
        for (id, spec) in &paced.specs {
            if saturated.specs.get(id) != Some(spec) {
                continue;
            }
            if let (Some(a), Some(b)) = (paced.reports.get(id), saturated.reports.get(id)) {
                if !same_bits(&a.outcome, &b.outcome) {
                    self.fail(format!("cohort {id}: paced and saturated reports differ"));
                }
            }
        }
    }
}

/// Assays per specimen, sensitivity and specificity against planted truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    pub assays_per_specimen: f64,
    pub sensitivity: f64,
    pub specificity: f64,
}

/// Quality over every report of `phases`.
pub fn quality<'a>(phases: impl IntoIterator<Item = &'a PhaseResult>) -> Quality {
    let (mut assays, mut subjects) = (0usize, 0usize);
    let (mut pos, mut true_pos, mut neg, mut true_neg) = (0u64, 0u64, 0u64, 0u64);
    for (p, (id, report)) in phases
        .into_iter()
        .flat_map(|p| p.reports.iter().map(move |r| (p, r)))
    {
        let Some(spec) = p.specs.get(id) else {
            continue;
        };
        assays += report.outcome.tests;
        subjects += report.subjects;
        for (j, status) in report.outcome.classification.statuses.iter().enumerate() {
            if spec.truth.contains(j) {
                pos += 1;
                true_pos += u64::from(*status == SubjectStatus::Positive);
            } else {
                neg += 1;
                true_neg += u64::from(*status == SubjectStatus::Negative);
            }
        }
    }
    let ratio = |a: u64, b: u64| if b == 0 { 1.0 } else { a as f64 / b as f64 };
    Quality {
        assays_per_specimen: assays as f64 / subjects.max(1) as f64,
        sensitivity: ratio(true_pos, pos),
        specificity: ratio(true_neg, neg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{replay, Replayed};
    use crate::workloads::by_name;
    use sbgt_service::Specimen;

    /// Three screen cohorts, their serial replay, and faithful reports.
    fn faithful() -> (PhaseResult, Replayed) {
        let cfg = by_name("screen")
            .expect("screen workload")
            .service_config(5);
        let specimens: Vec<Specimen> = (0..30)
            .map(|i| Specimen {
                risk: if i % 4 == 0 { 0.12 } else { 0.02 },
                infected: i % 7 == 0,
            })
            .collect();
        let mut phase = PhaseResult {
            offered: 30,
            accepted: 30,
            seen_accepted: 30,
            ..PhaseResult::default()
        };
        for (k, chunk) in specimens.chunks(cfg.batch_size).enumerate() {
            let spec = CohortSpec::from_specimens(k as u64, cfg.base_seed, chunk);
            phase.specs.insert(k as u64, spec);
        }
        let reference = replay(phase.specs.values(), &cfg, cfg.policy());
        for (id, (spec, outcome)) in &reference {
            let report = CohortReport {
                cohort: *id,
                tenant: 0,
                subjects: spec.n_subjects(),
                recovered_rounds: 0,
                outcome: outcome.clone(),
            };
            phase.reports.insert(*id, report);
        }
        (phase, reference)
    }

    fn verdict(phase: &PhaseResult, reference: &Replayed) -> Gate {
        let mut gate = Gate::default();
        gate.check_ledger("test", phase);
        gate.check_replay("test", phase, &[reference]);
        gate
    }

    #[test]
    fn faithful_reports_pass() {
        let (phase, reference) = faithful();
        let gate = verdict(&phase, &reference);
        assert!(gate.correct(), "{:?}", gate.problems);
        assert_eq!(gate.attempted, 3);
    }

    #[test]
    fn flipped_status_trips_the_gate() {
        let (mut phase, reference) = faithful();
        let status = &mut phase
            .reports
            .get_mut(&1)
            .unwrap()
            .outcome
            .classification
            .statuses[0];
        *status = match *status {
            SubjectStatus::Positive => SubjectStatus::Negative,
            _ => SubjectStatus::Positive,
        };
        let gate = verdict(&phase, &reference);
        assert!(!gate.correct());
        assert_eq!(gate.failed, 1);
    }

    #[test]
    fn flipped_marginal_bit_trips_the_gate() {
        let (mut phase, reference) = faithful();
        let m = &mut phase.reports.get_mut(&2).unwrap().outcome.marginals[3];
        *m = f64::from_bits(m.to_bits() ^ 1);
        assert_eq!(verdict(&phase, &reference).failed, 1);
    }

    #[test]
    fn missing_report_and_unbalanced_ledger_trip_the_gate() {
        let (mut phase, reference) = faithful();
        phase.reports.remove(&0);
        phase.offered += 1;
        let gate = verdict(&phase, &reference);
        // Ledger (offered != accepted + shed), classified != accepted,
        // and the unreported cohort.
        assert_eq!(gate.failed, 3, "{:?}", gate.problems);
    }

    #[test]
    fn counters_that_disagree_with_the_generator_trip_the_gate() {
        let (mut phase, reference) = faithful();
        // The system counts one more admitted specimen than the generator
        // saw acknowledged, and a shed the generator never saw refused.
        phase.accepted += 1;
        phase.offered += 2;
        phase.shed = 1;
        phase.shed_by_reason.insert("service.shed.queue_full", 1);
        let gate = verdict(&phase, &reference);
        // Accepted vs seen, the queue-full shed, classified != accepted,
        // rebuilt cohorts != accepted.
        assert_eq!(gate.failed, 4, "{:?}", gate.problems);
    }

    #[test]
    fn phases_that_disagree_trip_the_gate() {
        let (paced, _) = faithful();
        let mut saturated = paced.clone();
        saturated.reports.get_mut(&0).unwrap().outcome.tests += 1;
        let mut gate = Gate::default();
        gate.check_phases_agree(&paced, &saturated);
        assert_eq!(gate.failed, 1);
    }
}

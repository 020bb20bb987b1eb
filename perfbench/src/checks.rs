//! Output checks run on every workload, and failed-round accounting.
//!
//! A check that does not hold is recorded as a failure message; any
//! failure makes the run report `"correct": false` and exit non-zero.

use edgeslice::{
    EdgeSliceSystem, IntervalStatus, PerformanceCoordinator, RaId, RunReport, SliceId,
};
use edgeslice_nn::Mlp;

/// Tolerance of the per-resource capacity check (shares are projected
/// onto the simplex in floating point).
const SHARE_EPS: f64 = 1e-9;

/// FNV-1a over `bytes`: a stable digest for byte-identity checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of a report's JSON form.
pub fn report_digest(report: &RunReport) -> u64 {
    fnv1a(
        serde_json::to_string(report)
            .expect("RunReport serialises")
            .as_bytes(),
    )
}

/// Digest of a network's parameters, bit for bit.
pub fn params_digest(nets: &[&Mlp]) -> u64 {
    let bytes: Vec<u8> = nets
        .iter()
        .flat_map(|n| n.flat_params())
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// Collected check failures.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure unless `ok`.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Requires two digests of what must be the same computation to match.
    pub fn same(&mut self, what: &str, a: u64, b: u64) {
        self.require(a == b, || {
            format!("{what}: digests differ ({a:016x} vs {b:016x})")
        });
    }

    /// The recorded failures.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Checks a finished system and the reports its rounds produced:
    /// per-RA capacity `Σ_i x_ij ≤ 1` on every served interval, finite ADMM
    /// state, and each round's `sla_met` against the coordinator.
    pub fn system(&mut self, sys: &EdgeSliceSystem, reports: &[&RunReport]) {
        self.capacity(sys);
        self.admm_finite(sys.coordinator());
        let n_ras = sys.config().n_ras;
        let n_slices = sys.config().slices.len();
        for record in reports.iter().flat_map(|r| &r.rounds) {
            // With every interval served, the SLA target is not prorated
            // and the coordinator's own test applies directly.
            if record.served_fraction < 1.0 {
                continue;
            }
            let achieved = sys
                .monitor()
                .round_performance(record.round, n_slices, n_ras);
            for (i, &met) in record.sla_met.iter().enumerate() {
                let expected = sys.coordinator().sla_met(SliceId(i), &achieved);
                self.require(met == expected, || {
                    format!(
                        "round {} slice {i}: sla_met {met} but the coordinator says {expected}",
                        record.round
                    )
                });
            }
        }
    }

    /// `Σ_i x_ij ≤ 1` per resource for every served (round, interval, RA).
    fn capacity(&mut self, sys: &EdgeSliceSystem) {
        let mut sums: std::collections::BTreeMap<(usize, usize, RaId), [f64; 3]> =
            std::collections::BTreeMap::new();
        for r in sys.monitor().records() {
            if r.status != IntervalStatus::Served {
                continue;
            }
            let acc = sums.entry((r.round, r.interval, r.ra)).or_default();
            for (a, s) in acc.iter_mut().zip(r.shares) {
                *a += s;
            }
        }
        for ((round, interval, ra), total) in sums {
            self.require(total.iter().all(|&s| s <= 1.0 + SHARE_EPS), || {
                format!(
                    "round {round} interval {interval} ra {}: shares {total:?} exceed capacity",
                    ra.0
                )
            });
        }
    }

    /// Every `z` and `y` entry is finite.
    fn admm_finite(&mut self, coord: &PerformanceCoordinator) {
        let finite = coord
            .z()
            .iter()
            .chain(coord.y())
            .flatten()
            .all(|v| v.is_finite());
        self.require(finite, || "ADMM z/y holds a non-finite value".into());
    }
}

/// Rounds that failed: a round with a downed or dark RA or a discarded
/// report, plus one per deadline timeout and abandoned send, plus every
/// attempted round missing from the report. Capped at `attempted`.
/// (An expired lease always downs its RA, so it is counted through the
/// round it downed.)
pub fn failed_rounds(report: &RunReport, attempted: usize) -> usize {
    let sup = &report.supervision;
    let bad_rounds = report
        .rounds
        .iter()
        .filter(|r| {
            !r.downed.is_empty()
                || !r.outages.is_empty()
                || r.discarded_reports > 0
                || sup.worker_downs.iter().any(|d| d.round == r.round)
        })
        .count();
    let missing = attempted.saturating_sub(report.rounds.len());
    (bad_rounds + sup.deadline_timeouts + sup.sends_abandoned + missing).min(attempted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeslice::{DownEvent, RoundRecord};

    fn round(i: usize) -> RoundRecord {
        RoundRecord {
            round: i,
            system_performance: -1.0,
            slice_performance: vec![-1.0],
            usage: vec![[0.5; 3]],
            residuals: edgeslice_optim::AdmmResiduals {
                primal: 0.0,
                dual: 0.0,
            },
            sla_met: vec![true],
            outages: Vec::new(),
            downed: Vec::new(),
            discarded_reports: 0,
            served_fraction: 1.0,
            load: vec![0.0],
        }
    }

    #[test]
    fn clean_report_has_no_failed_rounds() {
        let report = RunReport {
            rounds: (0..5).map(round).collect(),
            ..RunReport::default()
        };
        assert_eq!(failed_rounds(&report, 5), 0);
    }

    #[test]
    fn each_failure_kind_counts_and_missing_rounds_fail() {
        let mut report = RunReport {
            rounds: (0..6).map(round).collect(),
            ..RunReport::default()
        };
        report.rounds[1].downed = vec![RaId(0)];
        report.rounds[2].outages = vec![RaId(1)];
        report.rounds[3].discarded_reports = 2;
        // A down event on round 3 as well: still one failed round.
        report.supervision.worker_downs.push(DownEvent {
            ra: RaId(0),
            round: 3,
            cause: "lease expired".into(),
        });
        report.supervision.deadline_timeouts = 1;
        report.supervision.sends_abandoned = 1;
        // 3 bad rounds + 1 timeout + 1 abandoned send + 2 missing rounds.
        assert_eq!(failed_rounds(&report, 8), 7);
        // Never more failures than attempts.
        report.supervision.deadline_timeouts = 50;
        assert_eq!(failed_rounds(&report, 8), 8);
    }

    #[test]
    fn digests_are_stable_and_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        let mut checks = Checks::default();
        checks.same("x", 1, 1);
        assert!(checks.failures().is_empty());
        checks.same("x", 1, 2);
        assert_eq!(checks.failures().len(), 1);
    }
}

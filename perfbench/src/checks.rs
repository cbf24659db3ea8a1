//! Output checks on every timed run, and the failure tally they feed.
//!
//! `attempted` counts the operations a run tried: every order placed
//! plus every output check made. `failed` counts portal-rejected
//! orders, tenants still unresolved at the wave guard, scrapped
//! flights and failed checks. An order refunded because its allotment
//! ran out resolved as designed and is not a failure.

use androne::{FleetConfig, FleetOutcome, ScaleOutcome, ScaleResolution, TenantResolution};

/// Attempted and failed operations across a run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the human-readable report.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {attempted} {what} failed"));
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Failed operations ÷ attempted (0 before anything is attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The digests every repeat of one seed must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    pub fleet: u64,
    pub metrics: u64,
}

/// Checks one ladder run: quiescence, each tenant resolved exactly
/// once, no VDR lease left outstanding, the reference digests, and —
/// on the matched ladder — that nothing bounced or spilled.
pub fn check_ladder(t: &mut Tally, out: &ScaleOutcome, reference: Digests, matched: bool) {
    let m = &out.metrics;
    let n = out.config.tenants;
    let resolved = m.counter("scale.tenants_completed") + m.counter("scale.tenants_exhausted");
    let unresolved = if out.quiescent {
        0
    } else {
        (n as u64).saturating_sub(resolved)
    };
    t.ops(
        n as u64,
        m.counter("scale.orders_rejected") + unresolved,
        "orders",
    );
    t.check(out.quiescent, || {
        format!("not quiescent after {} waves", out.waves_run)
    });
    let consistent = out.tenants.values().all(|o| match o.resolution {
        ScaleResolution::Completed => o.waypoints_completed == o.waypoints_total,
        ScaleResolution::Exhausted => o.waypoints_completed < o.waypoints_total,
    });
    t.check(
        out.tenants.len() == n && resolved == n as u64 && consistent,
        || {
            format!(
                "resolution not exactly once: {} tenants, {resolved} resolutions for {n} orders",
                out.tenants.len()
            )
        },
    );
    t.check(out.vdr.leased == 0, || {
        format!("{} VDR leases outstanding at quiescence", out.vdr.leased)
    });
    let got = Digests {
        fleet: out.fleet_digest(),
        metrics: out.metrics_digest(),
    };
    t.check(got == reference, || {
        format!("digests {got:x?} differ from the seed's reference {reference:x?}")
    });
    if matched {
        let spilled = m.counter("scale.legs_spilled");
        t.check(out.backpressured_submissions == 0 && spilled == 0, || {
            format!(
                "matched admission bounced {} submissions and spilled {spilled} legs",
                out.backpressured_submissions
            )
        });
    }
}

/// Checks one fleet run: quiescence before the wave guard, each
/// tenant resolved exactly once (its flight count matching the
/// flights that carried it), no scrapped flight, and the reference
/// digests. VDR leases are not visible in a fleet outcome; the traced
/// replay checks them.
pub fn check_fleet(t: &mut Tally, cfg: &FleetConfig, out: &FleetOutcome, reference: Digests) {
    let n = cfg.tenants.len();
    let quiescent = out.waves_run < cfg.max_waves;
    let unresolved = if quiescent {
        0
    } else {
        out.tenants
            .values()
            .filter(|o| o.resolution == TenantResolution::Refunded)
            .count() as u64
    };
    t.ops(n as u64, unresolved, "orders");
    let scrapped = out
        .cloud_log
        .iter()
        .filter(|l| l.contains("scrapped"))
        .count() as u64;
    t.ops(out.flights.len() as u64 + scrapped, scrapped, "flights");
    t.check(quiescent, || {
        format!(
            "wave guard hit: {} of {} waves run",
            out.waves_run, cfg.max_waves
        )
    });
    let exactly_once = out.tenants.len() == n
        && out.tenants.iter().all(|(name, o)| {
            let carried = out
                .flights
                .iter()
                .filter(|f| f.owners.contains(name))
                .count();
            let consistent = match o.resolution {
                TenantResolution::Completed => o.waypoints_completed == o.waypoints_total,
                TenantResolution::Refunded => o.waypoints_completed < o.waypoints_total,
            };
            carried == o.flights_flown as usize && consistent
        });
    t.check(exactly_once, || {
        "tenant resolution not exactly once".to_string()
    });
    let got = Digests {
        fleet: out.fleet_digest(),
        metrics: out.metrics_digest(),
    };
    t.check(got == reference, || {
        format!("digests {got:x?} differ from the seed's reference {reference:x?}")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne::{execute_scale_fleet, ScaleConfig};

    fn small_ladder() -> ScaleOutcome {
        let cfg = ScaleConfig {
            fleet_size: 4,
            admit_per_wave: 12,
            queue_capacity: 24,
            ..ScaleConfig::rung(40)
        };
        execute_scale_fleet(&cfg)
    }

    fn digests(out: &ScaleOutcome) -> Digests {
        Digests {
            fleet: out.fleet_digest(),
            metrics: out.metrics_digest(),
        }
    }

    #[test]
    fn a_good_run_fails_nothing() {
        let out = small_ladder();
        let mut t = Tally::default();
        check_ladder(&mut t, &out, digests(&out), false);
        assert!(t.correct(), "{:?}", t.failures);
        assert_eq!(t.failed_ratio(), 0.0);
        assert_eq!(t.attempted, 40 + 4);
    }

    #[test]
    fn an_injected_bad_output_counts_into_failed_ratio() {
        let reference = small_ladder();
        let want = digests(&reference);

        // A tenant whose record claims completion short of its last
        // waypoint, and a lease left outstanding: two failed checks.
        let mut bad = small_ladder();
        if let Some(o) = bad.tenants.values_mut().next() {
            o.resolution = ScaleResolution::Completed;
            o.waypoints_completed = o.waypoints_total - 1;
        }
        bad.vdr.leased = 1;
        let mut t = Tally::default();
        check_ladder(&mut t, &bad, want, false);
        // The corrupted record also changes the fleet digest.
        assert_eq!(t.failed, 3, "{:?}", t.failures);
        assert!(!t.correct());
        assert!((t.failed_ratio() - 3.0 / t.attempted as f64).abs() < 1e-12);

        // The matched-admission check fails a run that bounced.
        let mut t = Tally::default();
        check_ladder(&mut t, &reference, want, true);
        assert_eq!(t.failed, 1, "the small rung backpressures by design");
    }
}

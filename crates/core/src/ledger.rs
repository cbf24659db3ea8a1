//! The tenant ledger both fleet executors write through, and the audit
//! of what they report.
//!
//! The paper's service lifecycle (Section 2, Figure 4) has one ledger
//! rule: each flight bills the energy a virtual drone used and saves it
//! to the VDR with the allotment left over, and a mission the service
//! cannot finish gets that remainder refunded. [`TenantBook`] writes
//! each of those events in one place for both the full-fidelity fleet
//! ([`crate::fleet`]) and the closed-form ladder ([`crate::scale`]).
//! Each executor keeps its own billing charge; the audits
//! ([`FleetOutcome::audit`], [`ScaleOutcome::audit`]) cross-check both
//! charge paths against the book and apply one settlement rule to
//! every tenant (DESIGN.md, "Tenant ledger").

use std::collections::BTreeMap;
use std::sync::Arc;

use androne_android::AndroneManifest;
use androne_cloud::{FallibleCloud, SaveReason, SavedVirtualDrone, VirtualDroneRepository};
use androne_container::ContainerArchive;
use androne_energy::BillingLedger;
use androne_vdc::VirtualDroneSpec;

use crate::fleet::{FleetOutcome, TenantOutcome, TenantResolution};
use crate::scale::{energy_allotments_j, ScaleOutcome, ScaleResolution, ScaleTenantOutcome};

/// Relative tolerance, scaled by the allotment, of every energy
/// equality the audit checks. Billed energy is a sum of a few flights'
/// charges and the refund is the allotment minus that sum, so an honest
/// book is off by a few roundings (~1e-16 relative each); a refund
/// short by a millijoule on a 60 kJ allotment is caught.
const LEDGER_REL_EPS: f64 = 1e-12;

/// Ladder metrics counter: billing accounts whose ledger disagreed
/// with the book at the end of the run. Never written on an honest run,
/// so it stays out of every pinned digest.
pub(crate) const LADDER_LEDGER_MISMATCHES: &str = "scale.ledger_mismatches";

/// One tenant's ledger line. Executors read lines; only the book's
/// event methods write them.
pub(crate) struct Line<P> {
    /// Virtual drone name: the VDR key.
    pub name: Arc<str>,
    pub user: String,
    /// The order as placed, boxed to keep the dense table small.
    pub spec: Box<VirtualDroneSpec>,
    pub flights_flown: u32,
    /// Waypoints of `spec` served so far.
    pub waypoints_completed: usize,
    pub billed_energy_j: f64,
    pub billed_time_s: f64,
    pub refunded_energy_j: f64,
    pub remaining_energy_j: f64,
    pub remaining_time_s: f64,
    resolution: Option<TenantResolution>,
    /// Executor-only data the book carries but never reads.
    pub payload: P,
}

impl<P> Line<P> {
    pub fn resolution(&self) -> Option<TenantResolution> {
        self.resolution
    }
}

/// Where a virtual drone stands when its flight lands: the VDR's
/// post-flight record minus the tenant's identity.
pub(crate) struct Landing {
    /// Every waypoint of the deployed spec was served.
    pub completed_all: bool,
    pub remaining_energy_j: f64,
    pub remaining_time_s: f64,
    /// Absolute progress: waypoints of the original spec served.
    pub waypoints_completed: usize,
    /// Flights flown so far, this one included.
    pub flights_flown: u32,
    pub archive: ContainerArchive,
    pub app_state: String,
}

impl Landing {
    /// The post-flight VDR record: stored for reuse when the mission
    /// completed, for resume with the carried allotment otherwise.
    pub(crate) fn saved(
        self,
        name: String,
        owner: String,
        spec: VirtualDroneSpec,
    ) -> SavedVirtualDrone {
        SavedVirtualDrone {
            name,
            owner,
            spec,
            archive: self.archive,
            app_state: self.app_state,
            reason: if self.completed_all {
                SaveReason::Completed
            } else {
                SaveReason::Interrupted
            },
            remaining_energy_j: self.remaining_energy_j,
            remaining_time_s: self.remaining_time_s,
            waypoints_completed: self.waypoints_completed,
            flights_flown: self.flights_flown,
        }
    }
}

/// Every tenant's ledger line, indexed by a dense id.
pub(crate) struct TenantBook<P> {
    lines: Vec<Line<P>>,
}

impl<P> TenantBook<P> {
    pub fn with_capacity(tenants: usize) -> Self {
        TenantBook { lines: Vec::with_capacity(tenants) }
    }

    /// Opens a line holding the order's full allotment; returns its id.
    pub fn open(
        &mut self,
        name: Arc<str>,
        user: String,
        spec: VirtualDroneSpec,
        payload: P,
    ) -> usize {
        self.lines.push(Line {
            name,
            user,
            remaining_energy_j: spec.energy_allotted,
            remaining_time_s: spec.max_duration,
            spec: Box::new(spec),
            flights_flown: 0,
            waypoints_completed: 0,
            billed_energy_j: 0.0,
            billed_time_s: 0.0,
            refunded_energy_j: 0.0,
            resolution: None,
            payload,
        });
        self.lines.len() - 1
    }

    pub fn lines(&self) -> &[Line<P>] {
        &self.lines
    }

    pub fn line(&self, id: usize) -> &Line<P> {
        &self.lines[id]
    }

    pub fn payload_mut(&mut self, id: usize) -> &mut P {
        &mut self.lines[id].payload
    }

    /// Tenant `id` landed having used `energy_j` and `time_s` of its
    /// allotment, already charged by the executor: updates the line,
    /// stores the post-flight drone in the VDR, and resolves the tenant
    /// `Completed` when every waypoint is served. Returns whether it did.
    pub fn land(
        &mut self,
        id: usize,
        energy_j: f64,
        time_s: f64,
        landing: Landing,
        vdr: &mut VirtualDroneRepository,
    ) -> bool {
        let line = &mut self.lines[id];
        line.flights_flown = landing.flights_flown;
        line.waypoints_completed = landing.waypoints_completed;
        line.billed_energy_j += energy_j;
        line.billed_time_s += time_s;
        line.remaining_energy_j = landing.remaining_energy_j;
        line.remaining_time_s = landing.remaining_time_s;
        let completed = landing.completed_all;
        vdr.store(landing.saved(line.name.to_string(), line.user.clone(), (*line.spec).clone()));
        if completed {
            line.resolution = Some(TenantResolution::Completed);
        }
        completed
    }

    /// The service cannot finish tenant `id`'s mission: refunds the
    /// unserved remainder (the whole allotment if it never flew) and
    /// resolves it `Refunded`.
    pub fn refund(&mut self, id: usize, cloud: &mut FallibleCloud) {
        let line = &mut self.lines[id];
        let refund = line.remaining_energy_j.max(0.0);
        cloud.refund_unserved(&line.user, &line.name, refund);
        line.refunded_energy_j += refund;
        line.resolution = Some(TenantResolution::Refunded);
    }

    /// Billing accounts whose ledger disagrees with the book.
    pub fn unreconciled(&self, billing: &BillingLedger) -> u64 {
        let lines = self.lines.iter().map(|l| {
            (l.user.as_str(), [l.spec.energy_allotted, l.billed_energy_j, l.refunded_energy_j])
        });
        unreconciled(lines, |user| {
            let bill = billing.bill(user);
            (bill.energy_j, bill.energy_refund_j)
        })
    }
}

impl TenantBook<Vec<AndroneManifest>> {
    /// The fleet's public rows, with each account's billing-ledger
    /// figures alongside.
    pub fn outcomes(self, billing: &BillingLedger) -> BTreeMap<String, TenantOutcome> {
        let rows = self.lines.into_iter().map(|l| {
            let bill = billing.bill(&l.user);
            let row = TenantOutcome {
                flights_flown: l.flights_flown,
                waypoints_completed: l.waypoints_completed,
                waypoints_total: l.spec.waypoints.len(),
                energy_allotted_j: l.spec.energy_allotted,
                billed_energy_j: l.billed_energy_j,
                billed_time_s: l.billed_time_s,
                refunded_energy_j: l.refunded_energy_j,
                remaining_energy_j: l.remaining_energy_j,
                remaining_time_s: l.remaining_time_s,
                ledger_energy_j: bill.energy_j,
                ledger_refund_j: bill.energy_refund_j,
                resolution: l.resolution.unwrap_or(TenantResolution::Refunded),
                user: l.user,
            };
            (l.name.to_string(), row)
        });
        rows.collect()
    }
}

/// The ladder's per-tenant payload.
pub(crate) struct LadderLine {
    /// Per-waypoint distance from the base, metres: what each leg
    /// costs and what an island flies.
    pub dists: Vec<f64>,
    /// Simulated clock at resolution, seconds.
    pub resolved_at_s: f64,
}

impl TenantBook<LadderLine> {
    /// The ladder's public rows plus each tenant's order→resolution
    /// latency (the cohort submits at clock 0). A tenant still open at
    /// the wave guard reads as exhausted at `clock_s`.
    pub fn outcomes(self, clock_s: f64) -> (BTreeMap<String, ScaleTenantOutcome>, Vec<f64>) {
        let mut latencies = Vec::with_capacity(self.lines.len());
        let rows = self.lines.into_iter().map(|l| {
            let latency_s = l.resolution.map_or(clock_s, |_| l.payload.resolved_at_s);
            latencies.push(latency_s);
            let row = ScaleTenantOutcome {
                user: l.user,
                resolution: match l.resolution {
                    Some(TenantResolution::Completed) => ScaleResolution::Completed,
                    _ => ScaleResolution::Exhausted,
                },
                waypoints_completed: l.waypoints_completed,
                waypoints_total: l.payload.dists.len(),
                flights_flown: l.flights_flown,
                billed_energy_j: l.billed_energy_j,
                refunded_energy_j: l.refunded_energy_j,
                latency_s,
            };
            (l.name.to_string(), row)
        });
        let rows = rows.collect();
        (rows, latencies)
    }
}

/// A broken ledger rule, naming the tenant where there is one.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerViolation {
    /// Resolved completed with waypoints unserved.
    CompletedUnserved(String),
    /// Resolved completed and also refunded.
    CompletedRefunded(String),
    /// Resolved completed with a bill past the allotment.
    OverBilled(String),
    /// Refunded or exhausted with every waypoint served.
    RefundedServed(String),
    /// Refunded or exhausted: billed + refunded ≠ allotted.
    Unsettled(String),
    /// Flew: billed + remaining ≠ allotted.
    Unconserved(String),
    /// Billing-ledger energy or refund ≠ the tenants' billed or
    /// refunded energy, on this many accounts.
    BillingLedger { accounts: u64 },
    /// The ladder did not quiesce with every generated tenant reported.
    Unresolved { tenants: usize, reported: usize },
    /// Ladder legs flown, waypoints served and tenant flights differ.
    LegsMismatch { legs: u64, served: u64, flights: u64 },
    /// VDR leases outstanding at quiescence.
    LeaseOutstanding(usize),
    /// VDR entries ≠ tenants that flew.
    VdrEntries { entries: usize, flew: usize },
}

/// The settlement rule both executors share, for one tenant.
/// `energy_j` is `[allotted, billed, refunded]`; `remaining_j` is the
/// allotment left after the last flight, for a tenant that flew and an
/// outcome that reports it.
fn settle(
    tenant: &str,
    completed: bool,
    (served, ordered): (usize, usize),
    [allotted, billed, refunded]: [f64; 3],
    remaining_j: Option<f64>,
) -> Result<(), LedgerViolation> {
    use LedgerViolation::*;
    let tol = LEDGER_REL_EPS * allotted.abs();
    let off = |total: f64| (total - allotted).abs() > tol;
    let broken: Option<fn(String) -> LedgerViolation> = if completed {
        if served != ordered {
            Some(CompletedUnserved)
        } else if refunded != 0.0 {
            Some(CompletedRefunded)
        } else if billed > allotted + tol {
            Some(OverBilled)
        } else {
            None
        }
    } else if served >= ordered {
        Some(RefundedServed)
    } else if off(billed + refunded) {
        Some(Unsettled)
    } else {
        None
    };
    let broken = broken.or(remaining_j.filter(|r| off(billed + r)).map(|_| Unconserved as _));
    broken.map_or(Ok(()), |v| Err(v(tenant.to_string())))
}

/// Accounts whose `ledger` energy and refund differ from the sums of
/// their tenants' billed and refunded energy. Tenants come as
/// `(account, [allotted, billed, refunded])`.
fn unreconciled<'a>(
    tenants: impl Iterator<Item = (&'a str, [f64; 3])>,
    ledger: impl Fn(&str) -> (f64, f64),
) -> u64 {
    let mut accounts: BTreeMap<&str, [f64; 3]> = BTreeMap::new();
    for (user, sums) in tenants {
        let acc = accounts.entry(user).or_default();
        acc.iter_mut().zip(sums).for_each(|(a, s)| *a += s);
    }
    let disagrees = |(user, [allotted, billed, refunded]): &(&str, [f64; 3])| {
        let (energy, refund) = ledger(user);
        let tol = LEDGER_REL_EPS * allotted.abs();
        (billed - energy).abs() > tol || (refunded - refund).abs() > tol
    };
    accounts.into_iter().filter(disagrees).count() as u64
}

impl FleetOutcome {
    /// Checks the tenant ledger: every tenant settles (see
    /// [`LedgerViolation`]) and every billing account's ledger matches
    /// its tenants. Time allotments are not in [`TenantOutcome`], so
    /// their conservation is left to the caller.
    pub fn audit(&self) -> Result<(), LedgerViolation> {
        for (name, t) in &self.tenants {
            let energy = [t.energy_allotted_j, t.billed_energy_j, t.refunded_energy_j];
            let remaining = (t.flights_flown > 0).then_some(t.remaining_energy_j);
            let completed = t.resolution == TenantResolution::Completed;
            settle(name, completed, (t.waypoints_completed, t.waypoints_total), energy, remaining)?;
        }
        let rows = self.tenants.values();
        let ledger: BTreeMap<&str, (f64, f64)> = rows
            .clone()
            .map(|t| (t.user.as_str(), (t.ledger_energy_j, t.ledger_refund_j)))
            .collect();
        let tenants = rows.map(|t| {
            (t.user.as_str(), [t.energy_allotted_j, t.billed_energy_j, t.refunded_energy_j])
        });
        match unreconciled(tenants, |user| ledger.get(user).copied().unwrap_or_default()) {
            0 => Ok(()),
            accounts => Err(LedgerViolation::BillingLedger { accounts }),
        }
    }
}

impl ScaleOutcome {
    /// Checks the tenant ledger: the rung quiesced with every tenant
    /// reported; every tenant settles against the allotment its order
    /// was placed with (an account the config does not generate has
    /// none); legs flown equal waypoints served and tenant flights; no
    /// VDR lease is outstanding and every tenant that flew has an entry;
    /// and the in-run billing reconciliation found nothing.
    pub fn audit(&self) -> Result<(), LedgerViolation> {
        use LedgerViolation::*;
        let (tenants, reported) = (self.config.tenants, self.tenants.len());
        if !self.quiescent || reported != tenants {
            return Err(Unresolved { tenants, reported });
        }
        let allotments = energy_allotments_j(&self.config);
        for (name, t) in &self.tenants {
            let allotted = allotments.get(&t.user).copied().unwrap_or(0.0);
            let completed = t.resolution == ScaleResolution::Completed;
            let energy = [allotted, t.billed_energy_j, t.refunded_energy_j];
            settle(name, completed, (t.waypoints_completed, t.waypoints_total), energy, None)?;
        }
        let legs = self.flights.iter().map(|f| u64::from(f.legs)).sum();
        let served = self.tenants.values().map(|t| t.waypoints_completed as u64).sum();
        let flights = self.tenants.values().map(|t| u64::from(t.flights_flown)).sum();
        if served != legs || flights != legs {
            return Err(LegsMismatch { legs, served, flights });
        }
        if self.vdr.leased != 0 {
            return Err(LeaseOutstanding(self.vdr.leased));
        }
        let flew = self.tenants.values().filter(|t| t.flights_flown > 0).count();
        if self.vdr.entries != flew {
            return Err(VdrEntries { entries: self.vdr.entries, flew });
        }
        match self.metrics.counter(LADDER_LEDGER_MISMATCHES) {
            0 => Ok(()),
            accounts => Err(BillingLedger { accounts }),
        }
    }
}

#[cfg(test)]
mod tests {
    use androne_obs::MetricsRegistry;

    use super::*;
    use crate::scale::{execute_scale_fleet, ScaleConfig};

    /// A fleet tenant of 60 kJ and two waypoints, settled honestly.
    fn row(
        user: &str,
        resolution: TenantResolution,
        (flights_flown, waypoints_completed): (u32, usize),
        billed: f64,
    ) -> TenantOutcome {
        let refunded =
            if resolution == TenantResolution::Refunded { 60_000.0 - billed } else { 0.0 };
        TenantOutcome {
            user: user.to_string(),
            flights_flown,
            waypoints_completed,
            waypoints_total: 2,
            energy_allotted_j: 60_000.0,
            billed_energy_j: billed,
            billed_time_s: 4.0,
            refunded_energy_j: refunded,
            remaining_energy_j: 60_000.0 - billed,
            remaining_time_s: 4.0,
            ledger_energy_j: billed,
            ledger_refund_j: refunded,
            resolution,
        }
    }

    /// Completed; refunded after a partial flight; refunded unflown.
    fn fleet() -> FleetOutcome {
        let tenants = [
            ("vd1", row("u1", TenantResolution::Completed, (2, 2), 21_000.5)),
            ("vd2", row("u2", TenantResolution::Refunded, (1, 1), 40_000.25)),
            ("vd3", row("u3", TenantResolution::Refunded, (0, 0), 0.0)),
        ];
        let tenants = tenants.into_iter().map(|(n, t)| (n.to_string(), t)).collect();
        FleetOutcome {
            flights: Vec::new(),
            tenants,
            waves_run: 3,
            cloud_log: Vec::new(),
            cloud_backoff_ns: 0,
            metrics: MetricsRegistry::new(),
        }
    }

    /// A real 26-tenant rung; two of its tenants exhaust.
    fn ladder() -> ScaleOutcome {
        execute_scale_fleet(&ScaleConfig {
            fleet_size: 4,
            admit_per_wave: 12,
            queue_capacity: 26,
            ..ScaleConfig::rung(26)
        })
    }

    fn tenant<'a>(out: &'a mut FleetOutcome, name: &str) -> &'a mut TenantOutcome {
        out.tenants.get_mut(name).unwrap_or_else(|| panic!("{name} is in the literal"))
    }

    #[test]
    fn honest_outcomes_pass() {
        assert_eq!(fleet().audit(), Ok(()));
        assert_eq!(ladder().audit(), Ok(()));
    }

    #[test]
    fn each_corruption_is_rejected_by_name() {
        let mut out = fleet();
        let t = tenant(&mut out, "vd2");
        t.refunded_energy_j *= 0.999;
        t.ledger_refund_j = t.refunded_energy_j;
        assert_eq!(out.audit(), Err(LedgerViolation::Unsettled("vd2".into())));

        let mut out = fleet();
        tenant(&mut out, "vd1").refunded_energy_j = 1.0;
        assert_eq!(out.audit(), Err(LedgerViolation::CompletedRefunded("vd1".into())));

        let mut out = fleet();
        tenant(&mut out, "vd3").ledger_refund_j -= 1.0;
        assert_eq!(out.audit(), Err(LedgerViolation::BillingLedger { accounts: 1 }));

        let mut out = ladder();
        let exhausted =
            out.tenants.iter_mut().find(|(_, t)| t.resolution == ScaleResolution::Exhausted);
        let Some((name, t)) = exhausted else { panic!("under-provisioned tenants exhaust") };
        t.refunded_energy_j *= 0.999;
        let name = name.clone();
        assert_eq!(out.audit(), Err(LedgerViolation::Unsettled(name)));

        let mut out = ladder();
        out.vdr.leased = 1;
        assert_eq!(out.audit(), Err(LedgerViolation::LeaseOutstanding(1)));

        let mut out = ladder();
        out.flights[0].legs += 1;
        assert!(matches!(out.audit(), Err(LedgerViolation::LegsMismatch { .. })));

        let mut out = ladder();
        out.metrics.count(LADDER_LEDGER_MISMATCHES, 2);
        assert_eq!(out.audit(), Err(LedgerViolation::BillingLedger { accounts: 2 }));
    }
}

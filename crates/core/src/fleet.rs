//! The fleet executor: multi-wave, multi-flight service runs under a
//! [`FleetFaultPlan`].
//!
//! The paper's lifecycle (Section 2, Figure 4) spans *waves* of
//! planning rounds: orders are planned onto physical flights, flights
//! fly, interrupted virtual drones are saved in the VDR and re-planned
//! onto the next wave until they complete — or, when the service
//! cannot complete them, their unserved allotment is refunded. This
//! module drives that loop deterministically under injected faults on
//! both failure domains:
//!
//! - **drone-side** — each physical flight runs a [`FaultInjector`]
//!   over `faults.effective_plan(flight_index)` (the flight's own
//!   events plus the fleet's correlated events);
//! - **cloud-side** — each wave arms `faults.cloud_armed(wave)` on a
//!   [`FallibleCloud`], so portal outages queue orders, VDR outages
//!   defer resumes, and storage outages buffer offloads.
//!
//! [`FleetSpec::run`] is the only way in. Everything is a pure
//! function of the config seed and the fault plan: per-flight kernel
//! seeds are [`substream_seed`] FNV mixes of
//! `(seed, wave, flight_index)`, iteration orders are `BTreeMap`
//! orders, and the RNG streams never observe wall clock. Two runs
//! with equal inputs are bit-identical — the fleet chaos gate's
//! first invariant.
//!
//! ## Deterministic parallel waves
//!
//! The fly phase runs on a [`WorkerPool`](crate::pool::WorkerPool)
//! when [`FleetConfig::threads`] > 1. Each flight becomes a
//! single-threaded *island*: a `Send`-able work item (the plan, the
//! deploy sources, the effective fault plan, and the flight's RNG
//! substream seed) that boots its own drone on a worker thread. The
//! drone's `Rc`/`RefCell` hot paths never cross a thread. Cloud-side
//! effects — VDR commits, billing, degraded-mode log lines, flight
//! ids — are replayed at a *merge* step in plan order, so the cloud
//! observes the exact sequential history regardless of which worker
//! finished first. Per-flight seeds and fault plans depend on the
//! global flight index, and a scrapped flight consumes no index, so
//! the driver assigns indices speculatively and re-runs any island
//! whose index shifted until the assignment is a fixpoint. The
//! result: `fleet_digest()`, every tenant's `outcome_bits()`, and
//! the merged metrics digest are bit-identical at any thread count,
//! and `threads = 1` is byte-identical to the historical sequential
//! executor.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use androne_android::AndroneManifest;
use androne_cloud::{FallibleCloud, NotificationKind, PlacedOrder, SavedVirtualDrone};
use androne_hal::GeoPoint;
use androne_obs::{MetricsRegistry, ObsHandle, Subsystem, TraceSegment};
use androne_planner::FlightPlan;
use androne_simkern::{substream_seed, FaultPlan, FleetFaultPlan, StateHasher};
use androne_vdc::{VirtualDroneSpec, WatchdogConfig};
use androne_workloads::{AdaptivePlan, AttackPlan};

use crate::adaptive::AdaptiveInjector;
use crate::attack::{AttackDefense, AttackInjector, RtMonitor};
use crate::drone::{Drone, DroneError, FlightUsage};
use crate::flight_exec::{execute_flight_probed, EndReason};
use crate::injector::FaultInjector;
use crate::ledger::{Landing, TenantBook};
use crate::pool::{WorkerError, WorkerPool};
use crate::probe::{DigestProbe, ProbeStack};

/// One customer order in a fleet run.
#[derive(Debug, Clone)]
pub struct FleetTenant {
    /// The virtual drone's name (unique across the run).
    pub vd_name: String,
    /// The billing account.
    pub user: String,
    /// The ordered mission.
    pub spec: VirtualDroneSpec,
}

/// Configuration for a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Launch base for every flight.
    pub base: GeoPoint,
    /// Root seed; all per-flight seeds derive from it.
    pub seed: u64,
    /// Physical drones available per wave.
    pub fleet_size: usize,
    /// The tenants to serve.
    pub tenants: Vec<FleetTenant>,
    /// Planning rounds before unresolved tenants are refunded.
    pub max_waves: u64,
    /// Per-flight simulated-time safety cap, seconds.
    pub max_sim_seconds: f64,
    /// VDC watchdog for every flight (`None` disables it).
    pub watchdog: Option<WatchdogConfig>,
    /// Worker threads for the fly phase. `0` and `1` both run
    /// sequentially on the caller's thread; any width produces
    /// bit-identical output (see the module docs).
    pub threads: usize,
}

/// How a tenant's order ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantResolution {
    /// Every waypoint was served; the drone is stored completed.
    Completed,
    /// The service could not finish the mission; the unserved energy
    /// allotment was refunded.
    Refunded,
}

/// Per-tenant accounting across the whole run.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Billing account.
    pub user: String,
    /// Physical flights this tenant rode.
    pub flights_flown: u32,
    /// Waypoints completed across all flights.
    pub waypoints_completed: usize,
    /// Waypoints ordered.
    pub waypoints_total: usize,
    /// Energy allotted at order time, joules.
    pub energy_allotted_j: f64,
    /// Energy billed across all flights, joules.
    pub billed_energy_j: f64,
    /// Service time billed across all flights, seconds.
    pub billed_time_s: f64,
    /// Energy refunded on terminal failure, joules.
    pub refunded_energy_j: f64,
    /// Allotment left in the VDR after the final flight, joules.
    pub remaining_energy_j: f64,
    /// Time allotment left after the final flight, seconds.
    pub remaining_time_s: f64,
    /// Energy on the billing ledger for this tenant's account, joules
    /// (cross-checks `billed_energy_j`, which is accumulated from the
    /// VDC's allotment records instead).
    pub ledger_energy_j: f64,
    /// Refund on the billing ledger for this tenant's account, joules.
    pub ledger_refund_j: f64,
    /// How the order resolved.
    pub resolution: TenantResolution,
}

impl TenantOutcome {
    /// The tenant-visible outcome, folded to bits. Deliberately
    /// excludes run internals a tenant cannot observe (container
    /// ids, trace digests of *other* flights): this is the value the
    /// fleet gate compares between a faulted run and its no-fault
    /// baseline to prove cross-tenant containment.
    pub fn outcome_bits(&self) -> u64 {
        let mut h = StateHasher::new();
        h.write_str(&self.user);
        h.write_u32(self.flights_flown);
        h.write_usize(self.waypoints_completed);
        h.write_usize(self.waypoints_total);
        h.write_f64(self.energy_allotted_j);
        h.write_f64(self.billed_energy_j);
        h.write_f64(self.billed_time_s);
        h.write_f64(self.refunded_energy_j);
        h.write_f64(self.remaining_energy_j);
        h.write_f64(self.remaining_time_s);
        h.write_f64(self.ledger_energy_j);
        h.write_f64(self.ledger_refund_j);
        h.write_u8(match self.resolution {
            TenantResolution::Completed => 0,
            TenantResolution::Refunded => 1,
        });
        h.finish()
    }
}

/// One executed physical flight.
#[derive(Debug)]
pub struct FlightRecord {
    /// Planning wave the flight flew in.
    pub wave: u64,
    /// Global flight index (the fault plan's flight key).
    pub flight_index: usize,
    /// Virtual drones aboard, sorted.
    pub owners: Vec<String>,
    /// Whether the plan completed (vs. aborted/failsafe).
    pub completed: bool,
    /// Why the flight ended.
    pub end_reason: EndReason,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Battery energy drawn, joules.
    pub total_energy_j: f64,
    /// FNV fold of every per-tick component hash — the flight's
    /// trajectory fingerprint for dual-run comparison.
    pub trace_digest: u64,
    /// The injector's action log (arm/disarm decisions), fault
    /// transitions first, then attack transitions and ladder steps.
    pub injected: Vec<String>,
    /// RT-deadline monitor verdict `(samples, misses, max_us)` —
    /// `None` on unattacked flights, which carry no monitor.
    pub rt_deadline: Option<(u64, u64, f64)>,
}

/// The result of a fleet run.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Every flight flown, in execution order.
    pub flights: Vec<FlightRecord>,
    /// Per-tenant accounting, keyed by virtual drone name.
    pub tenants: BTreeMap<String, TenantOutcome>,
    /// Waves actually run.
    pub waves_run: u64,
    /// The cloud façade's degraded-mode log.
    pub cloud_log: Vec<String>,
    /// Simulated backoff the cloud spent in storage retries, ns.
    pub cloud_backoff_ns: u64,
    /// Every flight's metrics registry merged in flight-index order,
    /// then the cloud façade's own registry — the run's aggregate
    /// observability view. Deterministic at any thread count.
    pub metrics: MetricsRegistry,
}

impl FleetOutcome {
    /// Folds the entire run to one word: flights (trajectories,
    /// outcomes, injections), tenants (outcome bits), and the cloud's
    /// degraded-mode decisions. Equal digests ⇒ bit-identical runs.
    pub fn fleet_digest(&self) -> u64 {
        let mut h = StateHasher::new();
        for f in &self.flights {
            h.write_u64(f.wave);
            h.write_usize(f.flight_index);
            for o in &f.owners {
                h.write_str(o);
            }
            h.write_bool(f.completed);
            h.write_u8(end_reason_tag(f.end_reason));
            h.write_f64(f.duration_s);
            h.write_f64(f.total_energy_j);
            h.write_u64(f.trace_digest);
            for a in &f.injected {
                h.write_str(a);
            }
            // Hashed only when a monitor rode the flight, so legacy
            // pinned digests (no attacks, no monitor) are untouched.
            if let Some((samples, misses, max_us)) = f.rt_deadline {
                h.write_u64(samples);
                h.write_u64(misses);
                h.write_f64(max_us);
            }
        }
        for (name, t) in &self.tenants {
            h.write_str(name);
            h.write_u64(t.outcome_bits());
        }
        h.write_u64(self.waves_run);
        for line in &self.cloud_log {
            h.write_str(line);
        }
        h.write_u64(self.cloud_backoff_ns);
        h.finish()
    }

    /// Digest of the merged metrics registry. Compared across thread
    /// counts by the fleet chaos gate: parallel execution must merge
    /// to the exact registry the sequential run accumulates.
    pub fn metrics_digest(&self) -> u64 {
        self.metrics.digest()
    }
}

fn end_reason_tag(r: EndReason) -> u8 {
    match r {
        EndReason::Completed => 0,
        EndReason::EnergyExhausted => 1,
        EndReason::TimeExhausted => 2,
        EndReason::Aborted => 3,
        EndReason::LinkLost => 4,
        EndReason::WatchdogRevoked => 5,
    }
}

/// Fleet-level adversarial workload: per-flight-index attack plans
/// plus the enforcement posture shared by every attacked flight.
/// [`FleetAttackPlan::none`] (what [`FleetSpec::new`] installs)
/// drives zero attack machinery — a run with an empty plan is
/// bit-identical to one that never heard of attacks.
#[derive(Debug, Clone, Default)]
pub struct FleetAttackPlan {
    /// Attack plans keyed by global flight index; missing indices fly
    /// clean.
    pub flights: BTreeMap<usize, AttackPlan>,
    /// Closed-loop adaptive campaigns keyed by global flight index;
    /// a flight can carry both an open-loop and an adaptive plan.
    pub adaptive: BTreeMap<usize, AdaptivePlan>,
    /// Enforcement armed on every attacked flight; `None` runs the
    /// attacks unthrottled (the breach-demonstration posture).
    pub defense: Option<AttackDefense>,
}

impl FleetAttackPlan {
    /// No attacks anywhere.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no flight carries a non-empty attack plan, open- or
    /// closed-loop.
    pub fn is_empty(&self) -> bool {
        self.flights.values().all(|p| p.is_empty())
            && self.adaptive.values().all(|p| p.is_empty())
    }

    /// The plan for `flight_index` (empty when unattacked).
    pub fn effective_plan(&self, flight_index: usize) -> AttackPlan {
        self.flights
            .get(&flight_index)
            .cloned()
            .unwrap_or_else(AttackPlan::empty)
    }

    /// The adaptive campaign for `flight_index` (empty when none).
    pub fn effective_adaptive(&self, flight_index: usize) -> AdaptivePlan {
        self.adaptive
            .get(&flight_index)
            .cloned()
            .unwrap_or_else(AdaptivePlan::empty)
    }
}

/// The fleet's ledger: each line's payload is the tenant's ordered
/// apps, resolved against the app store once, when the line opens.
type FleetBook = TenantBook<Vec<AndroneManifest>>;

/// The book's id for `name`. Ids follow `vd_name` order, so the
/// lines are sorted by name.
fn tenant_id(book: &FleetBook, name: &str) -> Option<usize> {
    book.lines().binary_search_by(|l| (*l.name).cmp(name)).ok()
}

/// Where a virtual drone aboard a flight comes from: a leased VDR
/// checkout (resume) or the tenant's fresh order spec, each with the
/// apps to install. Captured at partition time so the island owns
/// everything it deploys.
#[derive(Clone)]
enum OwnerSource {
    Resume(SavedVirtualDrone, Vec<AndroneManifest>),
    Fresh(VirtualDroneSpec, Vec<AndroneManifest>),
}

/// One plan's fate for the current wave, decided at partition time
/// against the wave's lease map and tenant states.
enum Disposition {
    /// An aboard drone cannot be produced this wave; the plan defers.
    /// The deferral log line is emitted at merge, in plan order.
    Deferred,
    /// The plan flies as an island. `sources` is parallel to
    /// `owners` (both in sorted-owner order).
    Fly {
        plan: FlightPlan,
        owners: Vec<String>,
        sources: Vec<OwnerSource>,
    },
}

/// The `Send`-able work item one island executes: everything a flight
/// needs, owned, with no cloud access.
struct PlanWork {
    plan: FlightPlan,
    owners: Vec<String>,
    sources: Vec<OwnerSource>,
    seed: u64,
    fault_plan: FaultPlan,
    /// This flight's adversarial workload (empty = unattacked).
    attack_plan: AttackPlan,
    /// This flight's closed-loop adaptive campaign (empty = none).
    adaptive_plan: AdaptivePlan,
    /// Enforcement posture when either attack plan is non-empty.
    defense: Option<AttackDefense>,
    base: GeoPoint,
    max_sim_seconds: f64,
    watchdog: Option<WatchdogConfig>,
    flight_index: usize,
}

/// Per-owner bookkeeping an island brings back for the merge step.
struct OwnerPost {
    owner: String,
    usage: FlightUsage,
    revoked: bool,
    archive: androne_container::ContainerArchive,
    app_state: String,
}

/// A flight that actually flew, ready to merge.
struct IslandFlight {
    completed: bool,
    end_reason: EndReason,
    duration_s: f64,
    total_energy_j: f64,
    trace_digest: u64,
    injected: Vec<String>,
    rt_deadline: Option<(u64, u64, f64)>,
    /// In sorted-owner order, matching the legacy per-owner loop.
    per_owner: Vec<OwnerPost>,
    /// The drone's full metrics registry, merged into the fleet
    /// registry at the flight's index position.
    metrics: MetricsRegistry,
    /// The drone's fault-injector trace records, absorbed into the
    /// cloud bus at merge for a fleet-wide fault timeline.
    fault_trace: TraceSegment,
}

/// What an island produced.
enum IslandVerdict {
    /// A deploy failed; the flight never flew and consumes no flight
    /// index. `error` is the failing deploy's rendered error.
    Scrapped { owner: String, error: String },
    /// The flight flew (possibly aborted mid-air — that is still a
    /// flown flight with a record and an index).
    Flew(Box<IslandFlight>),
}

/// An island run's full outcome as cached by the speculation loop:
/// contained panic, fatal drone error, or a verdict.
type IslandOutcome = Result<Result<IslandVerdict, DroneError>, WorkerError>;

/// Whether this outcome consumes a flight index. Scraps and panics
/// never flew: the next flyable plan takes the index instead, which
/// is why index assignment is speculative.
fn consumes_index(out: &IslandOutcome) -> bool {
    matches!(out, Ok(Ok(IslandVerdict::Flew(_))) | Ok(Err(_)))
}

/// Runs one flight as a single-threaded island: boot, deploy, fly,
/// and per-owner post-flight reads — no cloud access anywhere.
/// `panic_flight` is the chaos hook: an injected worker panic at a
/// chosen flight index, exercised by the containment tests.
fn run_island(item: PlanWork, panic_flight: Option<usize>) -> Result<IslandVerdict, DroneError> {
    if panic_flight == Some(item.flight_index) {
        // dronelint:allow(R3, chaos-injection hook: the panic IS the fault under test, and the pool's catch_unwind containment is the behavior being verified)
        panic!("worker chaos: injected panic at flight {}", item.flight_index);
    }
    let mut drone = Drone::boot(item.base, item.seed)?;
    for (owner, source) in item.owners.iter().zip(item.sources.iter()) {
        let deployed = match source {
            OwnerSource::Resume(saved, apps) => {
                let spec = saved.resume_spec().unwrap_or_else(|| saved.spec.clone());
                drone.deploy_from_archive(&saved.archive, spec, apps, &saved.app_state)
            }
            OwnerSource::Fresh(spec, apps) => drone.deploy_vdrone(owner, spec.clone(), apps),
        };
        if let Err(e) = deployed {
            return Ok(IslandVerdict::Scrapped {
                owner: owner.clone(),
                error: e.to_string(),
            });
        }
    }
    drone.vdc.borrow_mut().set_watchdog(item.watchdog);

    let mut injector = FaultInjector::new(item.fault_plan);
    // An attacked flight also carries the attack injector and the
    // RT-deadline monitor; an empty attack plan carries neither, so
    // the probe stack — and with it every legacy pinned digest — is
    // exactly the pre-attack one.
    let attacked = !item.attack_plan.is_empty();
    let adaptive = !item.adaptive_plan.is_empty();
    let mut attacker = AttackInjector::new(item.attack_plan, item.defense);
    let mut adaptive_attacker = AdaptiveInjector::new(item.adaptive_plan, item.defense);
    let mut rt_monitor = RtMonitor::new(item.seed);
    let mut digest = DigestProbe::new();
    let outcome = {
        let mut probes = ProbeStack::new();
        probes.push(&mut injector);
        if attacked {
            probes.push(&mut attacker);
        }
        if adaptive {
            probes.push(&mut adaptive_attacker);
        }
        if attacked || adaptive {
            probes.push(&mut rt_monitor);
        }
        probes.push(&mut digest);
        execute_flight_probed(
            &mut drone,
            item.plan,
            item.max_sim_seconds,
            None,
            &mut probes,
        )
    };

    let mut per_owner: Vec<OwnerPost> = Vec::new();
    for owner in item.owners.iter() {
        // A crash window that crossed the flight's end leaves its
        // checkpoint pending; restore before saving.
        if drone.pending_restarts.contains_key(owner) {
            drone.supervised_restart_vdrone(owner)?;
        }
        let usage = drone.flight_usage(owner);
        // The VDC record flag marks every revocation, at a waypoint or
        // mid-transit, and survives a crash and restart.
        let revoked = drone.vdc.borrow().record(owner).is_some_and(|r| r.revoked);
        let (archive, app_state) = drone.save_vdrone(owner)?;
        per_owner.push(OwnerPost {
            owner: owner.clone(),
            usage,
            revoked,
            archive,
            app_state,
        });
    }

    let metrics = drone.obs.with(|o| o.metrics.clone()).unwrap_or_default();
    let fault_trace = drone
        .obs
        .with(|o| o.trace.segment(&[Subsystem::Fault]))
        .unwrap_or_default();
    let mut injected = injector.actions().to_vec();
    injected.extend(attacker.actions().iter().cloned());
    injected.extend(adaptive_attacker.actions().iter().cloned());
    Ok(IslandVerdict::Flew(Box::new(IslandFlight {
        completed: outcome.completed,
        end_reason: outcome.end_reason,
        duration_s: outcome.duration_s,
        total_energy_j: outcome.total_energy_j,
        trace_digest: digest.digest(),
        injected,
        rt_deadline: (attacked || adaptive).then(|| {
            (rt_monitor.samples(), rt_monitor.misses(), rt_monitor.max_us())
        }),
        per_owner,
        metrics,
        fault_trace,
    })))
}

/// The single entry point for fleet runs: configuration plus
/// optional riders, built fluently and executed with [`Self::run`].
///
/// ```ignore
/// let outcome = FleetSpec::new(cfg)
///     .threads(4)
///     .faults(plan)
///     .attacks(attack_plan)
///     .vdr_shards(4)
///     .run()?;
/// ```
#[derive(Debug, Clone)]
pub struct FleetSpec {
    cfg: FleetConfig,
    faults: FleetFaultPlan,
    attacks: FleetAttackPlan,
    panic_flight: Option<usize>,
    vdr_shards: usize,
}

impl FleetSpec {
    /// A spec with no riders: no faults, no attacks, no chaos, one
    /// VDR shard.
    pub fn new(cfg: FleetConfig) -> Self {
        FleetSpec {
            cfg,
            faults: FleetFaultPlan::empty(),
            attacks: FleetAttackPlan::none(),
            panic_flight: None,
            vdr_shards: 1,
        }
    }

    /// Worker threads for the fly phase (any width is
    /// digest-identical; 0/1 run sequentially).
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Drone- and cloud-side fault plan.
    pub fn faults(mut self, faults: FleetFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Adversarial-tenant attack plan (with its enforcement posture).
    pub fn attacks(mut self, attacks: FleetAttackPlan) -> Self {
        self.attacks = attacks;
        self
    }

    /// Chaos hook: panic the worker running global flight index
    /// `flight`, proving containment.
    pub fn chaos_panic_at(mut self, flight: usize) -> Self {
        self.panic_flight = Some(flight);
        self
    }

    /// Shards the cloud's Virtual Drone Repository `shards` ways
    /// (deterministic FNV of the drone name). Any shard count is
    /// digest-identical to `1`.
    pub fn vdr_shards(mut self, shards: usize) -> Self {
        self.vdr_shards = shards.max(1);
        self
    }

    /// Runs the full order → plan → fly → save/resume → refund
    /// lifecycle to quiescence. See the module docs for the wave
    /// structure and determinism contract. Reusable: `run` borrows
    /// the spec, so one spec can drive a whole thread/shard matrix.
    pub fn run(&self) -> Result<FleetOutcome, DroneError> {
        execute_fleet_inner(
            &self.cfg,
            &self.faults,
            &self.attacks,
            self.panic_flight,
            &mut FallibleCloud::with_shards(self.vdr_shards),
        )
    }
}

/// Runs the lifecycle against `cloud`, which keeps every cloud-side
/// effect of the run: billing, the VDR, storage, notifications. Each
/// tenant's ordered apps resolve against `cloud`'s app store when its
/// ledger line opens.
pub(crate) fn execute_fleet_inner(
    cfg: &FleetConfig,
    faults: &FleetFaultPlan,
    attacks: &FleetAttackPlan,
    panic_flight: Option<usize>,
    cloud: &mut FallibleCloud,
) -> Result<FleetOutcome, DroneError> {
    let pool = WorkerPool::new(cfg.threads);
    let mut fleet_metrics = MetricsRegistry::new();
    // Cloud-side observability: one attached handle for the whole
    // run, stamped to wave boundaries (1 simulated second per wave)
    // so degraded-mode trace records order by wave.
    let cloud_obs = ObsHandle::attached();
    cloud.set_obs(cloud_obs.clone());
    // Ids in `vd_name` order (a repeated name keeps its last tenant).
    let by_name: BTreeMap<&str, &FleetTenant> =
        cfg.tenants.iter().map(|t| (t.vd_name.as_str(), t)).collect();
    let mut book = TenantBook::with_capacity(by_name.len());
    for (name, t) in by_name {
        let apps = cloud.inner.app_store.manifests(&t.spec.apps);
        book.open(Arc::from(name), t.user.clone(), t.spec.clone(), apps);
    }

    let mut flights: Vec<FlightRecord> = Vec::new();
    let mut flight_counter: usize = 0;
    let mut next_order_id: u64 = 1;
    let mut waves_run: u64 = 0;

    for wave in 0..cfg.max_waves {
        if book.lines().iter().all(|l| l.resolution().is_some()) {
            break;
        }
        waves_run = wave + 1;
        cloud_obs.set_now_ns(wave.saturating_mul(1_000_000_000));
        cloud.begin_wave(wave, faults.cloud_armed(wave));

        // Build this wave's candidate orders. Fresh tenants order
        // their full spec; flown tenants check their saved drone out
        // of the VDR (a lease — abandoned if the wave fails) and
        // order the truncated resume spec. A VDR outage leaves the
        // tenant pending for a later wave; a terminally unresumable
        // drone is refunded here.
        let mut orders: Vec<PlacedOrder> = Vec::new();
        let mut saved_map: BTreeMap<String, SavedVirtualDrone> = BTreeMap::new();
        let mut unresumable: Vec<usize> = Vec::new();
        for (id, line) in book.lines().iter().enumerate() {
            if line.resolution().is_some() {
                continue;
            }
            let spec = if line.flights_flown == 0 {
                Some((*line.spec).clone())
            } else {
                match cloud.checkout_saved(&line.name) {
                    Err(_) | Ok(None) => None,
                    Ok(Some(saved)) => match saved.resume_spec() {
                        Some(rspec) => {
                            saved_map.insert(line.name.to_string(), saved);
                            Some(rspec)
                        }
                        None => {
                            // Interrupted with nothing left to fly on:
                            // the entry goes back to storage and the
                            // unserved remainder is refunded.
                            cloud.inner.vdr.abandon(&line.name);
                            unresumable.push(id);
                            None
                        }
                    },
                }
            };
            if let Some(spec) = spec {
                orders.push(PlacedOrder {
                    order_id: next_order_id,
                    user: line.user.clone(),
                    vd_name: line.name.to_string(),
                    spec,
                    flexible_schedule: true,
                });
                next_order_id += 1;
            }
        }
        for id in unresumable {
            book.refund(id, cloud);
        }
        if orders.is_empty() {
            continue;
        }

        let plans = match cloud.try_plan_flights(&orders, cfg.base, cfg.fleet_size) {
            Ok(plans) => plans,
            Err(_) => {
                // Planning is down this wave: the façade queued the
                // orders; leased resumes go back to storage untouched.
                for name in saved_map.keys() {
                    cloud.inner.vdr.abandon(name);
                }
                continue;
            }
        };

        // ── Fly phase: partition → islands → merge, batch by batch.
        //
        // A batch is a maximal prefix of the remaining plans whose
        // flyable members share no owner (a duplicate owner means a
        // later plan's flyable check depends on the earlier flight's
        // outcome — the batch stops there and the plan waits for the
        // merge). Flyable plans become islands on the pool; deferred
        // plans carry through so their log lines land in plan order.
        let mut plans: VecDeque<FlightPlan> = plans.into();
        while !plans.is_empty() {
            let mut batch: Vec<Disposition> = Vec::new();
            let mut claimed: BTreeSet<String> = BTreeSet::new();
            while let Some(peek) = plans.front() {
                let mut owners: Vec<String> =
                    peek.legs.iter().map(|l| l.owner.clone()).collect();
                owners.sort();
                owners.dedup();
                if owners.iter().any(|o| claimed.contains(o)) {
                    break;
                }
                let Some(plan) = plans.pop_front() else { break };
                // A plan is flyable only if every aboard drone can be
                // produced this wave: a resume we hold the lease for,
                // or a fresh tenant deployable from its order spec.
                // Merged stale queue entries can violate this (e.g.
                // the VDR was down for that tenant); such plans defer
                // a wave. Sources are cloned, not taken: lease-map
                // removal is a cloud effect and happens at merge.
                let mut sources: Vec<OwnerSource> = Vec::new();
                let mut flyable = true;
                for o in &owners {
                    let line = tenant_id(&book, o).map(|id| book.line(id));
                    let source = match (saved_map.get(o), line) {
                        (Some(saved), Some(l)) => {
                            OwnerSource::Resume(saved.clone(), l.payload.clone())
                        }
                        (None, Some(l)) if l.flights_flown == 0 && l.resolution().is_none() => {
                            OwnerSource::Fresh((*l.spec).clone(), l.payload.clone())
                        }
                        _ => {
                            flyable = false;
                            break;
                        }
                    };
                    sources.push(source);
                }
                if flyable {
                    claimed.extend(owners.iter().cloned());
                    batch.push(Disposition::Fly {
                        plan,
                        owners,
                        sources,
                    });
                } else {
                    batch.push(Disposition::Deferred);
                }
            }

            // Speculative index assignment: walk the batch giving
            // each flyable plan the next index, assuming uncached
            // islands fly. A scrap/panic consumes no index, shifting
            // every later plan down — their islands re-run at the
            // corrected index (seed and fault plan depend on it)
            // until a walk finds every island cached: the fixpoint.
            let mut cache: BTreeMap<(usize, usize), IslandOutcome> = BTreeMap::new();
            loop {
                let mut idx = flight_counter;
                let mut keys: Vec<(usize, usize)> = Vec::new();
                let mut items: Vec<PlanWork> = Vec::new();
                for (slot, disp) in batch.iter().enumerate() {
                    let Disposition::Fly {
                        plan,
                        owners,
                        sources,
                    } = disp
                    else {
                        continue;
                    };
                    match cache.get(&(slot, idx)) {
                        Some(out) => {
                            if consumes_index(out) {
                                idx += 1;
                            }
                        }
                        None => {
                            items.push(PlanWork {
                                plan: plan.clone(),
                                owners: owners.clone(),
                                sources: sources.clone(),
                                seed: substream_seed(cfg.seed, wave, idx),
                                fault_plan: faults.effective_plan(idx),
                                attack_plan: attacks.effective_plan(idx),
                                adaptive_plan: attacks.effective_adaptive(idx),
                                defense: attacks.defense,
                                base: cfg.base,
                                max_sim_seconds: cfg.max_sim_seconds,
                                watchdog: cfg.watchdog,
                                flight_index: idx,
                            });
                            keys.push((slot, idx));
                            idx += 1;
                        }
                    }
                }
                if keys.is_empty() {
                    break;
                }
                let results = pool.run(items, |item| run_island(item, panic_flight));
                for (key, res) in keys.into_iter().zip(results) {
                    cache.insert(key, res);
                }
            }

            // Merge in plan order: replay every cloud effect exactly
            // as the sequential executor would have issued it.
            for (slot, disp) in batch.into_iter().enumerate() {
                let Disposition::Fly {
                    owners, sources, ..
                } = disp
                else {
                    cloud
                        .log
                        .push(format!("wave {wave}: plan deferred, unavailable drone aboard"));
                    continue;
                };
                let out = cache.remove(&(slot, flight_counter)).unwrap_or_else(|| {
                    // Unreachable: the fixpoint loop only exits once
                    // every island at its settled index is cached.
                    Err(WorkerError::Panicked(
                        "island result missing after fixpoint".to_string(),
                    ))
                });
                match out {
                    Err(WorkerError::Panicked(msg)) => {
                        // Contained worker panic: treat like a scrap
                        // — release every lease, defer the tenants,
                        // keep the run alive.
                        for (owner, source) in owners.iter().zip(sources.iter()) {
                            if matches!(source, OwnerSource::Resume(..)) {
                                saved_map.remove(owner);
                                cloud.inner.vdr.abandon(owner);
                            }
                        }
                        cloud.log.push(format!(
                            "wave {wave}: flight scrapped, worker panicked ({msg}); tenants deferred"
                        ));
                    }
                    Ok(Err(e)) => {
                        // Fatal drone error: the sequential executor
                        // aborts the run here, and on `Err` the cloud
                        // is dropped — only the error is observable,
                        // so no earlier effects need replaying first.
                        return Err(e);
                    }
                    Ok(Ok(IslandVerdict::Scrapped { owner: failed, error })) => {
                        // Leases are committed only once every tenant
                        // is aboard: a deploy failure (e.g. the board
                        // out of container memory) scraps the whole
                        // flight, releases the leases taken so far
                        // (owners up to the failure; later owners
                        // keep their checkout until the end-of-wave
                        // sweep), and defers its tenants to the next
                        // wave instead of killing the run.
                        let failpos = owners
                            .iter()
                            .position(|o| *o == failed)
                            .unwrap_or(owners.len());
                        for (i, (owner, source)) in
                            owners.iter().zip(sources.iter()).enumerate()
                        {
                            if i <= failpos && matches!(source, OwnerSource::Resume(..)) {
                                saved_map.remove(owner);
                                cloud.inner.vdr.abandon(owner);
                            }
                        }
                        cloud.log.push(format!(
                            "wave {wave}: flight scrapped, {failed} failed to deploy ({error}); tenants deferred"
                        ));
                    }
                    Ok(Ok(IslandVerdict::Flew(island))) => {
                        for (owner, source) in owners.iter().zip(sources.iter()) {
                            if matches!(source, OwnerSource::Resume(..)) {
                                saved_map.remove(owner);
                                cloud.inner.vdr.commit(owner);
                            }
                        }
                        let flight_id = cloud.inner.new_flight_id();
                        for post in island.per_owner {
                            let Some(id) = tenant_id(&book, &post.owner) else {
                                return Err(DroneError::UnknownVirtualDrone(post.owner));
                            };
                            // The launch notice (paper Section 2: a text
                            // with access information), then the bill.
                            cloud.inner.notify(
                                &book.line(id).user,
                                NotificationKind::Text,
                                format!(
                                    "Virtual drone {} is launching; connect via your per-container VPN.",
                                    post.owner
                                ),
                            );
                            let usage = post.usage;
                            cloud.try_complete_flight(
                                &book.line(id).user,
                                flight_id,
                                usage.energy_used_j,
                                usage.files,
                            );
                            // A resume deployed the waypoints its line
                            // has not served yet, so progress adds up.
                            let line = book.line(id);
                            let served = line.waypoints_completed + usage.waypoints_flown;
                            let landing = Landing {
                                completed_all: usage.completed_all,
                                remaining_energy_j: usage.remaining_energy_j,
                                remaining_time_s: usage.remaining_time_s,
                                waypoints_completed: served,
                                flights_flown: line.flights_flown + 1,
                                archive: post.archive,
                                app_state: post.app_state,
                            };
                            let completed = book.land(
                                id,
                                usage.energy_used_j,
                                usage.time_used_s,
                                landing,
                                &mut cloud.inner.vdr,
                            );
                            if !completed && post.revoked {
                                // Policy enforcement is terminal: the
                                // watchdog revoked this drone, so it
                                // is not rescheduled; its unserved
                                // remainder is refunded.
                                book.refund(id, cloud);
                            }
                        }

                        flights.push(FlightRecord {
                            wave,
                            flight_index: flight_counter,
                            owners,
                            completed: island.completed,
                            end_reason: island.end_reason,
                            duration_s: island.duration_s,
                            total_energy_j: island.total_energy_j,
                            trace_digest: island.trace_digest,
                            injected: island.injected,
                            rt_deadline: island.rt_deadline,
                        });
                        fleet_metrics.merge_from(&island.metrics);
                        let _ = cloud_obs.with(|o| o.trace.absorb(&island.fault_trace));
                        flight_counter += 1;
                    }
                }
            }
        }
        // Leased drones whose plans were deferred go back to storage.
        for name in saved_map.keys() {
            cloud.inner.vdr.abandon(name);
        }
    }

    // End-of-run sweep: whatever is still pending could not be served
    // within the wave budget — refund the unserved remainder (the
    // full allotment if it never flew). Interrupted entries stay in
    // the VDR: the customer's drone itself is never lost.
    for id in 0..book.lines().len() {
        if book.line(id).resolution().is_none() {
            book.refund(id, cloud);
        }
    }
    let tenants = book.outcomes(&cloud.inner.billing);

    // The cloud façade's own registry merges last, after every
    // flight's — one fixed position, independent of thread count.
    if let Some(cloud_metrics) = cloud_obs.with(|o| o.metrics.clone()) {
        fleet_metrics.merge_from(&cloud_metrics);
    }

    Ok(FleetOutcome {
        flights,
        tenants,
        waves_run,
        cloud_log: cloud.log.clone(),
        cloud_backoff_ns: cloud.backoff_spent.as_nanos(),
        metrics: fleet_metrics,
    })
}

//! The full-fidelity `fleet_full` workload and its traced replay.
//!
//! A service day of two-waypoint tenants on three drones through
//! `FleetSpec::run`: every flight boots a whole onboard stack and runs
//! the 400 Hz tick loop, so the drone stack and VRP planning do nearly
//! all the work. Time allotments are tight, so missions span waves and
//! resume from the VDR. The traced run re-drives the same waves
//! through the public calls — `try_plan_flights`, `Drone::boot`,
//! deploy, `execute_flight_probed`, `save_vdrone`, the VDR — and
//! proves it flew the executor's flights by reproducing every
//! flight's `trace_digest` and the run's `fleet_digest`.

use std::collections::BTreeMap;
use std::time::Instant;

use androne::cloud::{FallibleCloud, PlacedOrder, SaveReason, SavedVirtualDrone};
use androne::hal::GeoPoint;
use androne::simkern::{substream_seed, FleetFaultPlan};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::{
    execute_flight_probed, DigestProbe, Drone, EndReason, FaultInjector, FleetConfig, FleetOutcome,
    FleetTenant, FlightLog, FlightProbe, FlightRecord, ProbeStack, TenantOutcome, TenantResolution,
};

use crate::spans::Spans;

/// Tenants in one service day.
pub const FLEET_TENANTS: usize = 14;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

/// The service day for `seed`: tenant `k` orders two waypoints on a
/// fixed fan around the base, spread far enough that VRP splits
/// missions across routes (so tenants resume from the VDR in later
/// waves), with an 8 s service window and ample energy. The seed is
/// the run seed every flight's kernel substreams derive from.
///
/// The layout itself does not move with the seed: a few metres of
/// seeded jitter flip VRP between one-wave and three-wave days, and a
/// benchmark whose inputs change shape from seed to seed cannot hold
/// a bound.
pub fn fleet_config(seed: u64) -> FleetConfig {
    let wp = |north: f64, east: f64| {
        let p = BASE.offset_m(north, east, 15.0);
        WaypointSpec {
            latitude: p.latitude,
            longitude: p.longitude,
            altitude: 15.0,
            max_radius: 40.0,
        }
    };
    let tenants = (0..FLEET_TENANTS)
        .map(|i| {
            let k = i as f64;
            FleetTenant {
                vd_name: format!("vd{:02}", i + 1),
                user: format!("user{:02}", i + 1),
                spec: VirtualDroneSpec {
                    waypoints: vec![
                        wp(45.0 + 8.0 * k, -40.0 + 13.0 * k),
                        wp(70.0 - 5.0 * k, 30.0 + 9.0 * k),
                    ],
                    max_duration: 8.0,
                    energy_allotted: 60_000.0,
                    continuous_devices: vec![],
                    waypoint_devices: vec!["camera".into(), "flight-control".into()],
                    apps: vec![],
                    app_args: Default::default(),
                },
            }
        })
        .collect();
    FleetConfig {
        base: BASE,
        seed,
        fleet_size: 3,
        tenants,
        max_waves: 16,
        max_sim_seconds: 240.0,
        watchdog: None,
        threads: 1,
    }
}

/// Per-tenant simulated order→resolution latency, seconds. Every
/// order is placed at time 0; waves run back to back, and a wave
/// lasts as long as its longest flight (the fleet's drones fly a
/// wave's flights concurrently). A tenant resolves when the flight
/// that finished it lands; one never flown resolves when the run
/// ends.
pub fn sim_latencies(out: &FleetOutcome) -> Vec<f64> {
    let mut wave_len: BTreeMap<u64, f64> = BTreeMap::new();
    for f in &out.flights {
        let e = wave_len.entry(f.wave).or_insert(0.0);
        *e = e.max(f.duration_s);
    }
    let wave_start = |wave: u64| -> f64 { wave_len.range(..wave).map(|(_, d)| d).sum() };
    let run_end: f64 = wave_len.values().sum();
    out.tenants
        .keys()
        .map(|name| {
            out.flights
                .iter()
                .rev()
                .find(|f| f.owners.contains(name))
                .map_or(run_end, |f| wave_start(f.wave) + f.duration_s)
        })
        .collect()
}

/// Host time per simulated second, stamped by `on_tick` (which the
/// executor fires once per simulated second).
struct TickTimer {
    last: Instant,
    samples_us: Vec<f64>,
}

impl FlightProbe for TickTimer {
    fn on_tick(&mut self, _tick: u64, _drone: &mut Drone) {
        let now = Instant::now();
        self.samples_us
            .push(now.duration_since(self.last).as_secs_f64() * 1e6);
        self.last = now;
    }
}

/// What the traced replay measured and reproduced.
pub struct FleetReplay {
    /// The replay's own outcome; flight by flight it must equal the
    /// executor's.
    pub outcome: FleetOutcome,
    /// Host time per layer call, seconds.
    pub spans: Spans,
    /// Host microseconds per simulated second, every flight pooled.
    pub host_us_per_sim_s: Vec<f64>,
    /// Plans VRP produced, across waves.
    pub plans_produced: u64,
    /// Waypoint legs aboard the produced plans.
    pub legs_planned: u64,
    /// Waypoint legs aboard the flown plans.
    pub legs_flown: u64,
    /// VDR checkout/store/commit/abandon calls.
    pub vdr_ops: u64,
    /// VDR leases still outstanding when the run ends.
    pub vdr_leased_at_end: usize,
    /// Why the replay stopped short, if it did (a deploy failure the
    /// benchmark workload should never produce).
    pub error: Option<String>,
}

struct Tenant {
    user: String,
    spec: VirtualDroneSpec,
    flights_flown: u32,
    waypoints_completed: usize,
    billed_energy_j: f64,
    billed_time_s: f64,
    refunded_energy_j: f64,
    remaining_energy_j: f64,
    remaining_time_s: f64,
    resolution: Option<TenantResolution>,
}

/// One aboard tenant's post-flight reads, carried to the merge.
struct Post {
    owner: String,
    wp_prior: usize,
    flights_prior: u32,
    used_e: f64,
    used_t: f64,
    completed_all: bool,
    wp_flight: usize,
    rem_e: f64,
    rem_t: f64,
    revoked: bool,
    file_data: Vec<(String, bytes::Bytes)>,
    archive: androne::container::ContainerArchive,
    app_state: String,
}

/// An aboard drone's origin: a leased VDR entry or a fresh order.
enum Source {
    Resume(SavedVirtualDrone),
    Fresh(VirtualDroneSpec),
}

/// Re-drives the fleet run for `cfg` (no faults, no attacks, legacy
/// admission, one VDR shard, one thread) through public calls, in the
/// executor's order: at one thread its batches fly plan by plan.
pub fn replay(cfg: &FleetConfig) -> FleetReplay {
    let mut spans = Spans::default();
    let total = Instant::now();
    let faults = FleetFaultPlan::empty();
    let mut cloud = FallibleCloud::with_shards(1);
    let mut states: BTreeMap<String, Tenant> = cfg
        .tenants
        .iter()
        .map(|t| {
            let st = Tenant {
                user: t.user.clone(),
                spec: t.spec.clone(),
                flights_flown: 0,
                waypoints_completed: 0,
                billed_energy_j: 0.0,
                billed_time_s: 0.0,
                refunded_energy_j: 0.0,
                remaining_energy_j: t.spec.energy_allotted,
                remaining_time_s: t.spec.max_duration,
                resolution: None,
            };
            (t.vd_name.clone(), st)
        })
        .collect();
    let mut flights: Vec<FlightRecord> = Vec::new();
    let mut host_us: Vec<f64> = Vec::new();
    let mut next_order_id = 1u64;
    let mut waves_run = 0u64;
    let (mut plans_produced, mut legs_planned, mut legs_flown) = (0u64, 0u64, 0u64);
    let mut vdr_ops = 0u64;
    let mut error = None;

    'waves: for wave in 0..cfg.max_waves {
        if states.values().all(|s| s.resolution.is_some()) {
            break;
        }
        waves_run = wave + 1;
        cloud.begin_wave(wave, faults.cloud_armed(wave));

        // Orders: fresh specs, or resume specs checked out of the VDR.
        let mut orders: Vec<PlacedOrder> = Vec::new();
        let mut saved_map: BTreeMap<String, SavedVirtualDrone> = BTreeMap::new();
        let mut refunds: Vec<(String, String, f64)> = Vec::new();
        for (name, st) in states.iter_mut() {
            if st.resolution.is_some() {
                continue;
            }
            let spec = if st.flights_flown == 0 {
                Some(st.spec.clone())
            } else {
                vdr_ops += 1;
                match spans.time("cloud.vdr", || cloud.checkout_saved(name)) {
                    Err(_) | Ok(None) => None,
                    Ok(Some(saved)) => match saved.resume_spec() {
                        Some(rspec) => {
                            saved_map.insert(name.clone(), saved);
                            Some(rspec)
                        }
                        None => {
                            let remaining = saved.remaining_energy_j.max(0.0);
                            vdr_ops += 1;
                            spans.time("cloud.vdr", || cloud.inner.vdr.abandon(name));
                            refunds.push((st.user.clone(), name.clone(), remaining));
                            st.refunded_energy_j += remaining;
                            st.resolution = Some(TenantResolution::Refunded);
                            None
                        }
                    },
                }
            };
            if let Some(spec) = spec {
                orders.push(PlacedOrder {
                    order_id: next_order_id,
                    user: st.user.clone(),
                    vd_name: name.clone(),
                    spec,
                    flexible_schedule: true,
                });
                next_order_id += 1;
            }
        }
        for (user, name, remaining) in refunds {
            spans.time("cloud.billing", || {
                cloud.refund_unserved(&user, &name, remaining)
            });
        }
        if orders.is_empty() {
            continue;
        }
        let plans = spans.time("planner.vrp", || {
            cloud.try_plan_flights(&orders, cfg.base, cfg.fleet_size)
        });
        let Ok(plans) = plans else {
            error = Some(format!("wave {wave}: planning refused"));
            break;
        };
        plans_produced += plans.len() as u64;
        legs_planned += plans.iter().map(|p| p.legs.len() as u64).sum::<u64>();

        for plan in plans {
            let mut owners: Vec<String> = plan.legs.iter().map(|l| l.owner.clone()).collect();
            owners.sort();
            owners.dedup();
            // Flyable only if every aboard drone can be produced: a
            // resume we hold the lease for, or a tenant not yet flown.
            let sources: Option<Vec<Source>> = owners
                .iter()
                .map(|o| match saved_map.get(o) {
                    Some(saved) => Some(Source::Resume(saved.clone())),
                    None => states
                        .get(o)
                        .filter(|s| s.flights_flown == 0 && s.resolution.is_none())
                        .map(|s| Source::Fresh(s.spec.clone())),
                })
                .collect();
            let Some(sources) = sources else {
                cloud.log.push(format!(
                    "wave {wave}: plan deferred, unavailable drone aboard"
                ));
                continue;
            };
            let legs = plan.legs.len() as u64;
            let flight_index = flights.len();
            let seed = substream_seed(cfg.seed, wave, flight_index);

            let booted = spans.time("drone.boot", || Drone::boot(cfg.base, seed));
            let mut drone = match booted {
                Ok(d) => d,
                Err(e) => {
                    error = Some(format!("flight {flight_index}: boot failed: {e}"));
                    break 'waves;
                }
            };
            let mut prior: BTreeMap<String, (usize, u32)> = BTreeMap::new();
            for (owner, source) in owners.iter().zip(&sources) {
                let deployed = match source {
                    Source::Resume(saved) => {
                        let spec = saved.resume_spec().unwrap_or_else(|| saved.spec.clone());
                        let wp = if saved.resumable() {
                            saved.waypoints_completed
                        } else {
                            0
                        };
                        prior.insert(owner.clone(), (wp, saved.flights_flown));
                        spans.time("drone.deploy", || {
                            drone
                                .deploy_from_archive(&saved.archive, spec, &[], &saved.app_state)
                                .map(|_| ())
                        })
                    }
                    Source::Fresh(spec) => {
                        prior.insert(owner.clone(), (0, 0));
                        spans.time("drone.deploy", || {
                            drone.deploy_vdrone(owner, spec.clone(), &[]).map(|_| ())
                        })
                    }
                };
                if let Err(e) = deployed {
                    error = Some(format!(
                        "flight {flight_index}: {owner} failed to deploy: {e}"
                    ));
                    break 'waves;
                }
            }
            drone.vdc.borrow_mut().set_watchdog(cfg.watchdog);

            let mut injector = FaultInjector::new(faults.effective_plan(flight_index));
            let mut digest = DigestProbe::new();
            let mut timer = TickTimer {
                last: Instant::now(),
                samples_us: Vec::new(),
            };
            let outcome = spans.time("flight.fly", || {
                let mut probes = ProbeStack::new();
                probes.push(&mut injector);
                probes.push(&mut digest);
                probes.push(&mut timer);
                execute_flight_probed(&mut drone, plan, cfg.max_sim_seconds, None, &mut probes)
            });
            host_us.extend(timer.samples_us);

            // Post-flight reads and saves, per owner in sorted order.
            let mut posts = Vec::new();
            for owner in &owners {
                if drone.pending_restarts.contains_key(owner) {
                    if let Err(e) = drone.supervised_restart_vdrone(owner) {
                        error = Some(format!("flight {flight_index}: restart failed: {e}"));
                        break 'waves;
                    }
                }
                let rec = {
                    let vdc = drone.vdc.borrow();
                    vdc.record(owner).map(|r| {
                        (
                            r.marked_files.clone(),
                            r.spec.energy_allotted - r.energy_remaining_j(),
                            r.spec.max_duration - r.time_remaining_s(),
                            r.waypoints_completed() >= r.spec.waypoints.len(),
                            r.waypoints_completed(),
                            r.energy_remaining_j(),
                            r.time_remaining_s(),
                            r.revoked,
                        )
                    })
                };
                let (files, used_e, used_t, completed_all, wp_flight, rem_e, rem_t, rec_revoked) =
                    rec.unwrap_or_default();
                let file_data: Vec<(String, bytes::Bytes)> = files
                    .into_iter()
                    .map(|path| {
                        let data = drone
                            .runtime
                            .get(owner)
                            .and_then(|c| c.fs.read(&path))
                            .unwrap_or_else(|| bytes::Bytes::from_static(b""));
                        (path, data)
                    })
                    .collect();
                let revoked = rec_revoked
                    || outcome.log.iter().any(|e| {
                        matches!(
                            e,
                            FlightLog::WaypointEnd {
                                owner: o,
                                reason: EndReason::WatchdogRevoked,
                                ..
                            } if o == owner
                        )
                    });
                let saved = spans.time("drone.save", || drone.save_vdrone(owner));
                let (archive, app_state) = match saved {
                    Ok(s) => s,
                    Err(e) => {
                        error = Some(format!("flight {flight_index}: save failed: {e}"));
                        break 'waves;
                    }
                };
                let (wp_prior, flights_prior) = prior.get(owner).copied().unwrap_or((0, 0));
                posts.push(Post {
                    owner: owner.clone(),
                    wp_prior,
                    flights_prior,
                    used_e,
                    used_t,
                    completed_all,
                    wp_flight,
                    rem_e,
                    rem_t,
                    revoked,
                    file_data,
                    archive,
                    app_state,
                });
            }
            let injected = injector.actions().to_vec();
            spans.time("drone.teardown", || drop(drone));

            // Merge: commit leases, bill, store, resolve.
            for (owner, source) in owners.iter().zip(&sources) {
                if matches!(source, Source::Resume(_)) {
                    saved_map.remove(owner);
                    vdr_ops += 1;
                    spans.time("cloud.vdr", || cloud.inner.vdr.commit(owner));
                }
            }
            let flight_id = cloud.inner.new_flight_id();
            for post in posts {
                let Post {
                    owner,
                    wp_prior,
                    flights_prior,
                    used_e,
                    used_t,
                    completed_all,
                    wp_flight,
                    rem_e,
                    rem_t,
                    revoked,
                    file_data,
                    archive,
                    app_state,
                } = post;
                let Some(st) = states.get_mut(&owner) else {
                    error = Some(format!("flight {flight_index}: unknown owner {owner}"));
                    break 'waves;
                };
                let user = st.user.clone();
                spans.time("cloud.billing", || {
                    cloud.try_complete_flight(&user, flight_id, used_e, file_data)
                });
                st.flights_flown = flights_prior + 1;
                st.waypoints_completed = wp_prior + wp_flight;
                st.billed_energy_j += used_e;
                st.billed_time_s += used_t;
                st.remaining_energy_j = rem_e;
                st.remaining_time_s = rem_t;
                let saved = SavedVirtualDrone {
                    name: owner.clone(),
                    owner: st.user.clone(),
                    spec: st.spec.clone(),
                    archive,
                    app_state,
                    reason: if completed_all {
                        SaveReason::Completed
                    } else {
                        SaveReason::Interrupted
                    },
                    remaining_energy_j: rem_e,
                    remaining_time_s: rem_t,
                    waypoints_completed: wp_prior + wp_flight,
                    flights_flown: flights_prior + 1,
                };
                vdr_ops += 1;
                spans.time("cloud.vdr", || cloud.inner.vdr.store(saved));
                if completed_all {
                    st.resolution = Some(TenantResolution::Completed);
                } else if revoked {
                    st.refunded_energy_j += rem_e;
                    st.resolution = Some(TenantResolution::Refunded);
                    spans.time("cloud.billing", || {
                        cloud.refund_unserved(&user, &owner, rem_e)
                    });
                }
            }
            legs_flown += legs;
            flights.push(FlightRecord {
                wave,
                flight_index,
                owners,
                completed: outcome.completed,
                end_reason: outcome.end_reason,
                duration_s: outcome.duration_s,
                total_energy_j: outcome.total_energy_j,
                trace_digest: digest.digest(),
                injected,
                rt_deadline: None,
            });
        }
        for name in saved_map.keys() {
            vdr_ops += 1;
            spans.time("cloud.vdr", || cloud.inner.vdr.abandon(name));
        }
    }

    // End-of-run sweep: refund whatever the wave guard left pending.
    for (name, st) in states.iter_mut() {
        if st.resolution.is_some() {
            continue;
        }
        let remaining = if st.flights_flown == 0 {
            st.spec.energy_allotted
        } else {
            st.remaining_energy_j
        };
        spans.time("cloud.billing", || {
            cloud.refund_unserved(&st.user, name, remaining)
        });
        st.refunded_energy_j += remaining;
        st.resolution = Some(TenantResolution::Refunded);
    }
    let tenants = states
        .into_iter()
        .map(|(name, st)| {
            let bill = cloud.inner.billing.bill(&st.user);
            let outcome = TenantOutcome {
                user: st.user,
                flights_flown: st.flights_flown,
                waypoints_completed: st.waypoints_completed,
                waypoints_total: st.spec.waypoints.len(),
                energy_allotted_j: st.spec.energy_allotted,
                billed_energy_j: st.billed_energy_j,
                billed_time_s: st.billed_time_s,
                refunded_energy_j: st.refunded_energy_j,
                remaining_energy_j: st.remaining_energy_j,
                remaining_time_s: st.remaining_time_s,
                ledger_energy_j: bill.energy_j,
                ledger_refund_j: bill.energy_refund_j,
                resolution: st.resolution.unwrap_or(TenantResolution::Refunded),
            };
            (name, outcome)
        })
        .collect();
    let outcome = FleetOutcome {
        flights,
        tenants,
        waves_run,
        cloud_log: cloud.log.clone(),
        cloud_backoff_ns: cloud.backoff_spent.as_nanos(),
        metrics: Default::default(),
    };
    spans.set_total(total.elapsed().as_secs_f64());
    FleetReplay {
        outcome,
        spans,
        host_us_per_sim_s: host_us,
        plans_produced,
        legs_planned,
        legs_flown,
        vdr_ops,
        vdr_leased_at_end: cloud.inner.vdr.stats().leased,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne::FleetSpec;

    #[test]
    fn replay_reproduces_every_flight_including_resumes() {
        let cfg = fleet_config(crate::DEFAULT_SEED);
        let exec = FleetSpec::new(cfg.clone()).run().expect("fleet run");
        let r = replay(&cfg);
        assert_eq!(r.error, None);
        assert!(exec.waves_run > 1, "missions span waves");
        assert!(
            r.plans_produced > exec.flights.len() as u64,
            "some plans wait a wave"
        );
        let digests =
            |o: &FleetOutcome| -> Vec<u64> { o.flights.iter().map(|f| f.trace_digest).collect() };
        assert_eq!(digests(&r.outcome), digests(&exec));
        assert_eq!(r.outcome.fleet_digest(), exec.fleet_digest());
        assert_eq!(r.vdr_leased_at_end, 0);
        assert_eq!(r.host_us_per_sim_s.len() as f64, {
            // One sample per simulated second of every flight.
            exec.flights
                .iter()
                .map(|f| f.duration_s.ceil())
                .sum::<f64>()
        });
    }

    #[test]
    fn latency_is_the_landing_of_each_tenants_last_flight() {
        let exec = FleetSpec::new(fleet_config(crate::DEFAULT_SEED))
            .run()
            .expect("fleet run");
        let lat = sim_latencies(&exec);
        assert_eq!(lat.len(), FLEET_TENANTS);
        let first_wave = exec
            .flights
            .iter()
            .filter(|f| f.wave == 0)
            .map(|f| f.duration_s)
            .fold(0.0, f64::max);
        // Someone finishes in wave 0; someone only after it.
        assert!(lat.iter().any(|&l| l <= first_wave));
        assert!(lat.iter().any(|&l| l > first_wave));
    }
}

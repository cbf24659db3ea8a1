//! The two control-plane ladder workloads and their traced replay.
//!
//! Both ladders run `execute_scale_fleet` on one seeded cohort. They
//! differ only in admission: `ladder_backlog` keeps the rung defaults
//! (the saturated control plane), `ladder_steady` admits what the
//! fleet can fly. The executor is one opaque call, so the traced run
//! re-drives the same wave loop here through the layers' public
//! functions — `FallibleCloud` submit/admit, `bin_pack`, the VDR —
//! timing each call, and proves the replay is the executor's run by
//! reproducing its backpressure count, queue-depth peak and
//! `fleet_digest` exactly.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use androne::cloud::{
    AdmissionConfig, FallibleCloud, OrderRequest, OrderSubmitError, PlacedOrder, SaveReason,
    SavedVirtualDrone, MAX_VDRONES_PER_FLIGHT,
};
use androne::container::{ContainerArchive, ContainerKind, Layer};
use androne::energy::DorlingModel;
use androne::hal::GeoPoint;
use androne::planner::{bin_pack, PackItem};
use androne::sdk::Backpressure;
use androne::simkern::{substream_seed, StateHasher};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::{ScaleConfig, ScaleFlightRecord, ScaleOutcome, ScaleResolution, ScaleTenantOutcome};

use crate::spans::Spans;

/// Cohort size of both ladders: large enough that the backlog ladder
/// saturates admission (~130k backpressured resubmits), small enough
/// for several timed iterations per run.
pub const LADDER_TENANTS: usize = 30_000;

// The scale executor's synthetic-tenant constants. The replay must
// generate the executor's exact cohort, so these mirror
// `androne::scale`; a drift shows up as a replay digest mismatch.
const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);
const SERVICE_ENERGY_J: f64 = 1_500.0;
const SERVICE_TIME_S: f64 = 30.0;
const MAX_OFFSET_M: f64 = 512.0;
const TURNAROUND_S: f64 = 60.0;
const PROVISION_MARGIN_J: f64 = 1.0;

/// The saturated ladder: rung defaults (admit 768 per wave, queue
/// 3072) on a single executor thread.
pub fn backlog_config(seed: u64) -> ScaleConfig {
    ScaleConfig::rung(LADDER_TENANTS).seed(seed).threads(1)
}

/// The matched ladder: the same cohort, admitting per wave what the
/// fleet can fly (fleet × party cap ÷ the cohort's most legs per
/// tenant, so an admitted tenant's every leg finds a seat) from a
/// queue that holds the whole cohort — no backpressure, no spills.
pub fn steady_config(seed: u64) -> ScaleConfig {
    let base = backlog_config(seed);
    let max_legs = (0..base.tenants)
        .map(|i| waypoint_count(seed, i))
        .max()
        .unwrap_or(1);
    ScaleConfig {
        admit_per_wave: (base.fleet_size * MAX_VDRONES_PER_FLIGHT / max_legs).max(1),
        queue_capacity: base.tenants,
        ..base
    }
}

fn waypoint_count(seed: u64, index: usize) -> usize {
    1 + (substream_seed(seed, 1, index) % 3) as usize
}

/// Tenant `index`'s order, exactly as the scale executor builds it.
fn tenant_order(cfg: &ScaleConfig, index: usize, model: &DorlingModel) -> OrderRequest {
    let h = substream_seed(cfg.seed, 1, index);
    let wp_count = waypoint_count(cfg.seed, index);
    let mut waypoints = Vec::with_capacity(wp_count);
    for j in 0..wp_count {
        let hj = substream_seed(cfg.seed, 2, index * 4 + j);
        let north = 64.0 + (hj & 0x3FF) as f64 * (MAX_OFFSET_M - 64.0) / 1023.0;
        let east = 64.0 + ((hj >> 10) & 0x3FF) as f64 * (MAX_OFFSET_M - 64.0) / 1023.0;
        let p = BASE.offset_m(north, east, 15.0);
        waypoints.push(WaypointSpec {
            latitude: p.latitude,
            longitude: p.longitude,
            altitude: 15.0,
            max_radius: 0.0,
        });
    }
    let needs: Vec<(f64, f64)> = waypoints
        .iter()
        .map(|wp| waypoint_need(model, &wp.position()))
        .collect();
    let full_energy: f64 = needs.iter().map(|(e, _)| e).sum::<f64>() + PROVISION_MARGIN_J;
    let full_time: f64 = needs.iter().map(|(_, t)| t).sum::<f64>() + 600.0;
    let energy = if index % 13 == 5 {
        let last = needs.last().map_or(0.0, |(e, _)| *e);
        (full_energy - 0.55 * last).max(last * 0.25)
    } else {
        full_energy
    };
    OrderRequest {
        user: format!("u{index:06}"),
        waypoints,
        drone_type: if h & 1 == 0 { "video" } else { "sensor" }.to_string(),
        apps: Vec::new(),
        extra_waypoint_devices: Vec::new(),
        extra_continuous_devices: Vec::new(),
        max_charge_cents: energy / 400.0,
        max_duration_s: full_time,
        flexible_schedule: true,
    }
}

fn waypoint_need(model: &DorlingModel, wp: &GeoPoint) -> (f64, f64) {
    let dist = BASE.ground_distance_m(wp);
    (
        model.leg_energy_j(2.0 * dist, 0.0) + SERVICE_ENERGY_J,
        model.leg_time_s(2.0 * dist) + SERVICE_TIME_S,
    )
}

fn synthetic_archive(name: &str, waypoints_completed: usize) -> ContainerArchive {
    let mut diff = Layer::new();
    diff.write(
        "/data/androne/state.bin",
        bytes::Bytes::from(vec![0xA5u8; 256 + 32 * waypoints_completed]),
    );
    ContainerArchive {
        name: name.to_string(),
        kind: ContainerKind::VirtualDrone,
        base_stack: Vec::new(),
        diff,
    }
}

/// One closed-form flight: its record and each served leg's
/// `(owner, energy_j, time_s)`.
struct ClosedFormFlight {
    record: ScaleFlightRecord,
    served: Vec<(String, f64, f64)>,
}

/// Flies one packed flight in closed form, exactly as the scale
/// executor's island does: travel plus service per leg, folded into
/// the flight digest.
fn fly_closed_form(
    model: &DorlingModel,
    wave: u64,
    flight_index: u64,
    legs: Vec<(String, f64)>,
) -> ClosedFormFlight {
    let mut h = StateHasher::new();
    h.write_u64(wave);
    h.write_u64(flight_index);
    let mut served = Vec::with_capacity(legs.len());
    let (mut energy, mut duration) = (0.0, 0.0);
    for (owner, dist_m) in legs {
        let e = model.leg_energy_j(2.0 * dist_m, 0.0) + SERVICE_ENERGY_J;
        let t = model.leg_time_s(2.0 * dist_m) + SERVICE_TIME_S;
        h.write_str(&owner);
        h.write_f64(dist_m);
        h.write_f64(e);
        h.write_f64(t);
        energy += e;
        duration += t;
        served.push((owner, e, t));
    }
    ClosedFormFlight {
        record: ScaleFlightRecord {
            wave,
            flight_index,
            legs: served.len() as u32,
            energy_j: energy,
            duration_s: duration,
            digest: h.finish(),
        },
        served,
    }
}

struct Tenant {
    user: String,
    needs: Vec<(f64, f64)>,
    dists: Vec<f64>,
    next_wp: usize,
    remaining_e: f64,
    remaining_t: f64,
    billed_e: f64,
    refunded_e: f64,
    flights_flown: u32,
    resolution: Option<(ScaleResolution, f64)>,
    spec: VirtualDroneSpec,
}

/// What the traced replay measured and reproduced.
pub struct LadderReplay {
    /// The replay's own outcome; its `fleet_digest` must equal the
    /// executor's.
    pub outcome: ScaleOutcome,
    /// Host time per layer call, seconds (replayed, not in-run).
    pub spans: Spans,
    /// `place_order` + `resubmit` calls.
    pub submit_calls: u64,
    /// Submissions the queue accepted.
    pub accepted: u64,
    /// VDR checkout/store/commit/stats calls (compaction apart).
    pub vdr_ops: u64,
    /// Items offered to `bin_pack` across waves.
    pub legs_offered: u64,
    /// Items `bin_pack` spilled across waves.
    pub legs_spilled: u64,
    /// Host microseconds per simulated flight-second, one sample per
    /// wave that flew.
    pub host_us_per_sim_s: Vec<f64>,
}

/// Re-drives `cfg`'s run through the public layer functions, timing
/// each call. Mirrors `execute_scale_fleet` statement for statement
/// (single-threaded: the executor's islands are pure, so flying them
/// inline changes nothing but the thread they run on).
pub fn replay(cfg: &ScaleConfig) -> LadderReplay {
    let model = DorlingModel::f450_prototype();
    let mut spans = Spans::default();
    let total = Instant::now();
    let mut cloud = FallibleCloud::with_shards(cfg.shards.max(1));
    cloud.set_admission(AdmissionConfig::batched(
        cfg.admit_per_wave.max(1),
        cfg.queue_capacity.max(1),
    ));
    let worst_dist = (2.0 * MAX_OFFSET_M * MAX_OFFSET_M).sqrt();
    let battery_budget_j = MAX_VDRONES_PER_FLIGHT as f64
        * (model.leg_energy_j(2.0 * worst_dist, 0.0) + SERVICE_ENERGY_J)
        + 1.0;

    let mut states: BTreeMap<String, Tenant> = BTreeMap::new();
    let mut ready: VecDeque<String> = VecDeque::new();
    let mut retries: BTreeMap<u64, Vec<PlacedOrder>> = BTreeMap::new();
    let mut flights: Vec<ScaleFlightRecord> = Vec::new();
    let mut clock_s = 0.0f64;
    let mut flight_counter = 0u64;
    let mut waves_run = 0u64;
    let mut quiescent = false;
    let (mut submit_calls, mut accepted, mut vdr_ops) = (0u64, 0u64, 0u64);
    let (mut legs_offered, mut legs_spilled) = (0u64, 0u64);
    let mut host_us_per_sim_s: Vec<f64> = Vec::new();

    for wave in 0..cfg.max_waves {
        waves_run = wave + 1;
        cloud.begin_wave(wave, Vec::new());

        // Submission: the whole cohort at wave 0, then due retries.
        let mut outcomes: Vec<Result<(), OrderSubmitError>> = Vec::new();
        if wave == 0 {
            for i in 0..cfg.tenants {
                let req = tenant_order(cfg, i, &model);
                let res = spans.time("cloud.submit", || cloud.place_order(req));
                outcomes.push(res.map(|_| ()));
            }
        }
        for placed in retries.remove(&wave).unwrap_or_default() {
            let res = spans.time("cloud.submit", || cloud.resubmit(placed));
            outcomes.push(res.map(|_| ()));
        }
        for res in outcomes {
            submit_calls += 1;
            match res {
                Ok(()) => accepted += 1,
                Err(OrderSubmitError::Backpressure { err, order }) => {
                    let at = err.retry_wave().unwrap_or(wave + 1).max(wave + 1);
                    retries.entry(at).or_default().push(*order);
                }
                Err(OrderSubmitError::Order(_)) => {}
            }
        }

        // Admission.
        let admitted = spans.time("cloud.admit", || cloud.admit_orders());
        for placed in admitted {
            let needs = placed
                .spec
                .waypoints
                .iter()
                .map(|wp| waypoint_need(&model, &wp.position()))
                .collect();
            let dists = placed
                .spec
                .waypoints
                .iter()
                .map(|wp| BASE.ground_distance_m(&wp.position()))
                .collect();
            let name = placed.vd_name.clone();
            states.insert(
                name.clone(),
                Tenant {
                    user: placed.user.clone(),
                    needs,
                    dists,
                    next_wp: 0,
                    remaining_e: placed.spec.energy_allotted,
                    remaining_t: placed.spec.max_duration,
                    billed_e: 0.0,
                    refunded_e: 0.0,
                    flights_flown: 0,
                    resolution: None,
                    spec: placed.spec,
                },
            );
            ready.push_back(name);
        }

        // Plan: affordability gate over the ready backlog, then pack.
        let mut items: Vec<PackItem> = Vec::new();
        let mut item_names: Vec<String> = Vec::new();
        for _ in 0..ready.len() {
            let Some(name) = ready.pop_front() else { break };
            let Some(st) = states.get_mut(&name) else {
                continue;
            };
            let Some(&(need_e, need_t)) = st.needs.get(st.next_wp) else {
                continue;
            };
            if st.remaining_e < need_e || st.remaining_t < need_t {
                let refund = st.remaining_e.max(0.0);
                st.refunded_e = refund;
                st.resolution = Some((ScaleResolution::Exhausted, clock_s));
                let user = st.user.clone();
                spans.time("cloud.billing", || {
                    cloud.refund_unserved(&user, &name, refund)
                });
                continue;
            }
            items.push(PackItem {
                owner: name.clone(),
                energy_j: need_e,
                time_s: need_t,
            });
            item_names.push(name);
        }
        let packing = spans.time("planner.bin_pack", || {
            bin_pack(
                &items,
                cfg.fleet_size.max(1),
                MAX_VDRONES_PER_FLIGHT,
                battery_budget_j,
            )
        });
        legs_offered += items.len() as u64;
        legs_spilled += packing.spilled.len() as u64;
        for &idx in &packing.spilled {
            if let Some(name) = item_names.get(idx) {
                ready.push_back(name.clone());
            }
        }

        // Leases, then the wave's flights in closed form (the
        // executor's islands), then the merge — the executor's order.
        let mut works: Vec<(u64, Vec<(String, f64)>)> = Vec::with_capacity(packing.flights.len());
        for flight in &packing.flights {
            let legs = flight
                .items
                .iter()
                .filter_map(|&idx| {
                    let name = item_names.get(idx)?;
                    let st = states.get(name)?;
                    Some((name.clone(), *st.dists.get(st.next_wp)?))
                })
                .collect();
            works.push((flight_counter, legs));
            flight_counter += 1;
        }
        let mut leased: Vec<String> = Vec::new();
        for (_, legs) in &works {
            for (owner, _) in legs {
                if states.get(owner).is_some_and(|s| s.flights_flown > 0) {
                    vdr_ops += 1;
                    if spans
                        .time("cloud.vdr", || cloud.inner.vdr.checkout(owner))
                        .is_some()
                    {
                        leased.push(owner.clone());
                    }
                }
            }
        }
        let t_fly = Instant::now();
        let outs: Vec<ClosedFormFlight> = works
            .into_iter()
            .map(|(flight_index, legs)| fly_closed_form(&model, wave, flight_index, legs))
            .collect();
        let fly_s = t_fly.elapsed().as_secs_f64();
        spans.add("flight.fly", fly_s);
        let wave_sim_s: f64 = outs.iter().map(|o| o.record.duration_s).sum();
        if wave_sim_s > 0.0 {
            host_us_per_sim_s.push(fly_s * 1e6 / wave_sim_s);
        }

        // Merge, in plan order: billing, VDR saves, progress.
        let mut wave_duration = 0.0f64;
        for ClosedFormFlight { record, served } in outs {
            let duration = record.duration_s;
            wave_duration = wave_duration.max(duration);
            flights.push(record);
            let landing_clock = clock_s + duration;
            for (name, e, t) in served {
                let Some(st) = states.get_mut(&name) else {
                    continue;
                };
                st.remaining_e -= e;
                st.remaining_t -= t;
                st.billed_e += e;
                st.next_wp += 1;
                st.flights_flown += 1;
                let user = st.user.clone();
                spans.time("cloud.billing", || {
                    cloud.inner.billing.charge_energy(&user, e)
                });
                let done = st.next_wp >= st.needs.len();
                let saved = SavedVirtualDrone {
                    name: name.clone(),
                    owner: st.user.clone(),
                    spec: st.spec.clone(),
                    archive: synthetic_archive(&name, st.next_wp),
                    app_state: format!("{{\"wp\":{}}}", st.next_wp),
                    reason: if done {
                        SaveReason::Completed
                    } else {
                        SaveReason::Interrupted
                    },
                    remaining_energy_j: st.remaining_e,
                    remaining_time_s: st.remaining_t,
                    waypoints_completed: st.next_wp,
                    flights_flown: st.flights_flown,
                };
                vdr_ops += 1;
                spans.time("cloud.vdr", || cloud.inner.vdr.store(saved));
                if done {
                    st.resolution = Some((ScaleResolution::Completed, landing_clock));
                } else {
                    ready.push_back(name);
                }
            }
        }
        for name in leased {
            vdr_ops += 1;
            spans.time("cloud.vdr", || cloud.inner.vdr.commit(&name));
        }

        // Compact when the journal has doubled past the live set.
        vdr_ops += 1;
        let stats = spans.time("cloud.vdr", || cloud.inner.vdr.stats());
        if stats.journal_entries > 2 * (stats.entries + stats.leased).max(1) {
            spans.time("cloud.compact", || cloud.inner.vdr.compact());
        }

        clock_s += if wave_duration > 0.0 {
            wave_duration + TURNAROUND_S
        } else {
            TURNAROUND_S
        };
        let all_resolved =
            states.len() == cfg.tenants && states.values().all(|s| s.resolution.is_some());
        if all_resolved && ready.is_empty() && retries.is_empty() && cloud.admission().is_empty() {
            quiescent = true;
            break;
        }
    }
    spans.time("cloud.compact", || cloud.inner.vdr.compact());

    let mut latencies: Vec<f64> = Vec::with_capacity(states.len());
    let tenants: BTreeMap<String, ScaleTenantOutcome> = states
        .into_iter()
        .map(|(name, st)| {
            let (resolution, resolved_clock) = st
                .resolution
                .unwrap_or((ScaleResolution::Exhausted, clock_s));
            latencies.push(resolved_clock);
            let outcome = ScaleTenantOutcome {
                user: st.user,
                resolution,
                waypoints_completed: st.next_wp,
                waypoints_total: st.needs.len(),
                flights_flown: st.flights_flown,
                billed_energy_j: st.billed_e,
                refunded_energy_j: st.refunded_e,
                latency_s: resolved_clock,
            };
            (name, outcome)
        })
        .collect();
    let outcome = ScaleOutcome {
        config: *cfg,
        tenants,
        flights,
        waves_run,
        quiescent,
        sim_duration_s: clock_s,
        p99_latency_s: crate::stats::nearest_rank(&mut latencies, 0.99),
        peak_queue_depth: cloud.admission().peak_depth(),
        backpressured_submissions: cloud.admission().backpressure_total(),
        vdr: cloud.inner.vdr.stats(),
        vdr_digest: cloud.inner.vdr.digest(),
        metrics: Default::default(),
    };
    spans.set_total(total.elapsed().as_secs_f64());
    LadderReplay {
        outcome,
        spans,
        submit_calls,
        accepted,
        vdr_ops,
        legs_offered,
        legs_spilled,
        host_us_per_sim_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use androne::execute_scale_fleet;

    #[test]
    fn ladder_steady_neither_bounces_nor_spills_where_backlog_does() {
        for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
            let steady = execute_scale_fleet(&steady_config(seed));
            assert!(steady.quiescent, "seed {seed}");
            assert_eq!(steady.backpressured_submissions, 0, "seed {seed}");
            assert_eq!(
                steady.metrics.counter("scale.legs_spilled"),
                0,
                "seed {seed}"
            );

            let backlog = execute_scale_fleet(&backlog_config(seed));
            assert!(backlog.quiescent, "seed {seed}");
            assert!(backlog.backpressured_submissions > 100_000, "seed {seed}");
            assert!(
                backlog.metrics.counter("scale.legs_spilled") > 0,
                "seed {seed}"
            );
            // Same cohort, same resolutions: only admission differs.
            assert_eq!(steady.completed(), backlog.completed(), "seed {seed}");
        }
    }

    #[test]
    fn replay_reproduces_the_executor_run() {
        let cfg = ScaleConfig {
            fleet_size: 6,
            admit_per_wave: 18,
            queue_capacity: 36,
            ..ScaleConfig::rung(300)
        }
        .seed(7);
        let exec = execute_scale_fleet(&cfg);
        let r = replay(&cfg);
        assert!(exec.backpressured_submissions > 0 && r.legs_spilled > 0);
        assert_eq!(
            r.outcome.backpressured_submissions,
            exec.backpressured_submissions
        );
        assert_eq!(r.outcome.peak_queue_depth, exec.peak_queue_depth);
        assert_eq!(r.outcome.p99_latency_s, exec.p99_latency_s);
        assert_eq!(r.outcome.fleet_digest(), exec.fleet_digest());
        assert_eq!(r.submit_calls, 300 + exec.backpressured_submissions);
        assert!(r.spans.total() >= r.spans.secs("planner.bin_pack"));
    }
}

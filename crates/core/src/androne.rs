//! The top-level AnDrone service: cloud plus drone fleet.
//!
//! Drives the complete Figure 4 workflow: users order virtual drones
//! from the portal; the flight planner allocates them to physical
//! flights; drones fly, handing each waypoint to its virtual drone;
//! after landing, files are offloaded to cloud storage, energy is
//! billed, and virtual drones are saved in the VDR (interrupted ones
//! can resume on a later flight).

use androne_android::AndroneManifest;
use androne_cloud::{CloudService, NotificationKind, PlacedOrder};
use androne_hal::GeoPoint;
use androne_planner::FlightPlan;

use crate::drone::{Drone, DroneError};
use crate::flight_exec::{execute_flight, AbortCheck, FlightOutcome};
use crate::ledger::Landing;

/// The assembled service.
pub struct Androne {
    /// The cloud side.
    pub cloud: CloudService,
    /// Launch base for the fleet.
    pub base: GeoPoint,
    /// Physical drones available.
    pub fleet_size: usize,
    seed: u64,
}

impl Androne {
    /// Creates the service with a fleet launching from `base`.
    pub fn new(base: GeoPoint, fleet_size: usize, seed: u64) -> Self {
        Androne {
            cloud: CloudService::new(),
            base,
            fleet_size,
            seed,
        }
    }

    /// Looks up the manifests for an order's apps (from the store).
    fn manifests_for(&self, order: &PlacedOrder) -> Vec<AndroneManifest> {
        order
            .spec
            .apps
            .iter()
            .filter_map(|apk| {
                let package = apk.strip_suffix(".apk").unwrap_or(apk);
                self.cloud.app_store.get(package).map(|l| l.manifest.clone())
            })
            .collect()
    }

    /// Plans and executes all flights for `orders`, performing
    /// post-flight bookkeeping. Returns one outcome per flight.
    pub fn execute_orders(
        &mut self,
        orders: &[PlacedOrder],
        max_sim_seconds: f64,
    ) -> Result<Vec<FlightOutcome>, DroneError> {
        let plans = self.cloud.plan_flights(orders, self.base, self.fleet_size);
        let mut outcomes = Vec::new();
        for plan in plans {
            let outcome = self.execute_one_flight(orders, plan, max_sim_seconds, None)?;
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }

    /// Executes one planned flight (exposed for scenario tests that
    /// need abort injection).
    pub fn execute_one_flight(
        &mut self,
        orders: &[PlacedOrder],
        plan: FlightPlan,
        max_sim_seconds: f64,
        abort: Option<AbortCheck<'_>>,
    ) -> Result<FlightOutcome, DroneError> {
        self.seed = self.seed.wrapping_add(100);
        let mut drone = Drone::boot(self.base, self.seed)?;

        // Deploy every virtual drone this plan serves.
        let owners: Vec<String> = {
            let mut o: Vec<String> = plan.legs.iter().map(|l| l.owner.clone()).collect();
            o.dedup();
            o.sort();
            o.dedup();
            o
        };
        // Prior progress per owner, for resumed drones' bookkeeping.
        let mut prior: std::collections::BTreeMap<String, (usize, u32)> =
            std::collections::BTreeMap::new();
        for owner in &owners {
            let order = orders
                .iter()
                .find(|o| &o.vd_name == owner)
                .ok_or_else(|| DroneError::UnknownVirtualDrone(owner.clone()))?;
            // Resume from the VDR if stored, otherwise fresh deploy.
            // The entry is leased during the deploy: a failure
            // abandons the lease and the stored drone survives.
            if let Some(saved) = self.cloud.vdr.checkout(owner) {
                let manifests = self.manifests_for(order);
                let spec = saved.resume_spec().unwrap_or_else(|| saved.spec.clone());
                match drone.deploy_from_archive(&saved.archive, spec, &manifests, &saved.app_state)
                {
                    Ok(_) => {
                        self.cloud.vdr.commit(owner);
                        // A non-resumable entry redeploys its full
                        // spec, so its mission progress restarts.
                        let wp_prior = if saved.resumable() {
                            saved.waypoints_completed
                        } else {
                            0
                        };
                        prior.insert(owner.clone(), (wp_prior, saved.flights_flown));
                    }
                    Err(e) => {
                        self.cloud.vdr.abandon(owner);
                        return Err(e);
                    }
                }
            } else {
                let manifests = self.manifests_for(order);
                drone.deploy_vdrone(owner, order.spec.clone(), &manifests)?;
            }
            // Notify the user their drone is taking off (paper
            // Section 2: email/text with access information).
            self.cloud.notify(
                &order.user,
                NotificationKind::Text,
                format!(
                    "Virtual drone {owner} is launching; connect via your per-container VPN."
                ),
            );
        }

        let flight_id = self.cloud.new_flight_id();
        let outcome = execute_flight(&mut drone, plan, max_sim_seconds, abort);

        // Post-flight bookkeeping per virtual drone.
        for owner in &owners {
            let Some(order) = orders.iter().find(|o| &o.vd_name == owner) else {
                continue;
            };
            let usage = drone.flight_usage(owner);
            self.cloud
                .complete_flight(&order.user, flight_id, usage.energy_used_j, usage.files);

            // Save the virtual drone in the VDR with resume
            // bookkeeping: absolute mission progress and the
            // allotment left to carry onto the next flight.
            let (wp_prior, flights_prior) = prior.get(owner).copied().unwrap_or((0, 0));
            let (archive, app_state) = drone.save_vdrone(owner)?;
            let landing = Landing {
                completed_all: usage.completed_all,
                remaining_energy_j: usage.remaining_energy_j,
                remaining_time_s: usage.remaining_time_s,
                waypoints_completed: wp_prior + usage.waypoints_flown,
                flights_flown: flights_prior + 1,
                archive,
                app_state,
            };
            let saved = landing.saved(owner.clone(), order.user.clone(), order.spec.clone());
            self.cloud.vdr.store(saved);
        }
        Ok(outcome)
    }
}

//! The top-level AnDrone service: cloud plus drone fleet.
//!
//! Drives the complete Figure 4 workflow: users order virtual drones
//! from the portal; the flight planner allocates them to physical
//! flights; drones fly, handing each waypoint to its virtual drone;
//! after landing, files are offloaded to cloud storage, energy is
//! billed, and virtual drones are saved in the VDR (interrupted ones
//! resume on a later flight). The lifecycle itself is the fleet
//! executor's ([`crate::fleet`]); this handle keeps the cloud between
//! runs.

use androne_cloud::{CloudService, FallibleCloud, PlacedOrder};
use androne_hal::GeoPoint;
use androne_simkern::FleetFaultPlan;

use crate::drone::DroneError;
use crate::fleet::{execute_fleet_inner, FleetAttackPlan, FleetConfig, FleetOutcome, FleetTenant};

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

    /// Serves `orders` to resolution: plans and flies them wave by
    /// wave, resuming interrupted virtual drones from the VDR, until
    /// each order completes or has its unserved allotment refunded.
    /// Billing, the VDR, storage and notifications land in
    /// [`Self::cloud`]. `max_sim_seconds` caps each physical flight.
    pub fn execute_orders(
        &mut self,
        orders: &[PlacedOrder],
        max_sim_seconds: f64,
    ) -> Result<FleetOutcome, DroneError> {
        let tenants: Vec<FleetTenant> = orders
            .iter()
            .map(|o| FleetTenant {
                vd_name: o.vd_name.clone(),
                user: o.user.clone(),
                spec: o.spec.clone(),
            })
            .collect();
        let waypoints: usize = orders.iter().map(|o| o.spec.waypoints.len()).sum();
        let cfg = FleetConfig {
            base: self.base,
            seed: self.seed,
            fleet_size: self.fleet_size,
            tenants,
            // A flown wave serves a waypoint of every tenant aboard
            // unless a flight is cut short, so this leaves each
            // waypoint one retry; whatever is still open is refunded.
            max_waves: 2 * waypoints as u64 + 1,
            max_sim_seconds,
            watchdog: None,
            threads: 1,
        };
        // The next run's flights draw fresh seeds.
        self.seed = self.seed.wrapping_add(1);
        let mut cloud = FallibleCloud::from_service(std::mem::take(&mut self.cloud));
        let outcome = execute_fleet_inner(
            &cfg,
            &FleetFaultPlan::empty(),
            &FleetAttackPlan::none(),
            None,
            &mut cloud,
        );
        self.cloud = cloud.inner;
        outcome
    }
}

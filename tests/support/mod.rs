//! The fleet gates' shared scenario: launch base, tenant geometry and
//! config, bit-for-bit as every gate's pinned digests were recorded.

use androne::fleet::{FleetConfig, FleetTenant};
use androne::hal::GeoPoint;
use androne::vdc::{VirtualDroneSpec, WaypointSpec};

pub const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);
pub const MAX_SIM_S: f64 = 240.0;

pub fn wp(north: f64, east: f64, radius: f64) -> WaypointSpec {
    let p = BASE.offset_m(north, east, 15.0);
    WaypointSpec {
        latitude: p.latitude,
        longitude: p.longitude,
        altitude: 15.0,
        max_radius: radius,
    }
}

/// Tenant `k`'s order: two waypoints, with an energy allotment sized
/// so the VRP *must* split a wave of three across at least two
/// physical flights (3 × 60 kJ of service energy exceeds one pack's
/// ~160 kJ plannable budget).
pub fn gate_spec(k: f64) -> VirtualDroneSpec {
    VirtualDroneSpec {
        waypoints: vec![
            wp(40.0 + 9.0 * k, -30.0 + 14.0 * k, 40.0),
            wp(62.0 - 6.0 * k, 25.0 + 11.0 * k, 40.0),
        ],
        max_duration: 8.0,
        energy_allotted: 60_000.0,
        continuous_devices: vec![],
        waypoint_devices: vec!["camera".into(), "flight-control".into()],
        apps: vec![],
        app_args: Default::default(),
    }
}

/// `vd1..=vdN` owned by `user1..=userN`, each ordering [`gate_spec`].
pub fn fleet_tenants(n: usize) -> Vec<FleetTenant> {
    (0..n)
        .map(|i| FleetTenant {
            vd_name: format!("vd{}", i + 1),
            user: format!("user{}", i + 1),
            spec: gate_spec(i as f64),
        })
        .collect()
}

/// Two drones, six waves, no watchdog.
pub fn gate_config(seed: u64, n_tenants: usize, threads: usize) -> FleetConfig {
    FleetConfig {
        base: BASE,
        seed,
        fleet_size: 2,
        tenants: fleet_tenants(n_tenants),
        max_waves: 6,
        max_sim_seconds: MAX_SIM_S,
        watchdog: None,
        threads,
    }
}

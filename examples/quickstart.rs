//! Quickstart: order a virtual drone from the cloud portal, fly it,
//! and retrieve the results — the paper's basic usage model
//! (Section 2) in ~90 lines. `Androne::execute_orders` serves the
//! order through the fleet executor: it installs the ordered app,
//! flies, bills, saves the drone in the VDR, and returns the run's
//! `FleetOutcome`.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use androne::cloud::{AppSelection, OrderRequest};
use androne::fleet::TenantResolution;
use androne::hal::GeoPoint;
use androne::vdc::WaypointSpec;
use androne::Androne;

const MANIFEST: &str = r#"<androne-manifest package="com.example.aerial.photo">
    <uses-permission name="camera" type="waypoint"/>
    <uses-permission name="flight-control" type="waypoint"/>
    <argument name="property-address" type="string" required="true"/>
</androne-manifest>"#;

fn main() {
    // The provider's base of operations and fleet.
    let base = GeoPoint::new(43.6084298, -85.8110359, 0.0);
    let mut androne = Androne::new(base, /* fleet */ 2, /* seed */ 7);

    // A developer publishes an aerial-photography app to the store.
    androne
        .cloud
        .app_store
        .publish(MANIFEST, "Aerial photography for real estate")
        .expect("valid manifest");

    // A real-estate agent finds it and orders a virtual drone for a
    // property 120 m north of the base.
    let listing = &androne.cloud.app_store.search("real estate")[0];
    println!("Found app: {} — {}", listing.package, listing.description);

    let property = base.offset_m(120.0, 40.0, 15.0);
    let order = androne
        .cloud
        .portal
        .place_order(
            &androne.cloud.app_store,
            OrderRequest {
                user: "agent-smith".into(),
                waypoints: vec![WaypointSpec {
                    latitude: property.latitude,
                    longitude: property.longitude,
                    altitude: 15.0,
                    max_radius: 30.0,
                }],
                drone_type: "video".into(),
                apps: vec![AppSelection {
                    package: "com.example.aerial.photo".into(),
                    args: [(
                        "property-address".to_string(),
                        serde_json::json!("14 Maple Street"),
                    )]
                    .into_iter()
                    .collect(),
                }],
                extra_waypoint_devices: vec![],
                extra_continuous_devices: vec![],
                max_charge_cents: 150.0,
                max_duration_s: 20.0,
                flexible_schedule: true,
            },
        )
        .expect("order placed");
    println!(
        "Order #{} placed: virtual drone '{}' with {:.0} J of energy",
        order.order_id, order.vd_name, order.spec.energy_allotted
    );

    // AnDrone plans and flies the mission.
    let run = androne
        .execute_orders(std::slice::from_ref(&order), 400.0)
        .expect("flight executes");
    for flight in &run.flights {
        println!(
            "Flight {} finished in {:.0} s using {:.0} J; completed: {} ({:?})",
            flight.flight_index,
            flight.duration_s,
            flight.total_energy_j,
            flight.completed,
            flight.end_reason
        );
    }
    let tenant = &run.tenants[&order.vd_name];
    println!(
        "Virtual drone '{}': {} of {} waypoints served, {:?}",
        order.vd_name, tenant.waypoints_completed, tenant.waypoints_total, tenant.resolution
    );

    // Billing and notifications reflect the flight.
    let bill = androne.cloud.billing.bill("agent-smith");
    println!(
        "Bill for agent-smith: {:.0} J drone energy (~{:.2} cents)",
        bill.energy_j,
        bill.total_cents(&androne.cloud.portal.prices)
    );
    for n in &androne.cloud.notifications {
        println!("notify[{:?}] {}: {}", n.kind, n.user, n.message);
    }
    assert_eq!(
        tenant.resolution,
        TenantResolution::Completed,
        "quickstart order should complete"
    );
}

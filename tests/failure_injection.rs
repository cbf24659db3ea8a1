//! Failure injection: inclement-weather aborts, a link-loss
//! interruption resumed from the VDR on a later flight, revocation
//! enforcement against misbehaving apps, energy exhaustion mid-task,
//! and lossy-link control.

use androne::android::{svc_codes, svc_names};
use androne::binder::{get_service, Parcel};
use androne::container::DeviceNamespaceId;
use androne::fleet::{FleetConfig, FleetSpec, FleetTenant, TenantResolution};
use androne::flight_exec::{execute_flight, EndReason, FlightLog};
use androne::hal::GeoPoint;
use androne::planner::{FlightPlan, Leg};
use androne::simkern::{
    FaultKind, FaultPlan, FleetFaultPlan, LinkModel, SchedPolicy, SimTime, TaskState,
};
use androne::vdc::{VirtualDroneSpec, WaypointSpec};
use androne::Drone;

const BASE: GeoPoint = GeoPoint::new(43.6084298, -85.8110359, 0.0);

fn wp(north: f64, east: f64, radius: f64) -> WaypointSpec {
    let p = BASE.offset_m(north, east, 15.0);
    WaypointSpec {
        latitude: p.latitude,
        longitude: p.longitude,
        altitude: 15.0,
        max_radius: radius,
    }
}

fn spec(waypoints: Vec<WaypointSpec>, energy: f64, duration: f64) -> VirtualDroneSpec {
    VirtualDroneSpec {
        waypoints,
        max_duration: duration,
        energy_allotted: energy,
        continuous_devices: vec![],
        waypoint_devices: vec!["camera".into(), "flight-control".into()],
        apps: vec![],
        app_args: Default::default(),
    }
}

fn one_leg_plan(owner: &str, north: f64, east: f64, time_s: f64) -> FlightPlan {
    FlightPlan {
        base: BASE,
        legs: vec![Leg {
            owner: owner.into(),
            position: BASE.offset_m(north, east, 15.0),
            max_radius_m: 40.0,
            service_energy_j: 50_000.0,
            service_time_s: time_s,
            eta_s: 15.0,
        }],
        estimated_duration_s: 200.0,
        estimated_energy_j: 60_000.0,
    }
}

#[test]
fn weather_abort_interrupts_and_flight_returns() {
    let mut drone = Drone::boot(BASE, 31).unwrap();
    drone
        .deploy_vdrone("vd1", spec(vec![wp(80.0, 0.0, 40.0)], 50_000.0, 600.0), &[])
        .unwrap();
    // Weather turns at t=40s, well before the 120 s service window
    // would expire.
    let outcome = execute_flight(
        &mut drone,
        one_leg_plan("vd1", 80.0, 0.0, 120.0),
        400.0,
        Some(Box::new(|t| t >= 40.0)),
    );
    assert!(!outcome.completed, "aborted flights do not complete");
    assert!(outcome.log.contains(&FlightLog::Aborted));
    assert!(
        outcome.log.iter().any(|e| matches!(
            e,
            FlightLog::WaypointEnd { reason: EndReason::Aborted, .. }
        )),
        "{:?}",
        outcome.log
    );
    assert!(matches!(outcome.log.last(), Some(FlightLog::Landed)));
    assert!(drone.sitl.on_ground(), "returned to base despite the abort");
}

#[test]
fn interrupted_vdrone_resumes_on_a_later_flight() {
    // First flight: the ground link drops right after launch, so the
    // failsafe sends the drone home before it reaches the waypoint.
    let cfg = FleetConfig {
        base: BASE,
        seed: 77,
        fleet_size: 1,
        tenants: vec![FleetTenant {
            vd_name: "vd1".into(),
            user: "alice".into(),
            spec: spec(vec![wp(60.0, 0.0, 30.0)], 40_000.0, 30.0),
        }],
        max_waves: 3,
        max_sim_seconds: 400.0,
        watchdog: None,
        threads: 1,
    };
    let faults = FleetFaultPlan {
        seed: 0,
        flights: vec![FaultPlan::single(FaultKind::LinkPartition, 3, 30)],
        correlated: Vec::new(),
        cloud: Vec::new(),
    };
    let run = FleetSpec::new(cfg).faults(faults).run().unwrap();
    assert_eq!(run.audit(), Ok(()));
    assert!(!run.flights[0].completed, "{:?}", run.flights[0]);

    // Second flight: the same virtual drone is pulled from the VDR
    // and completes.
    let t = &run.tenants["vd1"];
    assert_eq!(run.flights.len(), 2, "{:?}", run.flights);
    assert!(run.flights[1].completed, "{:?}", run.flights[1]);
    assert_eq!(t.flights_flown, 2, "{t:?}");
    assert_eq!(t.resolution, TenantResolution::Completed, "{t:?}");
}

#[test]
fn app_ignoring_revocation_is_terminated() {
    let mut drone = Drone::boot(BASE, 33).unwrap();
    const MANIFEST: &str = r#"<androne-manifest package="com.example.hog">
        <uses-permission name="camera" type="waypoint"/>
    </androne-manifest>"#;
    let manifest = androne::android::AndroneManifest::parse(MANIFEST).unwrap();
    drone
        .deploy_vdrone(
            "vd1",
            spec(vec![wp(40.0, 0.0, 30.0)], 50_000.0, 600.0),
            &[manifest],
        )
        .unwrap();
    let vd = drone.vdrones.get("vd1").unwrap();
    let container = vd.container;
    let euid = vd.apps.get("com.example.hog").unwrap().euid;

    // The app opens a camera session at the waypoint...
    let app_pid = {
        let mut k = drone.kernel.borrow_mut();
        k.tasks
            .spawn("hog", euid, container, SchedPolicy::DEFAULT)
            .unwrap()
    };
    drone
        .driver
        .open(app_pid, euid, container, DeviceNamespaceId(container.0));
    drone.vdc.borrow_mut().on_waypoint_arrived("vd1", 0);
    let cam = get_service(&mut drone.driver, app_pid, svc_names::CAMERA).unwrap();
    drone
        .driver
        .transact(app_pid, cam, svc_codes::CONNECT, Parcel::new())
        .unwrap();

    // ...and ignores the revocation notification at departure.
    drone.vdc.borrow_mut().on_waypoint_departed("vd1", 0);
    let killed = drone.enforce_revocation("vd1");
    assert_eq!(killed, vec![app_pid], "the holdout process is terminated");
    let k = drone.kernel.borrow();
    assert_eq!(k.tasks.get(app_pid).unwrap().state, TaskState::Dead);
}

#[test]
fn energy_exhaustion_ends_the_waypoint_window() {
    let mut drone = Drone::boot(BASE, 34).unwrap();
    // Tiny energy allotment: a few seconds of hover burns it.
    drone
        .deploy_vdrone("vd1", spec(vec![wp(60.0, 0.0, 40.0)], 900.0, 600.0), &[])
        .unwrap();
    let outcome = execute_flight(&mut drone, one_leg_plan("vd1", 60.0, 0.0, 300.0), 400.0, None);
    assert!(outcome.completed);
    assert!(
        outcome.log.iter().any(|e| matches!(
            e,
            FlightLog::WaypointEnd { reason: EndReason::EnergyExhausted, .. }
        )),
        "{:?}",
        outcome.log
    );
}

#[test]
fn cellular_loss_does_not_wedge_the_command_stream() {
    // Drive MAVLink traffic through a deliberately lossy cellular
    // link: lost packets vanish but every delivered frame decodes.
    use androne::mavlink::{channel, FlightMode, Message};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let lossy = LinkModel {
        loss_prob: 0.2,
        ..LinkModel::cellular_lte()
    };
    let (mut ground, mut drone_end) = channel(lossy, 255, 1);
    let mut rng = SmallRng::seed_from_u64(9);
    let mut t = SimTime::ZERO;
    let mut delivered = 0;
    for _ in 0..2_000 {
        ground.send(
            Message::Heartbeat {
                mode: FlightMode::Guided,
                armed: true,
                system_status: 4,
            },
            t,
            &mut rng,
        );
        t += androne::simkern::SimDuration::from_millis(100);
        delivered += drone_end.recv(t).len();
    }
    // Drain stragglers.
    t += androne::simkern::SimDuration::from_secs(2);
    delivered += drone_end.recv(t).len();
    let lost = ground.packets_lost() as usize;
    assert!(lost > 200, "loss model active: {lost}");
    assert_eq!(delivered + lost, 2_000, "no frame corrupted or duplicated");
    assert_eq!(drone_end.frames_dropped(), 0);
}

#[test]
fn kernel_crash_on_shared_hardware_cuts_the_motors() {
    // Paper Section 4.3: "when sharing hardware with the flight
    // controller, a bug or intentional kernel crash can result in
    // loss of control of the drone".
    let mut drone = Drone::boot(BASE, 35).unwrap();
    assert!(drone
        .sitl
        .arm_and_takeoff(20.0, androne::simkern::SimDuration::from_secs(30)));
    drone.inject_kernel_panic();
    assert!(drone.host_crashed());
    // Binder is dead: device services are unreachable.
    let Drone {
        ref mut hal_bridge,
        ref mut driver,
        ..
    } = drone;
    assert!(hal_bridge.gps_fix(driver).is_err(), "Binder died with the kernel");
    // The unpowered airframe comes down.
    drone.sitl.run_for(androne::simkern::SimDuration::from_secs(30));
    assert!(drone.sitl.on_ground(), "uncontrolled descent to ground");
    assert!(!drone.sitl.fc.armed());
}

#[test]
fn separate_flight_hardware_survives_a_kernel_crash() {
    // The paper's mitigation: "this risk can be removed by running
    // the flight controller on separate hardware if desired."
    let mut drone = Drone::boot(BASE, 36).unwrap();
    drone.flight_on_separate_hardware = true;
    assert!(drone
        .sitl
        .arm_and_takeoff(20.0, androne::simkern::SimDuration::from_secs(30)));
    drone.inject_kernel_panic();
    // Virtual drones and device services are gone...
    let Drone {
        ref mut hal_bridge,
        ref mut driver,
        ..
    } = drone;
    assert!(hal_bridge.gps_fix(driver).is_err());
    // ...but the flight controller keeps flying and returns home.
    assert!(drone.sitl.fc.armed(), "fast loop unaffected");
    drone.sitl.handle_message(&androne::mavlink::Message::CommandLong {
        command: androne::mavlink::MavCmd::NavReturnToLaunch,
        params: [0.0; 7],
    });
    drone.sitl.run_for(androne::simkern::SimDuration::from_secs(60));
    assert!(drone.sitl.on_ground());
    assert!(drone.sitl.position().ground_distance_m(&BASE) < 5.0, "landed at base");
}

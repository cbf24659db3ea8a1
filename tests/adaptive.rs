//! The adaptive-adversary gate: closed-loop attacker brains driven
//! against full fleet runs, holding four invariants:
//!
//! (a) **RT envelope under adaptation** — with the hardened posture
//!     ([`AttackDefense::hardened`]: aggregate admission cap, ladder
//!     hysteresis, refill-boundary jitter) armed, no adaptively
//!     attacked flight's 400 Hz fast loop ever misses ArduPilot's
//!     2500 µs deadline, across every generated strategy mix.
//! (b) **Breach without hardening** — the pinned synchronized
//!     collusion campaign demonstrably blows the deadline under the
//!     *pre-hardening* defense ([`AttackDefense::default`]): every
//!     colluder stays inside its own per-tenant bucket, so only the
//!     aggregate cap stops the group. The identical plan under
//!     [`AttackDefense::hardened`] is contained to zero misses.
//! (c) **Determinism** — adaptive runs replay bit-identically (fleet
//!     digest AND merged metrics digest) at threads 1/4/8; brains
//!     draw only from the dedicated adversary feedback stream.
//! (d) **Zero-work when empty** — an empty adaptive plan is
//!     bit-identical to the legacy executor path.
//!
//! Breadth is controlled by `ADAPTIVE_SEEDS` (default 4; the release
//! gate in `scripts/attack.sh --adaptive` runs the same count) and
//! the thread matrix by `ADAPTIVE_THREADS` (default "1 4 8").

use std::collections::BTreeMap;

use androne::fleet::{FleetAttackPlan, FleetConfig, FleetSpec, FleetTenant};
use androne::simkern::FleetFaultPlan;
use androne::workloads::{AdaptivePlan, ARDUPILOT_DEADLINE_US};
use androne::AttackDefense;
use support::{fleet_tenants, gate_config, wp};

mod support;

/// Tenants clustered tightly enough that the VRP co-deploys all of
/// them on one physical flight (the board fits three virtual
/// drones) — the co-residency collusion needs.
fn clustered_tenants(n: usize) -> Vec<FleetTenant> {
    let mut tenants = fleet_tenants(n);
    for (k, t) in tenants.iter_mut().enumerate() {
        let k = k as f64;
        t.spec.waypoints = vec![wp(40.0 + 3.0 * k, -20.0 + 4.0 * k, 40.0)];
    }
    tenants
}

fn env_count(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_threads(name: &str) -> Vec<usize> {
    std::env::var(name)
        .unwrap_or_else(|_| "1 4 8".into())
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect()
}

/// Invariants (a) and (c): generated adaptive campaigns — whatever
/// mix of refill probing, rung-edge riding and collusion the seed
/// draws — never push a hardened flight past the fast-loop deadline,
/// and the whole run replays bit-identically across the thread
/// matrix.
#[test]
fn adaptive_fleet_holds_deadline_and_determinism() {
    let n = env_count("ADAPTIVE_SEEDS", 4);
    let threads = env_threads("ADAPTIVE_THREADS");
    for i in 0..n {
        let seed = 0xADA7_71FE ^ (i.wrapping_mul(0x9E37_79B9));
        let cfg = gate_config(seed, 3 + (i as usize % 2), 1);
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.vd_name.clone()).collect();
        let mut adaptive = BTreeMap::new();
        adaptive.insert(0usize, AdaptivePlan::generate(seed, 120, &tenant_names));
        adaptive.insert(1usize, AdaptivePlan::generate(seed ^ 0xBEEF, 120, &tenant_names));
        let attacks = FleetAttackPlan {
            adaptive,
            defense: Some(AttackDefense::hardened()),
            ..FleetAttackPlan::none()
        };
        let label = format!("adaptive seed {seed:#x} ({} tenants)", cfg.tenants.len());

        let a = FleetSpec::new(cfg.clone()).attacks(attacks.clone()).run().expect("run");
        let b = FleetSpec::new(cfg.clone()).attacks(attacks.clone()).run().expect("rerun");
        assert_eq!(a.fleet_digest(), b.fleet_digest(), "{label}: dual-run divergence");
        assert_eq!(
            a.metrics_digest(),
            b.metrics_digest(),
            "{label}: dual-run metrics divergence"
        );
        for f in a.flights.iter() {
            if let Some((samples, misses, max_us)) = f.rt_deadline {
                assert!(samples > 0, "{label}: monitor sampled nothing");
                assert_eq!(
                    misses, 0,
                    "{label}: hardened flight missed {misses}/{samples} deadlines \
                     (max {max_us:.1} µs)"
                );
                assert!(
                    max_us < ARDUPILOT_DEADLINE_US,
                    "{label}: hardened max {max_us:.1} µs"
                );
            }
        }
        assert_eq!(a.audit(), Ok(()), "{label}");
        for &t in &threads {
            let cfg_t = FleetConfig { threads: t, ..cfg.clone() };
            let run =
                FleetSpec::new(cfg_t.clone()).attacks(attacks.clone()).run().expect("run");
            assert_eq!(
                a.fleet_digest(),
                run.fleet_digest(),
                "{label}: threads {t} fleet digest diverged"
            );
            assert_eq!(
                a.metrics_digest(),
                run.metrics_digest(),
                "{label}: threads {t} metrics digest diverged"
            );
            assert_eq!(run.audit(), Ok(()), "{label}: threads {t}");
        }
    }
}

/// Invariant (b), pinned: synchronized collusion — three co-resident
/// tenants cycling save → burst → glide on the same phase — breaches
/// the fast loop under the pre-hardening per-tenant-only defense
/// (every colluder stays inside its own bucket; the *aggregate*
/// admitted burst is what does the damage), and the identical plan
/// under the hardened posture is contained to zero misses.
#[test]
fn synchronized_collusion_breaches_per_tenant_defense_and_hardening_contains_it() {
    let cfg = FleetConfig {
        fleet_size: 1,
        tenants: clustered_tenants(3),
        ..gate_config(0xC011_0DE5, 0, 1)
    };
    let roster: Vec<String> = cfg.tenants.iter().map(|t| t.vd_name.clone()).collect();
    let mut adaptive = BTreeMap::new();
    adaptive.insert(0usize, AdaptivePlan::colluding(&roster, 2, 44));

    // Pre-hardening posture: per-tenant budgets and the ladder, but
    // no aggregate cap, no decay, no refill jitter.
    let per_tenant_only = FleetAttackPlan {
        adaptive: adaptive.clone(),
        defense: Some(AttackDefense::default()),
        ..FleetAttackPlan::none()
    };
    let run = FleetSpec::new(cfg.clone()).attacks(per_tenant_only.clone()).run()
        .expect("run");
    let (samples, misses, max_us) = run.flights[0]
        .rt_deadline
        .expect("the adaptive flight carries the monitor");
    assert!(samples > 0);
    assert!(
        misses > 0,
        "synchronized collusion should breach per-tenant-only defense \
         (max {max_us:.1} µs over {samples} samples)"
    );
    assert!(
        max_us > ARDUPILOT_DEADLINE_US,
        "collusion worst case {max_us:.1} µs should exceed 2500 µs"
    );
    // The whole point: no individual colluder ever climbed the
    // ladder — per-tenant discipline was immaculate.
    let ladder: Vec<&String> = run.flights[0]
        .injected
        .iter()
        .filter(|l| l.contains("ladder"))
        .collect();
    assert!(
        ladder.is_empty(),
        "colluders should stay under every per-tenant threshold: {ladder:?}"
    );
    assert_eq!(run.audit(), Ok(()), "collusion (per-tenant only)");
    eprintln!(
        "collusion vs per-tenant-only defense: {misses}/{samples} deadline \
         misses, max {max_us:.1} µs, ladder silent"
    );

    // The identical campaign under the hardened posture.
    let hardened = FleetAttackPlan {
        adaptive,
        defense: Some(AttackDefense::hardened()),
        ..FleetAttackPlan::none()
    };
    let run = FleetSpec::new(cfg.clone()).attacks(hardened.clone()).run().expect("run");
    let (samples, misses, max_us) = run.flights[0].rt_deadline.expect("monitor rode the flight");
    assert!(samples > 0);
    assert_eq!(
        misses, 0,
        "hardened collusion missed {misses}/{samples} deadlines (max {max_us:.1} µs)"
    );
    assert!(max_us < ARDUPILOT_DEADLINE_US, "hardened max {max_us:.1} µs");
    // The aggregate cap converts the group's burst overflow into
    // per-tenant throttles, so enforcement visibly engaged.
    let ladder: Vec<&String> = run.flights[0]
        .injected
        .iter()
        .filter(|l| l.contains("ladder"))
        .collect();
    assert!(
        !ladder.is_empty(),
        "the aggregate cap should have engaged the ladder on the colluders"
    );
    assert_eq!(run.audit(), Ok(()), "collusion (hardened)");
    eprintln!(
        "collusion vs hardened defense: {misses}/{samples} deadline misses, \
         max {max_us:.1} µs, ladder steps: {}",
        ladder.len()
    );
}

/// Invariant (d): an adaptive entry with an empty plan is provably
/// zero-work — bit-identical to the legacy executor.
#[test]
fn empty_adaptive_plan_is_zero_work() {
    let cfg = gate_config(0xF1EE_ADAF, 3, 1);
    let faults = FleetFaultPlan::empty();
    let legacy = FleetSpec::new(cfg.clone()).faults(faults.clone()).run().expect("legacy run");

    let mut adaptive = BTreeMap::new();
    adaptive.insert(0usize, AdaptivePlan::empty());
    let armed_but_empty = FleetAttackPlan {
        adaptive,
        defense: Some(AttackDefense::hardened()),
        ..FleetAttackPlan::none()
    };
    assert!(armed_but_empty.is_empty());
    let run = FleetSpec::new(cfg.clone()).faults(faults.clone()).attacks(armed_but_empty.clone()).run().expect("run");
    assert_eq!(legacy.fleet_digest(), run.fleet_digest());
    assert_eq!(legacy.metrics_digest(), run.metrics_digest());
    assert!(run.flights.iter().all(|f| f.rt_deadline.is_none()));
}

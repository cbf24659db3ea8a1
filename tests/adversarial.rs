//! The adversarial-tenant gate: seeded DoS attack plans driven
//! against full fleet runs, holding five invariants:
//!
//! (a) **RT envelope under attack** — with per-tenant enforcement
//!     armed ([`AttackDefense`]), no attacked flight's 400 Hz fast
//!     loop ever misses ArduPilot's 2500 µs deadline, and the worst
//!     wakeup latency stays inside the paper's PREEMPT_RT envelope.
//! (b) **Breach without enforcement** — the same attack machinery
//!     with `defense: None` demonstrably blows the deadline: the
//!     isolation mechanisms are load-bearing, not decorative.
//! (c) **Determinism** — attacked runs replay bit-identically
//!     (fleet digest AND merged metrics digest) at threads 1/4/8.
//! (d) **Terminal outcomes** — every attacked tenant still resolves:
//!     completed missions bill, everything else is terminally
//!     refunded; the escalation ladder (budget → rate-halving →
//!     suspension → revocation) degrades gracefully, never hangs.
//! (e) **Zero-work when empty** — a `FleetSpec` carrying
//!     [`FleetAttackPlan::none`] is bit-identical to one with no
//!     attack rider.
//!
//! Breadth is controlled by `ATTACK_SEEDS` (default 4; the release
//! gate in `scripts/attack.sh` runs the same count) and the thread
//! matrix by `ATTACK_THREADS` (default "1 4 8").

use std::collections::BTreeMap;

use androne::fleet::{FleetAttackPlan, FleetConfig, FleetSpec, TenantResolution};
use androne::simkern::latency::profiles;
use androne::simkern::{ContainerId, FleetFaultPlan, Kernel, KernelConfig};
use androne::workloads::{run_cyclictest, AttackKind, AttackPlan, ARDUPILOT_DEADLINE_US};
use androne::AttackDefense;
use support::gate_config;

mod support;

/// The gate proper, invariants (a), (c), (d): generated attack plans
/// with enforcement armed never miss the fast-loop deadline, replay
/// bit-identically at every thread width, and every tenant resolves.
#[test]
fn attacked_fleet_holds_deadline_and_determinism() {
    let n: u64 = std::env::var("ATTACK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    for i in 0..n {
        let seed = 0xA77A_C4ED ^ (i.wrapping_mul(0x9E37_79B9));
        let cfg = gate_config(seed, 3 + (i as usize % 2), 1);
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.vd_name.clone()).collect();
        // Attack the first two physical flights of the run; later
        // flights fly clean so the gate also covers the mixed case.
        let mut flights = BTreeMap::new();
        flights.insert(0usize, AttackPlan::generate(seed, 120, &tenant_names));
        flights.insert(1usize, AttackPlan::generate(seed ^ 0xDEAD, 120, &tenant_names));
        let attacks = FleetAttackPlan {
            flights,
            defense: Some(AttackDefense::default()),
            ..FleetAttackPlan::none()
        };
        let label = format!("attack seed {seed:#x} ({} tenants)", cfg.tenants.len());

        // (c) dual-run bit-identity of the attacked run.
        let a = FleetSpec::new(cfg.clone()).attacks(attacks.clone()).run().expect("run");
        let b = FleetSpec::new(cfg.clone()).attacks(attacks.clone()).run().expect("rerun");
        assert_eq!(a.fleet_digest(), b.fleet_digest(), "{label}: dual-run divergence");
        assert_eq!(
            a.metrics_digest(),
            b.metrics_digest(),
            "{label}: dual-run metrics divergence"
        );

        // (c') thread-count independence of the attacked executor.
        let widths = std::env::var("ATTACK_THREADS").unwrap_or_else(|_| "1 4 8".into());
        for width in widths.split_whitespace() {
            let threads: usize = width.parse().expect("ATTACK_THREADS entry");
            let mut tcfg = cfg.clone();
            tcfg.threads = threads;
            let t = FleetSpec::new(tcfg.clone()).attacks(attacks.clone()).run()
                .expect("threaded run");
            assert_eq!(
                a.fleet_digest(),
                t.fleet_digest(),
                "{label}: fleet digest diverged at threads={threads}"
            );
            assert_eq!(
                a.metrics_digest(),
                t.metrics_digest(),
                "{label}: metrics digest diverged at threads={threads}"
            );
            assert_eq!(t.audit(), Ok(()), "{label}: threads={threads}");
        }

        // (a) the monitor rode every attacked flight and the fast
        // loop stayed inside the RT envelope end to end.
        let monitored: Vec<_> = a.flights.iter().filter(|f| f.rt_deadline.is_some()).collect();
        assert!(
            !monitored.is_empty(),
            "{label}: no flight carried the RT monitor"
        );
        for f in &monitored {
            let Some((samples, misses, max_us)) = f.rt_deadline else {
                continue;
            };
            assert!(samples > 0, "{label}: flight {} sampled nothing", f.flight_index);
            assert_eq!(
                misses, 0,
                "{label}: flight {} missed the 2500 µs deadline {misses}/{samples} times under enforcement (max {max_us:.1} µs)",
                f.flight_index
            );
            assert!(
                max_us < ARDUPILOT_DEADLINE_US,
                "{label}: flight {} worst wakeup {max_us:.1} µs left the RT envelope",
                f.flight_index
            );
        }
        // Unattacked flights carry no monitor — the machinery stays
        // scoped to the flights the plan names.
        for f in a.flights.iter().filter(|f| f.flight_index > 1) {
            assert!(
                f.rt_deadline.is_none(),
                "{label}: clean flight {} grew a monitor",
                f.flight_index
            );
        }

        // (d) every tenant — attacked or not — reached a terminal,
        // ledger-consistent outcome.
        assert_eq!(a.tenants.len(), cfg.tenants.len(), "{label}: tenant lost");
        assert_eq!(a.audit(), Ok(()), "{label}");
    }
}

/// Invariant (b): a pinned Binder-flood plan with enforcement
/// disabled breaches the 2500 µs fast loop; the identical plan with
/// the default defense armed does not. The contrast is the PR's
/// thesis in one test.
#[test]
fn unenforced_flood_breaches_the_fast_loop_and_defense_restores_it() {
    let cfg = FleetConfig { fleet_size: 1, ..gate_config(0xD05_A77C, 1, 1) };
    let plan = AttackPlan::single(AttackKind::BinderFlood { per_tick: 600 }, "vd1", 2, 60);
    let mut flights = BTreeMap::new();
    flights.insert(0usize, plan);

    let unenforced = FleetAttackPlan {
        flights: flights.clone(),
        defense: None,
        ..FleetAttackPlan::none()
    };
    let run = FleetSpec::new(cfg.clone()).attacks(unenforced.clone()).run().expect("run");
    let (samples, misses, max_us) = run.flights[0]
        .rt_deadline
        .expect("the attacked flight carries the monitor");
    assert!(samples > 0);
    assert!(
        misses > 0,
        "unenforced flood should breach the deadline (max {max_us:.1} µs over {samples} samples)"
    );
    assert!(
        max_us > ARDUPILOT_DEADLINE_US,
        "unenforced worst case {max_us:.1} µs should exceed 2500 µs"
    );
    assert_eq!(run.audit(), Ok(()), "unenforced flood");

    let defended = FleetAttackPlan {
        flights,
        defense: Some(AttackDefense::default()),
        ..FleetAttackPlan::none()
    };
    let run = FleetSpec::new(cfg.clone()).attacks(defended.clone()).run().expect("run");
    let (samples, misses, max_us) = run.flights[0].rt_deadline.expect("monitor rode the flight");
    assert!(samples > 0);
    assert_eq!(
        misses, 0,
        "the defended flood missed {misses}/{samples} deadlines (max {max_us:.1} µs)"
    );
    assert!(max_us < ARDUPILOT_DEADLINE_US, "defended max {max_us:.1} µs");
    // The defense actually engaged: the flood tripped the budget and
    // the throttle counters surfaced in the merged metrics.
    assert!(
        run.flights[0].injected.iter().any(|l| l.contains("binder-flood")),
        "attack transitions logged: {:?}",
        run.flights[0].injected
    );
    assert_eq!(run.audit(), Ok(()), "defended flood");
}

/// Invariant (b) at the benchmark layer: cyclictest run exactly as
/// the paper's Section 6.2 does, against the attack interference
/// profiles. Throttled residual interference stays inside the
/// PREEMPT_RT envelope; the unthrottled profile shows the
/// millisecond tail and misses the ArduPilot deadline.
#[test]
fn cyclictest_bounds_the_throttled_attack_and_exposes_the_raw_one() {
    const LOOPS: u64 = 300_000;

    let mut kernel = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 11);
    kernel.add_interference(profiles::attack_throttled("attack:binder-flood"));
    let throttled = run_cyclictest(&mut kernel, ContainerId(2), LOOPS);
    assert!(
        throttled.max_us() < ARDUPILOT_DEADLINE_US,
        "throttled attack max {} µs",
        throttled.max_us()
    );
    assert_eq!(throttled.deadline_misses, 0);

    let mut kernel = Kernel::boot(KernelConfig::ANDRONE_DEFAULT, 11);
    kernel.add_interference(profiles::attack_unenforced("attack:binder-flood"));
    let raw = run_cyclictest(&mut kernel, ContainerId(2), LOOPS);
    assert!(
        raw.deadline_misses > 0,
        "unenforced attack must miss the fast loop (max {} µs)",
        raw.max_us()
    );
    assert!(raw.max_us() > ARDUPILOT_DEADLINE_US, "max {} µs", raw.max_us());
    assert!(
        raw.max_us() > throttled.max_us(),
        "enforcement shrank the tail: {} vs {}",
        throttled.max_us(),
        raw.max_us()
    );
}

/// Invariant (d) in depth: an aggressive flood against tight ladder
/// thresholds walks budget → rate-halved → suspended → revoked, the
/// revoked tenant is terminally refunded, and the flight still ends
/// cleanly — graceful degradation, not a hang.
#[test]
fn escalation_ladder_walks_to_revocation_and_still_resolves() {
    let cfg = FleetConfig { fleet_size: 1, ..gate_config(0x1ADDE2, 1, 1) };
    let mut flights = BTreeMap::new();
    flights.insert(
        0usize,
        AttackPlan::single(AttackKind::BinderFlood { per_tick: 800 }, "vd1", 2, 200),
    );
    let attacks = FleetAttackPlan {
        flights,
        defense: Some(AttackDefense {
            halve_after: 8,
            suspend_after: 600,
            revoke_after: 2_000,
            ..AttackDefense::default()
        }),
        ..FleetAttackPlan::none()
    };
    let run = FleetSpec::new(cfg.clone()).attacks(attacks.clone()).run().expect("run");
    let f = &run.flights[0];
    let ladder: Vec<&String> = f.injected.iter().filter(|l| l.contains("ladder")).collect();
    for rung in ["rate-halved", "suspended", "revoked"] {
        assert!(
            ladder.iter().any(|l| l.contains(rung)),
            "ladder never reached {rung}: {ladder:?}"
        );
    }
    // One rung per tick at most: the escalation is ordered and
    // gradual, and each rung appears exactly once.
    assert_eq!(ladder.len(), 3, "each rung fires once: {ladder:?}");
    let t = &run.tenants["vd1"];
    assert_eq!(
        t.resolution,
        TenantResolution::Refunded,
        "the revoked tenant is terminally refunded: {t:?}"
    );
    let (_, misses, max_us) = f.rt_deadline.expect("monitor rode the flight");
    assert_eq!(misses, 0, "enforced even while escalating (max {max_us:.1} µs)");
    assert_eq!(run.audit(), Ok(()), "ladder");
}

/// Invariant (e): a run with an empty attack plan is bit-identical
/// to one with no attack rider — empty plans are provably zero-work,
/// so every pre-existing pinned digest stands.
#[test]
fn empty_attack_plan_is_zero_work() {
    let cfg = gate_config(0xF1EE_5EED, 3, 1);
    let faults = FleetFaultPlan::empty();
    let legacy = FleetSpec::new(cfg.clone()).faults(faults.clone()).run().expect("legacy run");
    let attacked = FleetSpec::new(cfg.clone()).faults(faults.clone()).attacks(FleetAttackPlan::none()).run().expect("run");
    assert_eq!(legacy.fleet_digest(), attacked.fleet_digest());
    assert_eq!(legacy.metrics_digest(), attacked.metrics_digest());

    // A defense posture with no attack events is still zero-work:
    // enforcement arms per-attacker at attack-arm time, never
    // preemptively.
    let mut flights = BTreeMap::new();
    flights.insert(0usize, AttackPlan::empty());
    let armed_but_empty = FleetAttackPlan {
        flights,
        defense: Some(AttackDefense::default()),
        ..FleetAttackPlan::none()
    };
    assert!(armed_but_empty.is_empty());
    let run = FleetSpec::new(cfg.clone()).faults(faults.clone()).attacks(armed_but_empty.clone()).run().expect("run");
    assert_eq!(legacy.fleet_digest(), run.fleet_digest());
    assert_eq!(legacy.metrics_digest(), run.metrics_digest());
    assert!(run.flights.iter().all(|f| f.rt_deadline.is_none()));
}

/// Ladder hysteresis: "Suspended is recoverable" made real. A flood
/// pushes the tenant up to `Suspended` against tight thresholds,
/// then stops; with `decay_after` armed, consecutive quiet ticks
/// step the tenant back down (suspension lifted, then the halved
/// rate restored) and the mission still finishes `Completed` — not
/// `Refunded` — with identical digests at threads 1/4/8.
#[test]
fn suspended_tenant_recovers_and_completes_after_going_quiet() {
    let run_at = |threads: usize| {
        let cfg = FleetConfig { fleet_size: 1, ..gate_config(0x5E1F_CA2E, 1, threads) };
        let mut flights = BTreeMap::new();
        flights.insert(
            0usize,
            AttackPlan::single(AttackKind::BinderFlood { per_tick: 800 }, "vd1", 2, 12),
        );
        let attacks = FleetAttackPlan {
            flights,
            defense: Some(AttackDefense {
                halve_after: 8,
                suspend_after: 600,
                revoke_after: 1_000_000,
                decay_after: Some(3),
                ..AttackDefense::default()
            }),
            ..FleetAttackPlan::none()
        };
        FleetSpec::new(cfg.clone()).attacks(attacks.clone()).run().expect("run")
    };
    let run = run_at(1);
    let f = &run.flights[0];
    let ladder: Vec<&String> = f.injected.iter().filter(|l| l.contains("ladder")).collect();
    // Up while the flood runs...
    assert!(
        ladder.iter().any(|l| l.contains("-> suspended")),
        "the flood never reached suspension: {ladder:?}"
    );
    // ...and back down after it goes quiet: suspension lifted, then
    // the halved rate restored.
    assert!(
        ladder.iter().any(|l| l.contains("~> rate-halved")),
        "hysteresis never lifted the suspension: {ladder:?}"
    );
    assert!(
        ladder.iter().any(|l| l.contains("~> budgeted")),
        "hysteresis never restored the rate: {ladder:?}"
    );
    let t = &run.tenants["vd1"];
    assert_eq!(
        t.resolution,
        TenantResolution::Completed,
        "the recovered tenant must complete, not refund: {t:?}"
    );
    let (_, misses, max_us) = f.rt_deadline.expect("monitor rode the flight");
    assert_eq!(misses, 0, "enforced throughout recovery (max {max_us:.1} µs)");
    assert_eq!(run.audit(), Ok(()), "recovery");
    for threads in [4usize, 8] {
        let other = run_at(threads);
        assert_eq!(
            run.fleet_digest(),
            other.fleet_digest(),
            "threads {threads}: fleet digest diverged"
        );
        assert_eq!(
            run.metrics_digest(),
            other.metrics_digest(),
            "threads {threads}: metrics digest diverged"
        );
        assert_eq!(other.audit(), Ok(()), "recovery, threads {threads}");
    }
}

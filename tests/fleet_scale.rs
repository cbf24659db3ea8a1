//! The sharded control plane's contract tests:
//!
//! - **VDR shard chaos** — replaying an identical op tape (stores,
//!   telescoped re-saves, checkout/commit/abandon round-trips,
//!   compaction) against 1-shard and 4-shard repositories produces
//!   identical digests and stats, and a portal/VDR outage armed
//!   mid-checkout loses no customer drone.
//! - **Admission FIFO** — a model-based property test: under
//!   arbitrary interleavings of enqueue (with backpressure) and
//!   batched admission, every lane releases its orders in exact
//!   submission order.
//! - **Shard invariance** — a `vdr_shards(4)` fleet run is
//!   byte-identical to the 1-shard run.
//! - **Scaling ladder** — a small spill-heavy config and the 10k
//!   rung reproduce pinned digests, the executor's outcome invariants
//!   hold at threads 1/4 × shards 1/4, and the 10k rung's digests are
//!   invariant across widths. The 100k rung is `#[ignore]`d because
//!   tier-1 runs debug builds; the `fleet-scale-smoke` CI leg runs it
//!   in release (about 2 s per execution).

use std::collections::{BTreeMap, VecDeque};

use androne::cloud::{
    AdmissionConfig, AdmissionError, AdmissionQueue, CloudError, FallibleCloud, SaveReason,
    SavedVirtualDrone, VirtualDroneRepository,
};
use androne::container::{ContainerArchive, ContainerKind, Layer};
use androne::fleet::FleetSpec;
use androne::simkern::{CloudFaultKind, FleetFaultPlan};
use androne::{execute_scale_fleet, ScaleConfig, ScaleOutcome, ScaleResolution};
use proptest::prelude::*;
use support::{gate_config, gate_spec};

mod support;

fn saved(name: &str, owner: &str, flights_flown: u32, reason: SaveReason) -> SavedVirtualDrone {
    let mut diff = Layer::new();
    diff.write(
        "/data/androne/state.bin",
        bytes::Bytes::from(vec![0xA5u8; 128 + 64 * flights_flown as usize]),
    );
    SavedVirtualDrone {
        name: name.to_string(),
        owner: owner.to_string(),
        spec: gate_spec(f64::from(flights_flown)),
        archive: ContainerArchive {
            name: name.to_string(),
            kind: ContainerKind::VirtualDrone,
            base_stack: Vec::new(),
            diff,
        },
        app_state: format!("state-{name}-{flights_flown}"),
        reason,
        remaining_energy_j: 40_000.0 - 1_000.0 * f64::from(flights_flown),
        remaining_time_s: 6.0,
        waypoints_completed: 1,
        flights_flown,
    }
}

/// Replays one deterministic op tape — stores, telescoped re-saves,
/// checkout/commit and checkout/abandon round-trips, a compaction —
/// against a repository. The tape touches enough distinct names to
/// populate every shard of a 4-way split.
fn replay_vdr_tape(vdr: &mut VirtualDroneRepository) {
    for i in 0..24u32 {
        let name = format!("vd-u{:02}-{}", i % 12, i);
        vdr.store(saved(&name, &format!("u{:02}", i % 12), 0, SaveReason::Interrupted));
    }
    // Telescoped re-saves: the same names re-stored with progress.
    for round in 1..4u32 {
        for i in 0..24u32 {
            if i % 3 == 0 {
                let name = format!("vd-u{:02}-{}", i % 12, i);
                vdr.store(saved(&name, &format!("u{:02}", i % 12), round, SaveReason::Interrupted));
            }
        }
    }
    // Checkout/commit round-trips (resume succeeded)...
    for i in (0..24u32).step_by(4) {
        let name = format!("vd-u{:02}-{}", i % 12, i);
        let e = vdr.checkout(&name).expect("stored entry checks out");
        assert_eq!(e.name, name);
        assert!(vdr.commit(&name), "lease must commit");
    }
    // ...and checkout/abandon round-trips (resume scrapped).
    for i in (1..24u32).step_by(4) {
        let name = format!("vd-u{:02}-{}", i % 12, i);
        let before = vdr.get(&name).expect("entry exists").flights_flown;
        vdr.checkout(&name).expect("stored entry checks out");
        assert!(vdr.get(&name).is_none(), "leased entry is off the shelf");
        assert!(vdr.abandon(&name), "lease must abandon back");
        assert_eq!(
            vdr.get(&name).expect("abandoned entry restored").flights_flown,
            before,
            "abandon must restore the entry unmodified"
        );
    }
    let report = vdr.compact();
    assert!(report.compacted_saves > 0, "telescoped saves must compact");
}

/// Any shard count is digest-identical to `shards = 1` on the same
/// op tape, and the roll-up stats agree entry for entry.
#[test]
fn vdr_shard_count_is_digest_invariant() {
    let mut one = VirtualDroneRepository::new();
    replay_vdr_tape(&mut one);
    for shards in [2usize, 4, 7] {
        let mut many = VirtualDroneRepository::with_shards(shards);
        replay_vdr_tape(&mut many);
        assert_eq!(
            one.digest(),
            many.digest(),
            "shards={shards} diverged from the 1-shard digest"
        );
        let (a, b) = (one.stats(), many.stats());
        assert_eq!(a.entries, b.entries, "shards={shards}: entry count");
        assert_eq!(a.leased, b.leased, "shards={shards}: lease count");
        assert_eq!(a.journal_entries, b.journal_entries, "shards={shards}: journal");
        assert_eq!(a.compacted_saves, b.compacted_saves, "shards={shards}: compaction");
        assert_eq!(a.reclaimed_bytes, b.reclaimed_bytes, "shards={shards}: reclaim");
        assert_eq!(one.stored_bytes(), many.stored_bytes());
        // The split itself is real: multiple shards hold entries.
        let populated = many
            .snapshot()
            .iter()
            .filter(|s| s.entries + s.leased > 0)
            .count();
        assert!(populated > 1, "shards={shards}: tape landed on one shard");
    }
}

/// A VDR outage armed *mid-checkout* (lease outstanding) neither
/// loses the leased drone nor blocks its commit/abandon; new
/// checkouts are refused with a typed error until the heal wave.
#[test]
fn vdr_outage_mid_checkout_loses_nothing() {
    let mut cloud = FallibleCloud::with_shards(4);
    for i in 0..8u32 {
        cloud
            .inner
            .vdr
            .store(saved(&format!("vd-x-{i}"), "x", 1, SaveReason::Interrupted));
    }
    cloud.begin_wave(0, vec![]);
    let leased = cloud
        .checkout_saved("vd-x-0")
        .expect("healthy wave")
        .expect("entry stored");
    assert_eq!(leased.name, "vd-x-0");

    // Outage lands while the lease is outstanding.
    cloud.begin_wave(1, vec![CloudFaultKind::VdrUnavailable]);
    assert!(matches!(
        cloud.checkout_saved("vd-x-1"),
        Err(CloudError::VdrUnavailable)
    ));
    let stats = cloud.inner.vdr.stats();
    assert_eq!(stats.entries + stats.leased, 8, "outage must not lose entries");
    assert_eq!(stats.leased, 1, "the outstanding lease survives the outage");
    // The leaseholder can still conclude its resume: abandon returns
    // the drone to the shelf even while checkouts are refused.
    assert!(cloud.inner.vdr.abandon("vd-x-0"));

    // Heal: checkouts flow again, and a commit round-trip works.
    cloud.begin_wave(2, vec![]);
    let again = cloud
        .checkout_saved("vd-x-1")
        .expect("healed wave")
        .expect("entry stored");
    assert_eq!(again.name, "vd-x-1");
    assert!(cloud.inner.vdr.commit("vd-x-1"));
    let stats = cloud.inner.vdr.stats();
    assert_eq!(stats.leased, 0);
    assert_eq!(stats.entries, 7, "committed resume consumes its entry");
}

// Property: under any interleaving of bounded enqueues and batched
// admission waves, each lane's orders are released in exact
// submission order; a backpressured enqueue hands the item back
// untouched with a retry wave strictly ahead.
proptest! {
    #[test]
    fn admission_fifo_survives_backpressure(
        ops in proptest::collection::vec((0u8..5, 0u8..5), 1..160),
        per_wave in 1usize..5,
        cap in 4usize..24,
    ) {
        let mut q = AdmissionQueue::new(AdmissionConfig::batched(per_wave, cap));
        let mut model: BTreeMap<String, VecDeque<u32>> = BTreeMap::new();
        let mut next_item = 0u32;
        let mut wave = 0u64;
        for (op, lane) in ops {
            let lane_name = format!("t{lane}");
            match op {
                // Enqueue dominates the mix so capacity is reached.
                0..=3 => {
                    let item = next_item;
                    next_item += 1;
                    match q.enqueue(&lane_name, item, wave) {
                        Ok(_) => model.entry(lane_name).or_default().push_back(item),
                        Err((AdmissionError::Backpressure { retry_wave, depth }, bounced)) => {
                            prop_assert_eq!(bounced, item, "rejected item must ride back");
                            prop_assert!(retry_wave > wave, "retry wave not ahead");
                            prop_assert_eq!(depth, cap, "backpressure below capacity");
                        }
                    }
                }
                _ => {
                    wave += 1;
                    let admitted = q.admit();
                    prop_assert!(admitted.len() <= per_wave, "quota exceeded");
                    for a in admitted {
                        let front = model.get_mut(&a.lane).and_then(|l| l.pop_front());
                        prop_assert_eq!(front, Some(a.item), "lane admitted out of order");
                    }
                }
            }
            let pending: usize = model.values().map(VecDeque::len).sum();
            prop_assert_eq!(q.pending(), pending, "queue and model disagree on depth");
            prop_assert!(q.pending() <= cap, "capacity bound violated");
        }
        // Drain to empty: the tail must also be in FIFO order.
        while !q.is_empty() {
            let admitted = q.admit();
            prop_assert!(!admitted.is_empty(), "pending queue admitted nothing");
            for a in admitted {
                let front = model.get_mut(&a.lane).and_then(|l| l.pop_front());
                prop_assert_eq!(front, Some(a.item), "drain out of order");
            }
        }
        prop_assert!(model.values().all(VecDeque::is_empty), "model items never released");
    }
}

/// Sharding the fleet executor's VDR is invisible in the bits: a
/// `vdr_shards(4)` run reproduces the 1-shard digests on a faulted
/// gate scenario (faults force interrupt/resume traffic through the
/// repository).
#[test]
fn fleet_run_is_digest_invariant_across_vdr_shards() {
    let seed = 0xF1EE_5EED ^ 0x9E37_79B9;
    let cfg = gate_config(seed, 4, 2);
    let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.vd_name.clone()).collect();
    let faults = FleetFaultPlan::generate(seed, 3, &tenant_names, 150);
    let spec = FleetSpec::new(cfg).faults(faults);
    let one = spec.run().expect("1-shard run");
    let four = spec.clone().vdr_shards(4).run().expect("4-shard run");
    assert_eq!(one.fleet_digest(), four.fleet_digest());
    assert_eq!(one.metrics_digest(), four.metrics_digest());
}

/// A small rung whose admission (40/wave, queue 80) far outruns its
/// fleet (4 drones × party cap 3): backpressure, a long spilled
/// backlog, and under-provisioned tenants exhausting both at their
/// first waypoint and after landing.
fn spill_heavy() -> ScaleConfig {
    ScaleConfig {
        tenants: 300,
        fleet_size: 4,
        admit_per_wave: 40,
        queue_capacity: 80,
        ..ScaleConfig::rung(300)
    }
}

/// Asserts `(fleet_digest, metrics_digest, waves_run)`.
fn assert_pinned(out: &ScaleOutcome, fleet: u64, metrics: u64, waves: u64) {
    assert_eq!(out.fleet_digest(), fleet, "fleet_digest moved");
    assert_eq!(out.metrics_digest(), metrics, "metrics_digest moved");
    assert_eq!(out.waves_run, waves, "wave count moved");
}

/// Literal digests: planning each wave in O(fleet capacity) must be
/// byte-identical to gating and packing the whole ready backlog every
/// wave (DESIGN.md, "Plan-stage cost").
#[test]
fn scale_spill_heavy_digests_are_pinned() {
    let out = execute_scale_fleet(&spill_heavy());
    assert!(out.quiescent);
    assert!(out.metrics.counter("scale.legs_spilled") > 0, "must spill");
    assert!(out.backpressured_submissions > 0, "must backpressure");
    assert_pinned(&out, 0x9a26_ec6d_f150_c3b1, 0x6cf8_3154_2013_180c, 49);
}

/// Terminal accounting adds up at every width: `ScaleOutcome::audit`
/// settles each tenant against its allotment, matches legs flown to
/// waypoints served, and finds no VDR lease outliving the run. The
/// exhaustion path must run, and every exhausted tenant was
/// under-provisioned with allotment to spare, so each is owed a refund.
#[test]
fn scale_outcome_invariants_hold_across_shards_and_threads() {
    for (threads, shards) in [(1usize, 1usize), (4, 1), (1, 4), (4, 4)] {
        let out = execute_scale_fleet(&spill_heavy().threads(threads).shards(shards));
        let at = format!("threads={threads} shards={shards}");
        assert_eq!(out.audit(), Ok(()), "{at}");
        assert!(out.exhausted() > 0, "{at}: the exhaustion path must run");
        for (name, t) in &out.tenants {
            if t.resolution == ScaleResolution::Exhausted {
                assert!(t.refunded_energy_j > 0.0, "{at}: {name} unrefunded");
            }
        }
    }
}

/// The `fleet-scale-smoke` CI leg: the 10k-tenant rung runs to
/// quiescence with pinned digests, every tenant resolves terminally,
/// backpressure engages, and the digests are invariant across shards
/// 1/4 and threads 1/4.
#[test]
fn scale_10k_digests_invariant_across_shards_and_threads() {
    let reference = execute_scale_fleet(&ScaleConfig::rung(10_000));
    assert_eq!(reference.audit(), Ok(()), "10k rung");
    assert_pinned(&reference, 0x9e3c_5fdf_eaf9_d91b, 0xbd7a_8887_88a5_568e, 26);
    assert!(
        reference.backpressured_submissions > 0,
        "10k must exceed queue capacity and exercise backpressure"
    );
    assert!(
        reference.peak_queue_depth <= reference.config.queue_capacity,
        "queue depth must respect the capacity bound"
    );
    for (threads, shards) in [(4usize, 1usize), (1, 4), (4, 4)] {
        let run = execute_scale_fleet(&ScaleConfig::rung(10_000).threads(threads).shards(shards));
        assert_eq!(
            reference.fleet_digest(),
            run.fleet_digest(),
            "threads={threads} shards={shards} diverged from the reference"
        );
        assert_eq!(
            reference.metrics_digest(),
            run.metrics_digest(),
            "threads={threads} shards={shards} metrics diverged"
        );
        assert_eq!(run.audit(), Ok(()), "threads={threads} shards={shards}");
    }
}

/// Full acceptance matrix for the top rung: 100k tenants to
/// quiescence with pinned digests, identical across threads 1/4/8 and
/// shards 1/4. Ignored by default (about 2 s per run in release, far
/// more in debug); the `fleet-scale-smoke` CI leg runs it with
/// `cargo test --release --test fleet_scale -- --ignored scale_100k`.
#[test]
#[ignore = "top rung of the scaling ladder; run in release"]
fn scale_100k_runs_to_quiescence_at_every_width() {
    let reference = execute_scale_fleet(&ScaleConfig::rung(100_000));
    assert_eq!(reference.audit(), Ok(()), "100k rung");
    assert_pinned(
        &reference,
        0x4bd7_434e_1760_f6d8,
        0xf004_a6c0_6cf4_2172,
        251,
    );
    for (threads, shards) in [(4usize, 1usize), (8, 1), (1, 4)] {
        let run = execute_scale_fleet(&ScaleConfig::rung(100_000).threads(threads).shards(shards));
        assert_eq!(
            reference.fleet_digest(),
            run.fleet_digest(),
            "threads={threads} shards={shards} diverged from the reference"
        );
        assert_eq!(reference.metrics_digest(), run.metrics_digest());
        assert_eq!(run.audit(), Ok(()), "threads={threads} shards={shards}");
    }
}

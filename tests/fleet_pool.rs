//! The parallel wave executor's contract tests:
//!
//! - **Legacy pin** — `threads = 1` must reproduce the sequential
//!   executor's runs on the chaos gate's 8 generated plans (faulted
//!   and no-fault baseline), byte for byte. Two tables pin them:
//!   `BEHAVIOUR_PINS` folds everything the fleet digest covers except
//!   the per-flight trace digests, plus the metrics digest, and
//!   chains back unchanged to the executor before the worker pool
//!   landed; `LEGACY_PINS` holds the full fleet digests, re-recorded
//!   only when the trace-digest encoding deliberately changes.
//! - **Merge determinism** — the pool returns results in input order
//!   no matter which worker finishes first (scrambled with real
//!   sleeps, and property-tested across widths).
//! - **Panic containment** — a panicking island scraps its flight
//!   and defers its tenants; the run completes and every other
//!   tenant resolves normally, at every thread count.

use androne::fleet::{FleetOutcome, FleetSpec};
use androne::pool::{WorkerError, WorkerPool};
use androne::simkern::{FleetFaultPlan, StateHasher};
use androne::EndReason;
use proptest::prelude::*;
use support::gate_config;

mod support;

/// Fleet digests of the chaos gate's 8 generated plans: (gate index,
/// faulted-run digest, no-fault-baseline digest). First captured from
/// the sequential executor at the commit before the worker pool
/// landed; re-recorded once since, when the per-second state digest
/// began folding the append-only logs (proxy outboxes, ATT recorder)
/// into rolling hashes. That change moved only the encoding of each
/// flight's `trace_digest`; `BEHAVIOUR_PINS` below, recorded before
/// it, show the runs themselves did not move.
const LEGACY_PINS: [(u64, u64, u64); 8] = [
    (0, 0xfb5b68546b99fae6, 0xfb5b68546b99fae6),
    (1, 0xf3e52c4e1e47f9b7, 0xee93bd05d003c0cf),
    (2, 0x46e80c0e489e1935, 0x585bb34ea75b6a90),
    (3, 0xc70d44fb08bd7b0e, 0x423731d55d8123f2),
    (4, 0xffc0f0dc03e4fafa, 0xd8d84259abbc022f),
    (5, 0x3fa4bfb375731ee9, 0xe44ac5a2c859f318),
    (6, 0xbd938d1dc5246cc4, 0xbc8a1343ebbec0ac),
    (7, 0x5723f9ea4890450d, 0x7068eac807225489),
];

/// Behaviour pins of the same 8 plans: (gate index, faulted run,
/// no-fault baseline), each run as `[behaviour_digest, metrics_digest]`.
/// Recorded on the commit before the rolling-digest change, where
/// `LEGACY_PINS` still held the pre-pool values. Neither value sees a
/// flight's `trace_digest`, so they pin what the runs *did*
/// independently of how the per-tick fingerprint is encoded: the
/// chain back to the pre-pool executor across re-recordings of
/// `LEGACY_PINS`. They must never be re-recorded together with it.
const BEHAVIOUR_PINS: [(u64, [u64; 2], [u64; 2]); 8] = [
    (0, [0x04af292e11bb8a09, 0x9d3deafc57232e99], [0x04af292e11bb8a09, 0x9d3deafc57232e99]),
    (1, [0x25a3b1d8e2bc1f90, 0x951142829bf21bbe], [0x1844e344b9127f5e, 0xb9f76648db5b0660]),
    (2, [0xfca3f4c5f9f7881b, 0xd07a678c12b49856], [0xa72a7688beff1005, 0x63bb3763e7fa6721]),
    (3, [0xecf3251dfadd25ac, 0x88942b944755350a], [0x0e9799025bf137a7, 0x4eb4906a30c1deb4]),
    (4, [0x03603e45e600da41, 0xa7d4754e618bead7], [0x063090683f897925, 0x7280d680eef7ba07]),
    (5, [0xac799c85211fa39e, 0x19f84367940d0d73], [0x63fcfbd87912718f, 0x60c4bf64fcbeb6b9]),
    (6, [0x39033af246874ae8, 0xa7e2c08d45735778], [0x351f2881881fe63a, 0x88ecf184443638bf]),
    (7, [0xc8525ef7617ea0aa, 0x1f9bd6d3eaf6f299], [0x81a74f15de20ea8f, 0x2ce6cc43961e4d14]),
];

/// Everything [`FleetOutcome::fleet_digest`] folds except each
/// flight's `trace_digest`, in the same order.
fn behaviour_digest(run: &FleetOutcome) -> u64 {
    let mut h = StateHasher::new();
    for f in &run.flights {
        h.write_u64(f.wave);
        h.write_usize(f.flight_index);
        for o in &f.owners {
            h.write_str(o);
        }
        h.write_bool(f.completed);
        h.write_u8(match f.end_reason {
            EndReason::Completed => 0,
            EndReason::EnergyExhausted => 1,
            EndReason::TimeExhausted => 2,
            EndReason::Aborted => 3,
            EndReason::LinkLost => 4,
            EndReason::WatchdogRevoked => 5,
        });
        h.write_f64(f.duration_s);
        h.write_f64(f.total_energy_j);
        for a in &f.injected {
            h.write_str(a);
        }
        if let Some((samples, misses, max_us)) = f.rt_deadline {
            h.write_u64(samples);
            h.write_u64(misses);
            h.write_f64(max_us);
        }
    }
    for (name, t) in &run.tenants {
        h.write_str(name);
        h.write_u64(t.outcome_bits());
    }
    h.write_u64(run.waves_run);
    for line in &run.cloud_log {
        h.write_str(line);
    }
    h.write_u64(run.cloud_backoff_ns);
    h.finish()
}

/// `threads = 1` reproduces the sequential executor's output on the
/// full chaos gate matrix, byte for byte. This is the refactor's
/// ground truth: the partition/speculate/merge driver with a
/// one-wide pool IS the legacy executor. Behaviour is checked before
/// the full digest, so a drift names which of the two moved.
#[test]
fn single_thread_reproduces_the_pre_pool_digests() {
    for ((i, faulted_pin, baseline_pin), (j, faulted_behaviour, baseline_behaviour)) in
        LEGACY_PINS.into_iter().zip(BEHAVIOUR_PINS)
    {
        assert_eq!(i, j, "pin tables out of step");
        let seed = 0xF1EE_5EED ^ (i.wrapping_mul(0x9E37_79B9));
        let cfg = gate_config(seed, 3 + (i as usize % 2), 1);
        let tenant_names: Vec<String> = cfg.tenants.iter().map(|t| t.vd_name.clone()).collect();
        let faults = FleetFaultPlan::generate(seed, 3, &tenant_names, 150);

        let faulted = FleetSpec::new(cfg.clone()).faults(faults).run().expect("faulted run");
        assert_eq!(
            [behaviour_digest(&faulted), faulted.metrics_digest()],
            faulted_behaviour,
            "gate {i}: threads=1 faulted behaviour drifted from the recorded pin"
        );
        assert_eq!(
            faulted.fleet_digest(),
            faulted_pin,
            "gate {i}: threads=1 faulted digest drifted from the sequential pin"
        );
        let baseline = FleetSpec::new(cfg).run().expect("baseline run");
        assert_eq!(
            [behaviour_digest(&baseline), baseline.metrics_digest()],
            baseline_behaviour,
            "gate {i}: threads=1 baseline behaviour drifted from the recorded pin"
        );
        assert_eq!(
            baseline.fleet_digest(),
            baseline_pin,
            "gate {i}: threads=1 baseline digest drifted from the sequential pin"
        );
    }
}

/// A worker panic at a flight index scraps that flight, defers its
/// tenants, and lets the run complete: no tenant is silently lost,
/// and the cloud log records the containment. Holds on both the
/// inline (threads = 1) and threaded paths — panic semantics are
/// uniform.
#[test]
fn worker_panic_is_contained_at_every_width() {
    for threads in [1usize, 4] {
        let cfg = gate_config(0xF1EE_5EED, 3, threads);
        let run = FleetSpec::new(cfg)
            .chaos_panic_at(0)
            .run()
            .expect("run must survive a panicking island");
        // Flight index 0 never settles (every island assigned index
        // 0 panics), so no flight ever flies and every wave scraps.
        assert!(
            run.flights.is_empty(),
            "threads={threads}: a flight flew despite the index-0 panic"
        );
        assert!(
            run.cloud_log.iter().any(|l| l.contains("worker panicked")),
            "threads={threads}: containment left no log line"
        );
        // Nothing flew, so every tenant is refunded its whole allotment.
        assert_eq!(run.audit(), Ok(()), "threads={threads}");
    }
}

/// With the panic injected past the first flight, the healthy flight
/// still completes and only the panicked flight's tenants defer —
/// per-flight containment, not just run survival.
#[test]
fn panic_past_the_first_flight_spares_the_flown_tenants() {
    let cfg = gate_config(0xF1EE_5EED, 3, 4);
    let spec = FleetSpec::new(cfg);
    let clean = spec.run().expect("clean run");
    assert!(clean.flights.len() >= 2, "scenario must plan multiple flights");
    let chaos = spec.clone().chaos_panic_at(1).run().expect("run must survive");
    // Flight 0 flies in both runs with identical bits (same seed,
    // same index — the panic at index 1 cannot reach back).
    assert!(!chaos.flights.is_empty(), "flight 0 should still fly");
    assert_eq!(chaos.flights[0].trace_digest, clean.flights[0].trace_digest);
    assert!(chaos.cloud_log.iter().any(|l| l.contains("worker panicked")));
    // Every tenant still settles.
    assert_eq!(chaos.audit(), Ok(()));
}

/// Completion order is deliberately scrambled with real sleeps:
/// earlier items sleep longest, so later items finish first. The
/// pool must still return results in input order — the merge step's
/// entire correctness argument rests on this.
#[test]
fn scrambled_completion_order_cannot_reorder_results() {
    let pool = WorkerPool::new(4);
    let n: u64 = 12;
    let out = pool.run((0..n).collect(), |i: u64| {
        std::thread::sleep(std::time::Duration::from_millis((n - i) * 3));
        i * 100
    });
    let values: Vec<u64> = out
        .into_iter()
        .map(|r| r.expect("no panics in this workload"))
        .collect();
    assert_eq!(values, (0..n).map(|i| i * 100).collect::<Vec<_>>());
}

// Property: for any item vector and any pool width, the pool is
// observationally identical to a sequential map — same values, same
// order, panics contained to their own slot.
proptest! {
    #[test]
    fn pool_is_a_deterministic_map(
        items in proptest::collection::vec(any::<u32>(), 0..48),
        threads in 1usize..9,
    ) {
        let work = |v: u32| {
            assert!(v % 97 != 13, "injected panic lane");
            u64::from(v).wrapping_mul(0x9E37_79B9)
        };
        let expected: Vec<Result<u64, WorkerError>> = items
            .iter()
            .map(|&v| {
                if v % 97 == 13 {
                    Err(WorkerError::Panicked("injected panic lane".to_string()))
                } else {
                    Ok(u64::from(v).wrapping_mul(0x9E37_79B9))
                }
            })
            .collect();
        let got = WorkerPool::new(threads).run(items, work);
        // Panic messages from assert! carry the full formatted text;
        // compare variants and values, not exact strings.
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            match (g, e) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(WorkerError::Panicked(msg)), Err(_)) => {
                    prop_assert!(msg.contains("injected panic lane"));
                }
                other => prop_assert!(false, "slot mismatch: {:?}", other),
            }
        }
    }
}

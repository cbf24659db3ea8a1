//! Host-speed calibration.
//!
//! On a shared host the core this benchmark runs on slows down and
//! speeds up by a quarter or more over minutes, as neighbours come and
//! go. The slowdown is not preemption — thread CPU time tracks wall
//! time — so no process clock removes it. A fixed reference kernel
//! timed beside each executor run slows down with it, so the
//! end-to-end metrics give every host time at the speed the host had
//! when the baseline was recorded: `host_s × REFERENCE_S / kernel_s`.
//!
//! The kernel is compute and small-hash-map work, like the simulation
//! loops. A variant that also walked an 8 MiB table tracked the drift
//! worse than this one did.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of two reference kernels on the baseline host (a
/// 2-vCPU VM; see the README's baseline).
pub const REFERENCE_S: f64 = 0.1;

/// xorshift64 rounds in one kernel.
const ROUNDS: u64 = 1_000_000;

/// Runs the reference kernel once — the same work on every call — and
/// returns its host seconds.
fn reference_kernel() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    let mut map: HashMap<u64, f64> = HashMap::with_capacity(1 << 14);
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let f = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        acc += (f * std::f64::consts::TAU).sin() * (f + 1.0).sqrt();
        *map.entry(x & 0x3FFF).or_insert(0.0) += f;
    }
    black_box((acc, map.len()));
    t0.elapsed().as_secs_f64()
}

/// Runs `f` between two reference kernels. Returns its output, its
/// host seconds, and the two kernels' host seconds.
pub fn bracketed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = reference_kernel();
    let t0 = Instant::now();
    let out = f();
    let host_s = t0.elapsed().as_secs_f64();
    (out, host_s, before + reference_kernel())
}

/// `host_s` at the baseline host's speed, given the host seconds
/// `kernel_s` of two reference kernels run beside it.
pub fn at_reference_speed(host_s: f64, kernel_s: f64) -> f64 {
    host_s * REFERENCE_S / kernel_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_follows_the_kernel() {
        assert_eq!(at_reference_speed(2.0, REFERENCE_S), 2.0);
        // A host running at half speed takes twice as long for both.
        assert_eq!(at_reference_speed(4.0, 2.0 * REFERENCE_S), 2.0);
    }

    #[test]
    fn bracketing_times_the_work_and_both_kernels() {
        let (out, host_s, kernel_s) = bracketed(|| 7);
        assert_eq!(out, 7);
        assert!(host_s >= 0.0 && kernel_s > 0.0);
    }
}

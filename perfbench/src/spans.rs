//! Host-time spans around the benchmark's own calls into each layer.
//!
//! Wall clocks live here, in the benchmark, never in the simulation
//! crates: the traced runs time the public calls they make, so a
//! layer's time is the sum of its calls' host time.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated host seconds and call counts per span name, plus the
/// replay's total wall time.
#[derive(Debug, Default, Clone)]
pub struct Spans {
    by_name: BTreeMap<&'static str, (f64, u64)>,
    total_s: f64,
}

impl Spans {
    /// Runs `f`, charging its host time to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64());
        out
    }

    /// Charges `secs` to `name` as one call.
    pub fn add(&mut self, name: &'static str, secs: f64) {
        let slot = self.by_name.entry(name).or_insert((0.0, 0));
        slot.0 += secs;
        slot.1 += 1;
    }

    /// Host seconds charged to `name` (0 when never called).
    pub fn secs(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.0)
    }

    /// Calls charged to `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |s| s.1)
    }

    /// Records the enclosing replay's wall time.
    pub fn set_total(&mut self, secs: f64) {
        self.total_s = secs;
    }

    /// The enclosing replay's wall time, seconds.
    pub fn total(&self) -> f64 {
        self.total_s
    }

    /// Wall time not charged to any child span: the replay's own
    /// bookkeeping (the executor logic it mirrors).
    pub fn self_secs(&self) -> f64 {
        let children: f64 = self.by_name.values().map(|s| s.0).sum();
        (self.total_s - children).max(0.0)
    }
}

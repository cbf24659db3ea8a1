//! Flight log recording and the Attitude Estimate Divergence (AED)
//! analyzer.
//!
//! The paper validates flight stability with DroneKit's Log Analyzer
//! (Section 6.2): the AED check "determines if the flight
//! controller's estimated attitude of the drone differs significantly
//! from the canonical drone attitude, indicating instability if the
//! drone's yaw, pitch, or roll diverges more than 5° from the
//! estimates for longer than .5 seconds". This module records the
//! same dual-attitude log a DataFlash log carries and implements the
//! same analysis.

use androne_hal::Attitude;
use androne_simkern::{StateHash, StateHasher};

use crate::physics::wrap_pi;

/// AED thresholds from the DroneKit analyzer.
pub const AED_THRESHOLD_RAD: f64 = 5.0 * std::f64::consts::PI / 180.0;
/// Minimum violation duration, seconds.
pub const AED_MIN_DURATION_S: f64 = 0.5;

/// One attitude axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Roll.
    Roll,
    /// Pitch.
    Pitch,
    /// Yaw.
    Yaw,
}

/// One log sample: estimated vs canonical attitude at a time.
#[derive(Debug, Clone, Copy)]
pub struct AttSample {
    /// Seconds since log start.
    pub t: f64,
    /// The controller's estimate (the log's ATT record).
    pub estimated: Attitude,
    /// The canonical attitude (SITL truth / the analyzer's reference
    /// solution).
    pub canonical: Attitude,
}

/// A sustained divergence the analyzer flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AedViolation {
    /// Axis that diverged.
    pub axis: Axis,
    /// Violation start, seconds.
    pub start_s: f64,
    /// Violation end, seconds.
    pub end_s: f64,
    /// Peak divergence in the window, radians.
    pub peak_rad: f64,
}

/// The analyzer's verdict for one flight log.
#[derive(Debug, Clone)]
pub struct AedReport {
    /// Sustained violations found (empty = within normal divergence).
    pub violations: Vec<AedViolation>,
    /// Peak instantaneous divergence over the whole log, radians.
    pub peak_rad: f64,
    /// Samples analyzed.
    pub samples: usize,
}

impl AedReport {
    /// Whether the flight "was within normal divergence" (paper's
    /// phrasing for a passing flight).
    pub fn passes(&self) -> bool {
        self.violations.is_empty()
    }
}

/// An in-memory flight log (the DataFlash-log stand-in).
///
/// The log is append-only: [`FlightRecorder::record`] is its only
/// mutator and samples are never handed out mutably. It keeps a
/// running fold of every sample, taken as the sample is recorded, so
/// its state hash costs O(1) however long the flight has run. Any
/// future in-place edit or truncation must reset the running hash and
/// re-fold what remains.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    samples: Vec<AttSample>,
    /// Fold of every sample in `samples`, in order.
    hash: StateHasher,
}

impl FlightRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Appends one sample (callers record at ~10 Hz, the ATT log
    /// rate).
    pub fn record(&mut self, t: f64, estimated: Attitude, canonical: Attitude) {
        self.hash.write_f64(t);
        estimated.state_hash(&mut self.hash);
        canonical.state_hash(&mut self.hash);
        self.samples.push(AttSample {
            t,
            estimated,
            canonical,
        });
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Runs the AED analysis over the log.
    pub fn aed_analysis(&self) -> AedReport {
        let mut violations = Vec::new();
        let mut peak = 0.0f64;
        for axis in [Axis::Roll, Axis::Pitch, Axis::Yaw] {
            let mut window_start: Option<f64> = None;
            let mut window_peak = 0.0f64;
            let mut last_t = 0.0;
            for s in &self.samples {
                let err = match axis {
                    Axis::Roll => (s.estimated.roll - s.canonical.roll).abs(),
                    Axis::Pitch => (s.estimated.pitch - s.canonical.pitch).abs(),
                    Axis::Yaw => wrap_pi(s.estimated.yaw - s.canonical.yaw).abs(),
                };
                peak = peak.max(err);
                last_t = s.t;
                if err > AED_THRESHOLD_RAD {
                    window_start.get_or_insert(s.t);
                    window_peak = window_peak.max(err);
                } else if let Some(start) = window_start.take() {
                    if s.t - start >= AED_MIN_DURATION_S {
                        violations.push(AedViolation {
                            axis,
                            start_s: start,
                            end_s: s.t,
                            peak_rad: window_peak,
                        });
                    }
                    window_peak = 0.0;
                }
            }
            // A violation window still open at log end counts if it
            // lasted long enough.
            if let Some(start) = window_start {
                if last_t - start >= AED_MIN_DURATION_S {
                    violations.push(AedViolation {
                        axis,
                        start_s: start,
                        end_s: last_t,
                        peak_rad: window_peak,
                    });
                }
            }
        }
        AedReport {
            violations,
            peak_rad: peak,
            samples: self.samples.len(),
        }
    }
}

impl StateHash for FlightRecorder {
    fn state_hash(&self, h: &mut StateHasher) {
        h.write_usize(self.samples.len());
        h.write_u64(self.hash.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn att(roll: f64, pitch: f64, yaw: f64) -> Attitude {
        Attitude { roll, pitch, yaw }
    }

    #[test]
    fn clean_log_passes() {
        let mut rec = FlightRecorder::new();
        for i in 0..100 {
            let t = i as f64 * 0.1;
            rec.record(t, att(0.01, -0.02, 1.0), att(0.012, -0.018, 1.002));
        }
        let report = rec.aed_analysis();
        assert!(report.passes());
        assert!(report.peak_rad < AED_THRESHOLD_RAD);
        assert_eq!(report.samples, 100);
    }

    #[test]
    fn sustained_divergence_is_flagged() {
        let mut rec = FlightRecorder::new();
        for i in 0..100 {
            let t = i as f64 * 0.1;
            // Roll estimate diverges by 10 degrees between t=3 and
            // t=5 (2 s > 0.5 s).
            let est_roll = if (3.0..5.0).contains(&t) { 0.175 } else { 0.0 };
            rec.record(t, att(est_roll, 0.0, 0.0), att(0.0, 0.0, 0.0));
        }
        let report = rec.aed_analysis();
        assert!(!report.passes());
        assert_eq!(report.violations.len(), 1);
        let v = report.violations[0];
        assert_eq!(v.axis, Axis::Roll);
        assert!((v.start_s - 3.0).abs() < 0.15);
        assert!((v.end_s - 5.0).abs() < 0.15);
        assert!(v.peak_rad > AED_THRESHOLD_RAD);
    }

    #[test]
    fn brief_spikes_are_tolerated() {
        // The analyzer only flags divergence held for 0.5 s; a
        // 0.2 s spike (e.g. during an aggressive maneuver) passes.
        let mut rec = FlightRecorder::new();
        for i in 0..100 {
            let t = i as f64 * 0.1;
            let est_pitch = if (4.0..4.2).contains(&t) { 0.2 } else { 0.0 };
            rec.record(t, att(0.0, est_pitch, 0.0), att(0.0, 0.0, 0.0));
        }
        assert!(rec.aed_analysis().passes());
    }

    #[test]
    fn yaw_divergence_wraps_correctly() {
        let mut rec = FlightRecorder::new();
        for i in 0..30 {
            let t = i as f64 * 0.1;
            // Estimated 179°, canonical -179°: only 2° apart through
            // the wrap, not 358°.
            rec.record(t, att(0.0, 0.0, 3.124), att(0.0, 0.0, -3.124));
        }
        let report = rec.aed_analysis();
        assert!(report.passes(), "wrapped yaw error is small");
    }

    /// The running hash equals a fresh fold over the samples after
    /// every seeded `record`.
    #[test]
    fn rolling_digest_equals_rescan() {
        use rand::Rng;
        for seed in 0..8 {
            let mut rng = androne_simkern::stream_rng(seed);
            let mut rec = FlightRecorder::new();
            let any_att =
                |rng: &mut dyn rand::RngCore| att(rng.gen(), rng.gen::<f64>() - 0.5, rng.gen());
            for i in 0..300 {
                let t = f64::from(i) * 0.1;
                let (estimated, canonical) = (any_att(&mut rng), any_att(&mut rng));
                rec.record(t, estimated, canonical);
                let mut rescan = StateHasher::new();
                for s in &rec.samples {
                    rescan.write_f64(s.t);
                    s.estimated.state_hash(&mut rescan);
                    s.canonical.state_hash(&mut rescan);
                }
                assert_eq!(rec.hash.finish(), rescan.finish(), "seed {seed} sample {i}");
            }
        }
    }

    #[test]
    fn violation_open_at_log_end_is_counted() {
        let mut rec = FlightRecorder::new();
        for i in 0..20 {
            let t = i as f64 * 0.1;
            let est = if t >= 1.0 { 0.3 } else { 0.0 };
            rec.record(t, att(est, 0.0, 0.0), att(0.0, 0.0, 0.0));
        }
        let report = rec.aed_analysis();
        assert_eq!(report.violations.len(), 1);
    }
}

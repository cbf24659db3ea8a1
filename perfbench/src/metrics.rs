//! The benchmark's metric tables and its one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a test keeps the two in step.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees, reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    m("orders_per_s", "1/s"),
    m("sim_s_per_wall_s", "sim_s/s"),
    m("order_latency_p50_sim_s", "sim_s"),
    m("order_latency_p99_sim_s", "sim_s"),
    m("completed_ratio", "ratio"),
    m("success_ratio", "ratio"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Where the time and the work went, reported by traced runs. A
/// `_share` is the host time of the replay's calls into that layer
/// over the replay's wall time (`core.replay_s`, the base).
pub const PER_LAYER: &[MetricDef] = &[
    m("cloud.submit_share", "ratio"),
    m("cloud.admit_share", "ratio"),
    m("cloud.submit_calls", "count"),
    m("cloud.bounces_per_order", "count/order"),
    m("cloud.accept_ratio", "ratio"),
    m("cloud.queue_depth_peak", "count"),
    m("cloud.vdr_ops", "count"),
    m("cloud.vdr_share", "ratio"),
    m("cloud.compact_share", "ratio"),
    m("cloud.billing_share", "ratio"),
    m("cloud.vdr_compacted_saves", "count"),
    m("cloud.vdr_reclaimed_bytes", "bytes"),
    m("cloud.vdr_leased_at_end", "count"),
    m("planner.legs_offered", "count"),
    m("planner.legs_spilled", "count"),
    m("planner.pack_ratio", "ratio"),
    m("planner.bin_pack_share", "ratio"),
    m("planner.vrp_calls", "count"),
    m("planner.vrp_share", "ratio"),
    m("planner.plan_use_ratio", "ratio"),
    m("core.waves", "count"),
    m("core.flights", "count"),
    m("core.legs", "count"),
    m("core.run_s", "s"),
    m("core.replay_s", "s"),
    m("core.replay_self_s", "s"),
    m("drone.boot_share", "ratio"),
    m("drone.deploy_share", "ratio"),
    m("drone.save_share", "ratio"),
    m("drone.teardown_share", "ratio"),
    m("drone.lifecycle_share", "ratio"),
    m("flight.fly_s", "s"),
    m("flight.sim_s", "sim_s"),
    m("flight.samples", "count"),
    m("flight.host_us_per_sim_s_p50", "us/sim_s"),
    m("flight.host_us_per_sim_s_tail", "us/sim_s"),
    m("flight.tail_percentile", "%"),
    m("binder.transactions", "count"),
    m("vdc.waypoint_arrivals", "count"),
    m("vdc.geofence_breaches", "count"),
    m("trace_overhead_ratio", "ratio"),
];

/// Whether `name` fits the result grammar: 1–64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` fits the result grammar: 1–16 of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// One run's result: the four keys of the final stdout line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Report {
    /// Records the value of the declared metric `name`.
    ///
    /// # Panics
    ///
    /// On a name neither table declares — a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        self.metrics.insert(def.name, (value, def.unit));
    }

    /// Renders the result as one JSON object on one line. Values keep
    /// every digit (Rust's shortest round-trip float formatting).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float as a JSON number (integral values print without a
/// fraction, which JSON reads back identically).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_name_and_unit_fits_the_grammar_once() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name {:?}", def.name);
            assert!(
                valid_unit(def.unit),
                "bad unit {:?} on {}",
                def.unit,
                def.name
            );
            assert!(seen.insert(def.name), "{} declared twice", def.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn the_grammar_rejects_what_the_result_format_forbids() {
        assert!(valid_name("cloud.vdr_s") && valid_name("p99-tail") && valid_name("9lives"));
        assert!(!valid_name("") && !valid_name("_lead") && !valid_name(".lead"));
        assert!(!valid_name("has space") && !valid_name("slash/name") && !valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("us/sim_s") && valid_unit("%") && valid_unit("1/s"));
        assert!(!valid_unit("") && !valid_unit("sim s") && !valid_unit(&"u".repeat(17)));
    }

    fn at<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
        v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str, with_unit: bool| -> Vec<String> {
            at(&doc, key)
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| {
                    let name = at(m, "name").as_str().expect("a name");
                    if with_unit {
                        format!("{name} [{}]", at(m, "unit").as_str().expect("a unit"))
                    } else {
                        name.to_string()
                    }
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<String> {
            defs.iter()
                .map(|d| format!("{} [{}]", d.name, d.unit))
                .collect()
        };
        assert_eq!(names("end_to_end", true), ours(END_TO_END));
        assert_eq!(names("per_layer", true), ours(PER_LAYER));
        let workloads: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names("workloads", false), workloads);
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_four_keys() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        r.set("orders_per_s", 1234.5678);
        r.set("setup_s", 0.1);
        let line = r.to_json();
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(at(&v, "attempted").as_f64(), Some(3.0));
        let metrics = at(&v, "metrics");
        assert_eq!(
            at(at(metrics, "orders_per_s"), "value").as_f64(),
            Some(1234.5678)
        );
        assert_eq!(at(at(metrics, "setup_s"), "unit").as_str(), Some("s"));
    }
}

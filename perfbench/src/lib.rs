//! The repository benchmark: three seeded workloads over the AnDrone
//! reproduction, measured end to end (untraced runs) and layer by
//! layer (traced runs that replay the executor through each layer's
//! public calls). See `README.md` beside this crate for the metric
//! catalogue and the recorded baseline.

mod calib;
mod checks;
mod fleet;
mod host;
mod ladder;
pub mod metrics;
mod spans;
mod stats;

use std::time::{Duration, Instant};

use androne::{
    execute_scale_fleet, FleetConfig, FleetOutcome, FleetSpec, ScaleConfig, ScaleOutcome,
};

use checks::{Digests, Tally};
use metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use spans::Spans;
use stats::{median, nearest_rank};

/// The seed a bare invocation runs.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking that results generalise.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// The executors run on one thread: the benchmark measures the
/// program, not the scheduler of a small host.
pub const EXECUTOR_THREADS: usize = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The scale ladder at rung defaults: saturated admission.
    LadderBacklog,
    /// The same cohort with admission matched to fleet capacity.
    LadderSteady,
    /// A full-fidelity service day through `FleetSpec::run`.
    FleetFull,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LadderBacklog,
        Workload::LadderSteady,
        Workload::FleetFull,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LadderBacklog => "ladder_backlog",
            Workload::LadderSteady => "ladder_steady",
            Workload::FleetFull => "fleet_full",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Parses `--workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A workload's inputs for one seed.
enum Inputs {
    Ladder(ScaleConfig),
    Fleet(FleetConfig),
}

impl Inputs {
    fn new(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::LadderBacklog => Inputs::Ladder(ladder::backlog_config(seed)),
            Workload::LadderSteady => Inputs::Ladder(ladder::steady_config(seed)),
            Workload::FleetFull => Inputs::Fleet(fleet::fleet_config(seed)),
        }
    }

    fn tenants(&self) -> usize {
        match self {
            Inputs::Ladder(cfg) => cfg.tenants,
            Inputs::Fleet(cfg) => cfg.tenants.len(),
        }
    }

    /// One executor run — the timed unit.
    fn execute(&self) -> Result<Outcome, String> {
        match self {
            Inputs::Ladder(cfg) => Ok(Outcome::Ladder(execute_scale_fleet(cfg))),
            Inputs::Fleet(cfg) => FleetSpec::new(cfg.clone())
                .threads(EXECUTOR_THREADS)
                .run()
                .map(Outcome::Fleet)
                .map_err(|e| format!("fleet run failed: {e}")),
        }
    }
}

/// One executor run's outcome.
enum Outcome {
    Ladder(ScaleOutcome),
    Fleet(FleetOutcome),
}

impl Outcome {
    fn digests(&self) -> Digests {
        match self {
            Outcome::Ladder(o) => Digests {
                fleet: o.fleet_digest(),
                metrics: o.metrics_digest(),
            },
            Outcome::Fleet(o) => Digests {
                fleet: o.fleet_digest(),
                metrics: o.metrics_digest(),
            },
        }
    }

    /// Simulated order→resolution latency per tenant, seconds.
    fn latencies(&self) -> Vec<f64> {
        match self {
            Outcome::Ladder(o) => o.tenants.values().map(|t| t.latency_s).collect(),
            Outcome::Fleet(o) => fleet::sim_latencies(o),
        }
    }

    /// Simulated flight-seconds flown.
    fn sim_flight_s(&self) -> f64 {
        match self {
            Outcome::Ladder(o) => o.flights.iter().map(|f| f.duration_s).sum(),
            Outcome::Fleet(o) => o.flights.iter().map(|f| f.duration_s).sum(),
        }
    }

    fn completed(&self) -> usize {
        match self {
            Outcome::Ladder(o) => o.completed(),
            Outcome::Fleet(o) => o
                .tenants
                .values()
                .filter(|t| t.resolution == androne::TenantResolution::Completed)
                .count(),
        }
    }

    fn check(&self, t: &mut Tally, workload: Workload, inputs: &Inputs, reference: Digests) {
        match (self, inputs) {
            (Outcome::Ladder(o), _) => {
                checks::check_ladder(t, o, reference, workload == Workload::LadderSteady)
            }
            (Outcome::Fleet(o), Inputs::Fleet(cfg)) => checks::check_fleet(t, cfg, o, reference),
            (Outcome::Fleet(_), Inputs::Ladder(_)) => {
                t.check(false, || "fleet outcome for ladder inputs".to_string())
            }
        }
    }
}

/// A finished run: the result line plus human-readable notes.
pub struct RunResult {
    pub report: Report,
    pub notes: Vec<String>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Sets up `SETUPS` times — builds the inputs and flies one reference
/// run whose digests every later run of the seed must reproduce — and
/// returns the inputs, the reference outcome, and each setup's host
/// seconds. The first setup is timed from `started`, the benchmark's
/// start.
fn set_up(
    args: &Args,
    started: Instant,
    tally: &mut Tally,
) -> Result<(Inputs, Outcome, Digests, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut prepared: Option<(Inputs, Outcome, Digests)> = None;
    for k in 0..SETUPS {
        let t0 = if k == 0 { started } else { Instant::now() };
        let inputs = Inputs::new(args.workload, args.seed);
        let outcome = inputs.execute()?;
        times.push(secs(t0.elapsed()));
        let digests = outcome.digests();
        let reference = prepared.as_ref().map_or(digests, |p| p.2);
        outcome.check(tally, args.workload, &inputs, reference);
        prepared = Some((inputs, outcome, reference));
    }
    let (inputs, outcome, digests) = prepared.ok_or("no setup ran")?;
    Ok((inputs, outcome, digests, times))
}

/// Runs the benchmark described by `args`.
pub fn run(args: &Args) -> RunResult {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut report = Report::default();
    let mut notes = vec![format!(
        "host: nproc={} rustc=\"{}\" executor_threads={EXECUTOR_THREADS} workload={} seed={} trace={}",
        host::nproc(),
        host::rustc_version(),
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
    )];
    match set_up(args, started, &mut tally) {
        Err(e) => tally.check(false, || e),
        Ok((inputs, reference, digests, setup_times)) => {
            let budget = Duration::from_secs_f64(args.seconds);
            if args.trace {
                traced(
                    args,
                    &inputs,
                    &reference,
                    digests,
                    budget,
                    &mut tally,
                    &mut report,
                );
            } else {
                let runs = timed(args, &inputs, digests, budget, &mut tally);
                end_to_end(
                    &inputs,
                    &reference,
                    &runs,
                    &setup_times,
                    &mut report,
                    &mut notes,
                );
            }
        }
    }
    // Every declared metric appears, even when setup failed.
    let declared: &[MetricDef] = if args.trace { PER_LAYER } else { END_TO_END };
    for &def in declared {
        report.metrics.entry(def.name).or_insert((0.0, def.unit));
    }
    if !args.trace {
        report.set("success_ratio", 1.0 - tally.failed_ratio());
    }
    for (name, (value, unit)) in &report.metrics {
        if !value.is_finite() {
            tally.check(false, || format!("{name} is not finite"));
        }
        notes.push(format!("{name} = {value} {unit}"));
    }
    notes.extend(tally.failures.iter().map(|f| format!("FAILED: {f}")));
    report.correct = tally.correct();
    report.attempted = tally.attempted.max(1);
    report.failed = tally.failed;
    RunResult { report, notes }
}

/// One timed executor run: its host seconds and those of the two
/// reference kernels around it.
struct Timing {
    host_s: f64,
    kernel_s: f64,
}

/// Times executor runs, each between two reference kernels, until the
/// budget is spent (at least one), checking each.
fn timed(
    args: &Args,
    inputs: &Inputs,
    digests: Digests,
    budget: Duration,
    t: &mut Tally,
) -> Vec<Timing> {
    let t_start = Instant::now();
    let mut runs = Vec::new();
    while runs.is_empty() || t_start.elapsed() < budget {
        let (out, host_s, kernel_s) = calib::bracketed(|| inputs.execute());
        match out {
            Ok(out) => {
                runs.push(Timing { host_s, kernel_s });
                out.check(t, args.workload, inputs, digests);
            }
            Err(e) => {
                t.check(false, || e);
                break;
            }
        }
    }
    runs
}

fn end_to_end(
    inputs: &Inputs,
    reference: &Outcome,
    runs: &[Timing],
    setup_times: &[f64],
    report: &mut Report,
    notes: &mut Vec<String>,
) {
    // Host times at the baseline host's speed: each run against its own
    // kernels, the set-ups (which ran first) against the run's median.
    let scaled: Vec<f64> = runs
        .iter()
        .map(|r| calib::at_reference_speed(r.host_s, r.kernel_s))
        .collect();
    let wall = median(&scaled);
    let raw: Vec<f64> = runs.iter().map(|r| r.host_s).collect();
    let kernel_s = median(&runs.iter().map(|r| r.kernel_s).collect::<Vec<_>>());
    let n = inputs.tenants() as f64;
    let mut lat = reference.latencies();
    let p50 = nearest_rank(&mut lat, 0.5);
    let p99 = stats::tail_percentile(&mut lat, 0.99).unwrap_or_else(|| {
        notes.push(format!(
            "order_latency_p99_sim_s: {} samples leave fewer than {} beyond p99; reporting the nearest-rank p99 (the maximum)",
            lat.len(),
            stats::MIN_BEYOND
        ));
        nearest_rank(&mut lat, 0.99)
    });
    notes.push(format!(
        "timed runs: {} (as measured: median {:.6} s, fastest {:.6} s, slowest {:.6} s); setups {setup_times:?} s",
        raw.len(),
        median(&raw),
        raw.iter().copied().fold(f64::INFINITY, f64::min),
        raw.iter().copied().fold(0.0, f64::max),
    ));
    notes.push(format!(
        "host speed: reference kernels {kernel_s:.6} s (baseline {} s); run median at baseline speed {wall:.6} s",
        calib::REFERENCE_S
    ));
    report.set("orders_per_s", n / wall);
    report.set("sim_s_per_wall_s", reference.sim_flight_s() / wall);
    report.set("order_latency_p50_sim_s", p50);
    report.set("order_latency_p99_sim_s", p99);
    report.set("completed_ratio", reference.completed() as f64 / n);
    report.set(
        "setup_s",
        calib::at_reference_speed(median(setup_times), kernel_s),
    );
    report.set("peak_rss_mb", host::peak_rss_mb());
}

/// The traced run: alternates an untraced executor run with a traced
/// replay until the budget is spent (at least one of each), checks
/// every replay against the executor, and reports per-layer medians.
fn traced(
    args: &Args,
    inputs: &Inputs,
    reference: &Outcome,
    digests: Digests,
    budget: Duration,
    t: &mut Tally,
    report: &mut Report,
) {
    let t_start = Instant::now();
    let mut walls = Vec::new();
    let mut layer_runs: Vec<Layers> = Vec::new();
    while layer_runs.is_empty() || t_start.elapsed() < budget {
        let t0 = Instant::now();
        let out = inputs.execute();
        walls.push(secs(t0.elapsed()));
        match out {
            Ok(out) => out.check(t, args.workload, inputs, digests),
            Err(e) => {
                t.check(false, || e);
                return;
            }
        }
        layer_runs.push(match (inputs, reference) {
            (Inputs::Ladder(cfg), Outcome::Ladder(exec)) => ladder_layers(cfg, exec, t),
            (Inputs::Fleet(cfg), Outcome::Fleet(exec)) => fleet_layers(cfg, exec, t),
            _ => return t.check(false, || "inputs and outcome disagree".to_string()),
        });
    }
    // Each metric's median over the replays (counts are the same in
    // every replay; times vary run to run).
    let run_s = median(&walls);
    for l in &mut layer_runs {
        l.set("core.run_s", run_s);
        l.set("trace_overhead_ratio", ratio(l.get("core.replay_s"), run_s));
    }
    for def in PER_LAYER {
        let values: Vec<f64> = layer_runs.iter().map(|l| l.get(def.name)).collect();
        report.set(def.name, median(&values));
    }
}

/// One traced replay's per-layer values, by metric name.
#[derive(Default)]
struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Span name → the per-layer share it reports.
const SHARES: [(&str, &str); 11] = [
    ("cloud.submit", "cloud.submit_share"),
    ("cloud.admit", "cloud.admit_share"),
    ("cloud.vdr", "cloud.vdr_share"),
    ("cloud.compact", "cloud.compact_share"),
    ("cloud.billing", "cloud.billing_share"),
    ("planner.bin_pack", "planner.bin_pack_share"),
    ("planner.vrp", "planner.vrp_share"),
    ("drone.boot", "drone.boot_share"),
    ("drone.deploy", "drone.deploy_share"),
    ("drone.save", "drone.save_share"),
    ("drone.teardown", "drone.teardown_share"),
];

/// Percentiles tried for the host-time tail, highest first.
const TAIL_CANDIDATES: [f64; 7] = [0.999, 0.995, 0.99, 0.95, 0.9, 0.75, 0.5];

/// The metrics every replay's spans give: each layer's share of the
/// replay, the replay's own time, and host time per simulated
/// flight-second (`samples`, in microseconds).
fn span_layers(s: &Spans, samples: &mut [f64], sim_s: f64) -> Layers {
    let mut l = Layers::default();
    let replay_s = s.total();
    for (span, metric) in SHARES {
        l.set(metric, ratio(s.secs(span), replay_s));
    }
    let lifecycle: f64 = ["drone.boot", "drone.deploy", "drone.save", "drone.teardown"]
        .iter()
        .map(|n| s.secs(n))
        .sum();
    l.set("drone.lifecycle_share", ratio(lifecycle, replay_s));
    l.set("core.replay_s", replay_s);
    l.set("core.replay_self_s", s.self_secs());
    l.set("flight.fly_s", s.secs("flight.fly"));
    l.set("flight.sim_s", sim_s);
    l.set("flight.samples", samples.len() as f64);
    l.set("flight.host_us_per_sim_s_p50", nearest_rank(samples, 0.5));
    if let Some((q, v)) = stats::highest_trusted(samples, &TAIL_CANDIDATES) {
        l.set("flight.host_us_per_sim_s_tail", v);
        l.set("flight.tail_percentile", q * 100.0);
    }
    l
}

/// Replays a ladder run, checks it reproduced the executor, and
/// collects the cloud/planner/core layers (timings replayed, counts
/// in-run where the executor exposes them).
fn ladder_layers(cfg: &ScaleConfig, exec: &ScaleOutcome, t: &mut Tally) -> Layers {
    let mut r = ladder::replay(cfg);
    let o = &r.outcome;
    t.check(
        o.backpressured_submissions == exec.backpressured_submissions,
        || {
            format!(
                "replayed backpressure {} != executor {}",
                o.backpressured_submissions, exec.backpressured_submissions
            )
        },
    );
    t.check(o.peak_queue_depth == exec.peak_queue_depth, || {
        format!(
            "replayed queue peak {} != executor {}",
            o.peak_queue_depth, exec.peak_queue_depth
        )
    });
    t.check(o.fleet_digest() == exec.fleet_digest(), || {
        "replayed fleet digest differs from the executor's".to_string()
    });
    let m = &exec.metrics;
    let (legs, spilled) = (m.counter("scale.legs"), m.counter("scale.legs_spilled"));
    t.check(
        r.legs_offered == legs + spilled && r.legs_spilled == spilled,
        || {
            format!(
                "replayed {} offered / {} spilled legs; executor packed {legs}, spilled {spilled}",
                r.legs_offered, r.legs_spilled
            )
        },
    );
    let sim_s = exec.flights.iter().map(|f| f.duration_s).sum();
    let mut l = span_layers(&r.spans, &mut r.host_us_per_sim_s, sim_s);
    l.set("cloud.submit_calls", r.submit_calls as f64);
    l.set(
        "cloud.bounces_per_order",
        ratio(exec.backpressured_submissions as f64, cfg.tenants as f64),
    );
    l.set(
        "cloud.accept_ratio",
        ratio(r.accepted as f64, r.submit_calls as f64),
    );
    l.set("cloud.queue_depth_peak", exec.peak_queue_depth as f64);
    l.set(
        "cloud.vdr_ops",
        (r.vdr_ops + r.spans.calls("cloud.compact")) as f64,
    );
    l.set("cloud.vdr_compacted_saves", exec.vdr.compacted_saves as f64);
    l.set("cloud.vdr_reclaimed_bytes", exec.vdr.reclaimed_bytes as f64);
    l.set("cloud.vdr_leased_at_end", exec.vdr.leased as f64);
    l.set("planner.legs_offered", r.legs_offered as f64);
    l.set("planner.legs_spilled", spilled as f64);
    l.set(
        "planner.pack_ratio",
        ratio(legs as f64, r.legs_offered as f64),
    );
    // Every packed flight flies in its wave.
    l.set("planner.plan_use_ratio", 1.0);
    l.set("core.waves", exec.waves_run as f64);
    l.set("core.flights", exec.flights.len() as f64);
    l.set("core.legs", legs as f64);
    l
}

/// Replays a fleet run, checks every replayed flight's trace digest
/// against the executor's, and collects every layer.
fn fleet_layers(cfg: &FleetConfig, exec: &FleetOutcome, t: &mut Tally) -> Layers {
    let mut r = fleet::replay(cfg);
    let o = &r.outcome;
    t.check(r.error.is_none(), || {
        format!("replay stopped: {}", r.error.clone().unwrap_or_default())
    });
    t.check(o.flights.len() == exec.flights.len(), || {
        format!(
            "replayed {} flights, executor flew {}",
            o.flights.len(),
            exec.flights.len()
        )
    });
    for (mine, theirs) in o.flights.iter().zip(&exec.flights) {
        t.check(
            mine.trace_digest == theirs.trace_digest && mine.owners == theirs.owners,
            || {
                format!(
                    "flight {} trace digest differs from the executor's",
                    theirs.flight_index
                )
            },
        );
    }
    t.check(o.fleet_digest() == exec.fleet_digest(), || {
        "replayed fleet digest differs from the executor's".to_string()
    });
    t.check(r.vdr_leased_at_end == 0, || {
        format!(
            "{} VDR leases outstanding at quiescence",
            r.vdr_leased_at_end
        )
    });
    let (flights, plans) = (o.flights.len() as f64, r.plans_produced as f64);
    let sim_s = exec.flights.iter().map(|f| f.duration_s).sum();
    let mut l = span_layers(&r.spans, &mut r.host_us_per_sim_s, sim_s);
    let m = &exec.metrics;
    l.set("cloud.vdr_ops", r.vdr_ops as f64);
    l.set("cloud.vdr_leased_at_end", r.vdr_leased_at_end as f64);
    l.set("planner.legs_offered", r.legs_planned as f64);
    l.set(
        "planner.legs_spilled",
        (r.legs_planned - r.legs_flown) as f64,
    );
    l.set(
        "planner.pack_ratio",
        ratio(r.legs_flown as f64, r.legs_planned as f64),
    );
    l.set("planner.vrp_calls", r.spans.calls("planner.vrp") as f64);
    l.set("planner.plan_use_ratio", ratio(flights, plans));
    l.set("core.waves", exec.waves_run as f64);
    l.set("core.flights", exec.flights.len() as f64);
    l.set("core.legs", r.legs_flown as f64);
    l.set("binder.transactions", m.counter("binder.txn") as f64);
    l.set(
        "vdc.waypoint_arrivals",
        m.counter("vdc.waypoint_arrivals") as f64,
    );
    l.set(
        "vdc.geofence_breaches",
        m.counter("vdc.geofence_breaches") as f64,
    );
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_in_the_command_form() {
        let a = parse_args(&argv(
            "--workload fleet_full --seed 7 --seconds 10 --trace 1",
        ));
        assert_eq!(
            a,
            Ok(Args {
                workload: Workload::FleetFull,
                seed: 7,
                seconds: 10.0,
                trace: true,
            })
        );
        let bare = parse_args(&argv("--workload ladder_steady")).expect("defaults");
        assert_eq!((bare.seed, bare.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn every_workload_passes_its_checks_and_reports_every_declared_metric() {
        for workload in Workload::ALL {
            for (trace, declared) in [(false, END_TO_END), (true, PER_LAYER)] {
                let args = Args {
                    workload,
                    seed: DEFAULT_SEED,
                    seconds: 0.001,
                    trace,
                };
                let RunResult { report, notes } = run(&args);
                let label = format!("{} trace={trace}", workload.name());
                assert!(report.correct, "{label}: {notes:#?}");
                assert_eq!(report.failed, 0, "{label}");
                let names: Vec<&str> = report.metrics.keys().copied().collect();
                let mut want: Vec<&str> = declared.iter().map(|d| d.name).collect();
                want.sort_unstable();
                assert_eq!(names, want, "{label}");
            }
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload fleet_full --trace 2",
            "--workload fleet_full --seconds 0",
            "--workload fleet_full --seed -1",
            "--workload fleet_full --frob 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}

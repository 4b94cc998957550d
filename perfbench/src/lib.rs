//! Host-time benchmark of the Bifrost request→check pipeline.
//!
//! Requests flow workload → proxy → simnet CPU → engine backends → metrics
//! recorder and store → checks → engine transitions. The benchmark drives
//! that pipeline only through the workspace crates' public APIs and
//! measures host time, not virtual time:
//!
//! * [`measure`] (`--trace 0`) sets up and runs a workload repeatedly for
//!   the requested number of seconds, stepping the engine one virtual
//!   second at a time, checks every run's outputs, and reports the
//!   end-to-end metrics over the runs;
//! * [`traced`] (`--trace 1`) runs the workload once untraced, records the
//!   engine's run-time decisions, and replays the same inputs layer by
//!   layer with spans on and off (see [`replay`]), reporting the per-layer
//!   metrics.

pub mod replay;
pub mod run;
pub mod trace;
pub mod workloads;

use crate::run::StepCounts;
use crate::workloads::{Scale, Scenario, Workload};
use bifrost_core::prelude::Seed;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed runs a measurement makes even when they outlast `--seconds`.
const MIN_TIMED_RUNS: usize = 3;

/// Which quantile of the timed runs a timing reports: the lower quartile,
/// i.e. the median of the faster half. On a shared host, other tenants'
/// memory traffic slows whole stretches of runs by up to 60%; the faster
/// half's median filters those stretches and still averages over runs.
pub const RUN_QUANTILE: f64 = 0.25;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The seed every input derives from.
    pub seed: u64,
    /// Host seconds of timed runs to make (at least [`MIN_TIMED_RUNS`]).
    pub seconds: f64,
    /// The input size.
    pub scale: Scale,
    /// Where the traced run writes its spans (`None`: keep them in memory
    /// only).
    pub trace_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed a correctness check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: checks, digest, tables.
    pub lines: Vec<String>,
    /// The digest of the simulated statistics.
    pub digest: u64,
}

impl Report {
    /// Whether every run passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result as one line of JSON.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The `q`-quantile of `values` (nearest rank), 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(q * (sorted.len() - 1) as f64).round() as usize]
}

fn build(options: &Options) -> Scenario {
    Scenario::build(options.workload, options.scale, Seed::new(options.seed))
}

/// Measures the end-to-end metrics of a workload.
///
/// First, untimed: a one-shot `run_to_completion` run gives the reference
/// digest and the peak resident set size, and a stepped run with per-step
/// counters is checked in full ([`run::verify`]). Then timed runs —
/// set-up, stepped run — repeat until `seconds` have passed (at least
/// [`MIN_TIMED_RUNS`] times); each must reproduce the reference digest.
/// Timings are the [`RUN_QUANTILE`] of the timed runs.
pub fn measure(options: &Options) -> Report {
    let mut report = Report::default();
    let name = options.workload.name();

    let scenario = build(options);
    let mut instance = run::instantiate(&scenario);
    let reference = run::run_one_shot(&mut instance, &scenario);
    // The first run in a fresh process: later runs reuse a fragmented heap
    // whose high-water mark depends on allocation order, not on the
    // workload.
    let peak_rss_mb = run::peak_rss_mb();
    drop(instance);
    report.attempted += 1;
    report.digest = reference.digest();

    let mut instance = run::instantiate(&scenario);
    let mut steps = Vec::new();
    report.attempted += 1;
    match run::run_stepped(&mut instance, &scenario, |instance, at| {
        steps.push(StepCounts::read(instance, at))
    }) {
        Ok((summary, _)) => {
            let verdict = run::verify(&scenario, &summary, &steps, report.digest);
            if !verdict.failures.is_empty() {
                report.failed += 1;
            }
            report.lines.extend(verdict.notes);
            report.lines.extend(verdict.failures);
        }
        Err(error) => {
            report.failed += 1;
            report.lines.push(format!("FAIL stepped run: {error}"));
        }
    }
    drop(instance);
    drop(steps);
    drop(scenario);

    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut steps_per_run = 0;
    let started = Instant::now();
    while setups.len() < MIN_TIMED_RUNS || started.elapsed().as_secs_f64() < options.seconds {
        let setup = Instant::now();
        let scenario = build(options);
        let mut instance = run::instantiate(&scenario);
        setups.push(setup.elapsed().as_secs_f64());
        report.attempted += 1;
        match run::run_stepped(&mut instance, &scenario, |_, _| {}) {
            Ok((summary, timing)) => {
                if summary.digest() != report.digest {
                    report.failed += 1;
                    report.lines.push(format!(
                        "FAIL timed run digest {:016x} differs from the reference {:016x}",
                        summary.digest(),
                        report.digest
                    ));
                }
                runs.push(timing.run_s);
                p50s.push(quantile(&timing.step_ms, 0.5));
                p90s.push(quantile(&timing.step_ms, 0.9));
                steps_per_run = timing.step_ms.len();
            }
            Err(error) => {
                report.failed += 1;
                report.lines.push(format!("FAIL timed run: {error}"));
            }
        }
    }

    let run_s = quantile(&runs, RUN_QUANTILE);
    let per_second = |count: u64| {
        if run_s > 0.0 {
            count as f64 / run_s
        } else {
            0.0
        }
    };
    report.lines.push(format!(
        "{name} seed {}: {} requests, {} check executions ({} failed), {} strategies",
        options.seed,
        reference.requests(),
        reference.checks_executed,
        reference.checks_failed,
        reference.reports.len()
    ));
    report.lines.push(format!(
        "timed runs: {}; step samples: {steps_per_run} per run; setup_s {:?}; run_s {:?}",
        runs.len(),
        setups,
        runs
    ));
    report.lines.push(format!(
        "digest {name} seed {}: {:016x}",
        options.seed, report.digest
    ));
    report.metric("setup_s", quantile(&setups, RUN_QUANTILE), "s");
    report.metric("run_s", run_s, "s");
    report.metric("requests_per_s", per_second(reference.requests()), "1/s");
    report.metric("checks_per_s", per_second(reference.checks_executed), "1/s");
    report.metric("step_ms_p50", quantile(&p50s, RUN_QUANTILE), "ms");
    report.metric("step_ms_p90", quantile(&p90s, RUN_QUANTILE), "ms");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report
}

/// The span names whose self time replays the engine's run loop (the
/// arrival plan is set-up work; per-request routing is the comparison
/// path, not the engine's).
const ENGINE_PATH: [&str; 8] = [
    "proxy.route_many",
    "simnet.submit",
    "backends.serve",
    "metrics.observe",
    "simnet.sample_utilization",
    "metrics.flush",
    "metrics.query",
    "proxy.apply_config",
];

/// Measures the per-layer metrics of a workload: an untraced stepped run,
/// a recording run, and the replay with spans on and off. The replay must
/// match the engine run's counts exactly.
pub fn traced(options: &Options) -> Report {
    let mut report = Report::default();
    let scenario = build(options);

    let mut instance = run::instantiate(&scenario);
    report.attempted += 1;
    let (engine, timing) = match run::run_stepped(&mut instance, &scenario, |_, _| {}) {
        Ok(result) => result,
        Err(error) => {
            report.failed += 1;
            report.lines.push(format!("FAIL untraced run: {error}"));
            return report;
        }
    };
    drop(instance);
    report.digest = engine.digest();

    report.attempted += 1;
    let timeline = match replay::record(&scenario) {
        Ok(timeline) => timeline,
        Err(error) => {
            report.failed += 1;
            report.lines.push(format!("FAIL recording run: {error}"));
            return report;
        }
    };
    if timeline.summary.digest() != report.digest {
        report.failed += 1;
        report.lines.push(format!(
            "FAIL recording run digest {:016x} differs from the untraced run's {:016x}",
            timeline.summary.digest(),
            report.digest
        ));
    }

    let traced = replay::replay(&scenario, &timeline, true);
    let plain = replay::replay(&scenario, &timeline, false);
    for (label, run) in [("traced", &traced), ("untraced", &plain)] {
        report.attempted += 1;
        let mismatches = replay::mismatches(&engine, run);
        if mismatches.is_empty() {
            report.lines.push(format!(
                "ok   {label} replay matches the engine run's counts on {} streams",
                run.streams.len()
            ));
        } else {
            report.failed += 1;
            report.lines.extend(
                mismatches
                    .into_iter()
                    .map(|m| format!("FAIL {label} replay: {m}")),
            );
        }
    }
    if let Some(dir) = &options.trace_dir {
        let path = dir.join(format!(
            "{}-seed{}.tsv",
            options.workload.name(),
            options.seed
        ));
        match traced.tracer.write_tsv(&path) {
            Ok(()) => report.lines.push(format!(
                "{} spans written to {}",
                traced.tracer.spans().len(),
                path.display()
            )),
            Err(error) => report
                .lines
                .push(format!("spans not written to {}: {error}", path.display())),
        }
    }

    let totals = traced.tracer.totals();
    let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let count = |name: &str| totals.get(name).map_or(0, |t| t.count);
    let per = |amount: f64, units: u64| {
        if units == 0 {
            0.0
        } else {
            amount / units as f64
        }
    };
    let c = &traced.counts;
    let attributed_ns: u64 = ENGINE_PATH
        .iter()
        .map(|name| totals.get(name).map_or(0, |t| t.self_ns))
        .sum();
    report.lines.push(format!(
        "{:<28} {:>9} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    ));
    for (name, total) in &totals {
        report.lines.push(format!(
            "{name:<28} {:>9} {:>12.3} {:>12.3}",
            total.count,
            total.total_ns as f64 / 1e6,
            total.self_ns as f64 / 1e6
        ));
    }
    report.lines.push(format!(
        "untraced run_s {:.4}; replay {:.4} s with spans, {:.4} s without",
        timing.run_s, traced.wall_s, plain.wall_s
    ));
    report.lines.push(format!(
        "digest {} seed {}: {:016x}",
        options.workload.name(),
        options.seed,
        report.digest
    ));

    let checks = &timeline.summary;
    report.metric("workload.plan_ms", total_ns("workload.plan") / 1e6, "ms");
    report.metric("workload.arrivals", c.arrivals as f64, "count");
    report.metric("workload.plan_bytes", c.plan_bytes as f64, "bytes");
    report.metric(
        "proxy.route_ns_per_request",
        per(total_ns("proxy.route"), c.requests),
        "ns",
    );
    report.metric(
        "proxy.route_many_ns_per_request",
        per(total_ns("proxy.route_many"), c.requests),
        "ns",
    );
    report.metric(
        "proxy.session_hit_ratio",
        per(c.session_hits as f64, c.session_hits + c.session_misses),
        "ratio",
    );
    report.metric("proxy.sessions_live", c.sessions_peak as f64, "count");
    report.metric(
        "proxy.apply_config_us",
        per(
            total_ns("proxy.apply_config") / 1e3,
            count("proxy.apply_config"),
        ),
        "us",
    );
    report.metric(
        "simnet.submit_ns",
        per(total_ns("simnet.submit"), c.requests),
        "ns",
    );
    report.metric("simnet.cores", c.cores as f64, "count");
    report.metric(
        "simnet.sample_utilization_us",
        per(total_ns("simnet.sample_utilization") / 1e3, c.ticks),
        "us",
    );
    report.metric(
        "backends.dispatch_ns",
        per(c.dispatch_ns as f64, c.dispatches),
        "ns",
    );
    report.metric(
        "backends.shed_ratio",
        per(c.shed as f64, c.dispatches),
        "ratio",
    );
    report.metric(
        "backends.timeout_ratio",
        per(c.timed_out as f64, c.primary_dispatches),
        "ratio",
    );
    report.metric(
        "metrics.observe_ns_per_request",
        per(total_ns("metrics.observe"), c.requests),
        "ns",
    );
    report.metric(
        "metrics.flush_us_per_tick",
        per(total_ns("metrics.flush") / 1e3, c.ticks),
        "us",
    );
    report.metric("metrics.store_samples", c.store_samples as f64, "count");
    report.metric("metrics.store_series", c.store_series as f64, "count");
    report.metric(
        "metrics.query_us",
        per(total_ns("metrics.query") / 1e3, count("metrics.query")),
        "us",
    );
    report.metric("checks.executed", checks.checks_executed as f64, "count");
    report.metric(
        "checks.failed_ratio",
        per(checks.checks_failed as f64, checks.checks_executed),
        "ratio",
    );
    report.metric("engine.events", timing.events as f64, "count");
    report.metric(
        "engine.ns_per_event",
        per(timing.run_s * 1e9, timing.events),
        "ns",
    );
    report.metric("engine.quantile_ms", timing.quantile_s * 1e3, "ms");
    report.metric(
        "engine.latency_vec_bytes",
        timing.latency_vec_bytes as f64,
        "bytes",
    );
    report.metric("dsl.parse_us", scenario.dsl_parse.as_secs_f64() * 1e6, "us");
    report.metric(
        "trace.attributed_share",
        Duration::from_nanos(attributed_ns).as_secs_f64() / timing.run_s,
        "ratio",
    );
    report.metric(
        "trace.overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
        "%",
    );
    report
}

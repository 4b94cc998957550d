//! Running a scenario through the engine: set-up, the stepped and one-shot
//! runs, the run summary and its digest, and the correctness checks.

use crate::workloads::Scenario;
use bifrost_core::prelude::*;
use bifrost_engine::{
    BifrostEngine, EngineEvent, StrategyHandle, StrategyReport, TrafficHandle, TrafficStats,
};
use bifrost_metrics::SharedMetricStore;
use bifrost_simnet::SimTime;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Virtual time advanced by one step of a stepped run.
const STEP: Duration = Duration::from_secs(1);

/// Margin kept clear of each state boundary when checking shares: the
/// proxy switches configuration when the previous state is evaluated,
/// which the engine's modelled CPU may log a little later.
const SHARE_MARGIN: Duration = Duration::from_secs(2);

/// Largest allowed distance between an observed and a configured share.
const SHARE_TOLERANCE: f64 = 0.01;

/// An engine with the scenario's proxies, strategies and traffic attached.
pub struct Instance {
    /// The engine.
    pub engine: BifrostEngine,
    /// The metric store the traffic records into and checks read.
    pub store: SharedMetricStore,
    /// One handle per scenario stream, in order.
    pub streams: Vec<TrafficHandle>,
    /// One handle per scenario strategy, in order.
    pub strategies: Vec<StrategyHandle>,
}

/// Builds the engine for a scenario: registers the store provider and the
/// proxies, schedules the strategies and attaches the traffic (which
/// materialises every arrival plan).
pub fn instantiate(scenario: &Scenario) -> Instance {
    let store = SharedMetricStore::new();
    let mut engine = BifrostEngine::new(scenario.engine_config);
    engine.register_store_provider("prometheus", store.clone());
    for &(service, version) in &scenario.proxies {
        engine.register_proxy(service, version);
    }
    let strategies = scenario
        .strategies
        .iter()
        .map(|spec| engine.schedule(spec.strategy.clone(), spec.start_at))
        .collect();
    let streams = scenario
        .streams
        .iter()
        .map(|spec| engine.attach_traffic(spec.profile.clone(), store.clone()))
        .collect();
    Instance {
        engine,
        store,
        streams,
        strategies,
    }
}

/// What one stream's traffic did, as pulled out of the engine at the end
/// of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamSummary {
    /// Primary requests routed.
    pub requests: u64,
    /// Failed requests (errors, shed and timed out).
    pub errors: u64,
    /// Primary requests shed by a full backend queue.
    pub shed: u64,
    /// Primary requests past their backend's deadline.
    pub timed_out: u64,
    /// Shadow copies shed by a full backend queue.
    pub shadow_shed: u64,
    /// Shadow copies produced.
    pub shadow_copies: u64,
    /// Primary requests per version.
    pub per_version: BTreeMap<VersionId, u64>,
    /// Shadow copies per target version.
    pub shadow_per_version: BTreeMap<VersionId, u64>,
    /// Shed and timed-out primary requests per version.
    pub shed_per_version: BTreeMap<VersionId, u64>,
    /// Ticks processed.
    pub ticks: u64,
    /// Bits of the summed end-to-end latency (ms).
    pub total_latency_bits: u64,
    /// Median, 95th and 99th percentile latency (virtual ms).
    pub quantiles_ms: [f64; 3],
    /// Proxy CPU demand charged.
    pub proxy_busy: Duration,
    /// Bits of each queued version's peak utilisation.
    pub peak_utilization_bits: BTreeMap<VersionId, u64>,
    /// Hash of every request's latency bits, in arrival order.
    pub latencies_hash: u64,
}

impl StreamSummary {
    /// Copies the counters out of the engine's statistics. The quantiles
    /// and latency hash are filled in separately.
    fn counts(stats: &TrafficStats) -> Self {
        Self {
            requests: stats.requests,
            errors: stats.errors,
            shed: stats.shed,
            timed_out: stats.timed_out,
            shadow_shed: stats.shadow_shed,
            shadow_copies: stats.shadow_copies,
            per_version: stats.per_version.clone(),
            shadow_per_version: stats.shadow_per_version.clone(),
            shed_per_version: stats.shed_per_version.clone(),
            ticks: stats.ticks,
            total_latency_bits: stats.total_latency_ms.to_bits(),
            quantiles_ms: [0.0; 3],
            proxy_busy: stats.proxy_busy,
            peak_utilization_bits: stats
                .peak_utilization
                .iter()
                .map(|(version, peak)| (*version, peak.to_bits()))
                .collect(),
            latencies_hash: 0,
        }
    }
}

/// Everything a run simulated: the basis of the digest.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// One summary per stream.
    pub streams: Vec<StreamSummary>,
    /// One report per strategy, in schedule order.
    pub reports: Vec<StrategyReport>,
    /// Check executions logged.
    pub checks_executed: u64,
    /// Check executions that failed.
    pub checks_failed: u64,
    /// Samples in the metric store.
    pub store_samples: usize,
    /// Series in the metric store.
    pub store_series: usize,
}

impl RunSummary {
    /// A 64-bit FNV-1a hash of every simulated number in the summary.
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes(), FNV_OFFSET)
    }

    /// Primary requests over all streams.
    pub fn requests(&self) -> u64 {
        self.streams.iter().map(|s| s.requests).sum()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Host-time measurements of one run.
#[derive(Debug, Clone, Default)]
pub struct RunTiming {
    /// From the first step to the end of pulling stats, quantiles and
    /// reports out of the engine (seconds).
    pub run_s: f64,
    /// Host milliseconds of each 1-virtual-second step.
    pub step_ms: Vec<f64>,
    /// Engine events processed.
    pub events: u64,
    /// Host seconds of the end-of-run latency quantile calls.
    pub quantile_s: f64,
    /// Bytes held by the per-request latency vectors.
    pub latency_vec_bytes: usize,
}

/// Per-stream counters at the end of one step, for share checks.
#[derive(Debug, Clone)]
pub struct StepCounts {
    /// The step's end.
    pub at: SimTime,
    /// Per stream: primary requests, requests per version, shadow copies.
    pub streams: Vec<(u64, BTreeMap<VersionId, u64>, u64)>,
}

impl StepCounts {
    /// Reads the counters of every stream.
    pub fn read(instance: &Instance, at: SimTime) -> Self {
        let streams = instance
            .streams
            .iter()
            .map(|&handle| {
                let stats = instance.engine.traffic_stats(handle).expect("attached");
                (
                    stats.requests,
                    stats.per_version.clone(),
                    stats.shadow_copies,
                )
            })
            .collect();
        Self { at, streams }
    }
}

/// Runs the engine in [`STEP`]-long `run_until` calls until every strategy
/// has finished and the traffic window has passed, calling `on_step` after
/// each step, then pulls the summary out. Fails if the horizon passes
/// first.
pub fn run_stepped(
    instance: &mut Instance,
    scenario: &Scenario,
    mut on_step: impl FnMut(&Instance, SimTime),
) -> Result<(RunSummary, RunTiming), String> {
    let mut timing = RunTiming::default();
    let started = Instant::now();
    let mut now = SimTime::ZERO;
    loop {
        now += STEP;
        let step = Instant::now();
        timing.events += instance.engine.run_until(now);
        timing.step_ms.push(step.elapsed().as_secs_f64() * 1e3);
        on_step(instance, now);
        if now >= scenario.traffic_end && instance.engine.all_finished() {
            break;
        }
        if now >= scenario.horizon {
            return Err(format!(
                "strategies still running at the {:.0} s horizon",
                scenario.horizon.as_secs_f64()
            ));
        }
    }
    let mut summary = pull(instance, &mut timing);
    timing.run_s = started.elapsed().as_secs_f64();
    complete(instance, &mut summary);
    Ok((summary, timing))
}

/// Runs the engine with one `run_to_completion` call and pulls the
/// summary out.
pub fn run_one_shot(instance: &mut Instance, scenario: &Scenario) -> RunSummary {
    instance.engine.run_to_completion(scenario.horizon);
    summarize(instance)
}

/// Pulls the whole summary out of a finished engine.
pub fn summarize(instance: &Instance) -> RunSummary {
    let mut summary = pull(instance, &mut RunTiming::default());
    complete(instance, &mut summary);
    summary
}

/// The timed end of a run: counters, latency quantiles (each call clones
/// and selects over the per-request latency vector) and reports.
fn pull(instance: &Instance, timing: &mut RunTiming) -> RunSummary {
    let mut streams = Vec::with_capacity(instance.streams.len());
    for &handle in &instance.streams {
        let stats = instance.engine.traffic_stats(handle).expect("attached");
        let mut summary = StreamSummary::counts(stats);
        let started = Instant::now();
        summary.quantiles_ms = [0.5, 0.95, 0.99].map(|q| stats.latency_quantile_ms(q));
        timing.quantile_s += started.elapsed().as_secs_f64();
        timing.latency_vec_bytes += stats.latencies_ms.capacity() * std::mem::size_of::<f64>();
        streams.push(summary);
    }
    RunSummary {
        streams,
        reports: instance.engine.reports(),
        checks_executed: 0,
        checks_failed: 0,
        store_samples: 0,
        store_series: 0,
    }
}

/// The untimed rest of the summary: latency hashes, check counts, store
/// size.
fn complete(instance: &Instance, summary: &mut RunSummary) {
    for (stream, &handle) in summary.streams.iter_mut().zip(&instance.streams) {
        let stats = instance.engine.traffic_stats(handle).expect("attached");
        stream.latencies_hash = stats.latencies_ms.iter().fold(FNV_OFFSET, |hash, latency| {
            fnv1a(&latency.to_bits().to_le_bytes(), hash)
        });
    }
    for event in instance.engine.events().events() {
        if let EngineEvent::CheckExecuted { success, .. } = event {
            summary.checks_executed += 1;
            if !success {
                summary.checks_failed += 1;
            }
        }
    }
    summary.store_samples = instance.store.sample_count();
    summary.store_series = instance.store.series_count();
}

/// The outcome of the correctness checks: failures and informational
/// lines.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Checks that failed, one line each.
    pub failures: Vec<String>,
    /// What was checked, one line each.
    pub notes: Vec<String>,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: String) {
        if ok {
            self.notes.push(format!("ok   {what}"));
        } else {
            self.failures.push(format!("FAIL {what}"));
        }
    }
}

/// Checks a stepped run against the scenario and the one-shot run's
/// digest: every planned arrival routed once, per-version counts summing
/// to the totals, observed shares within one percentage point of the
/// configured ones, each strategy in its expected final state, and the
/// stepped run simulating exactly what the one-shot run simulated.
pub fn verify(
    scenario: &Scenario,
    summary: &RunSummary,
    steps: &[StepCounts],
    one_shot_digest: u64,
) -> Verdict {
    let mut verdict = Verdict::default();
    for (index, (spec, stream)) in scenario.streams.iter().zip(&summary.streams).enumerate() {
        let planned = spec
            .profile
            .load()
            .plan_seeded(scenario.seed.stream(&format!("traffic-{index}")))
            .len() as u64;
        if stream.requests != planned {
            verdict.check(
                false,
                format!(
                    "stream {index}: {} of {planned} planned arrivals routed",
                    stream.requests
                ),
            );
        }
        if stream.per_version.values().sum::<u64>() != stream.requests
            || stream.shadow_per_version.values().sum::<u64>() != stream.shadow_copies
        {
            verdict.check(
                false,
                format!("stream {index}: per-version counts do not sum to the totals"),
            );
        }
    }
    let requests = summary.requests();
    verdict.check(
        verdict.failures.is_empty(),
        format!(
            "{requests} planned arrivals routed exactly once over {} streams; per-version counts sum to the totals",
            summary.streams.len()
        ),
    );

    let mut wrong_final = Vec::new();
    for (index, (spec, report)) in scenario.strategies.iter().zip(&summary.reports).enumerate() {
        if !report.is_finished() || report.succeeded() != spec.expect_success {
            wrong_final.push(format!(
                "{index} ({}, expected {})",
                report.summary(),
                if spec.expect_success {
                    "success"
                } else {
                    "rollback"
                }
            ));
        }
    }
    let expected_rollbacks = scenario
        .strategies
        .iter()
        .filter(|s| !s.expect_success)
        .count();
    verdict.check(
        wrong_final.is_empty(),
        format!(
            "{} strategies reach their expected final state ({expected_rollbacks} roll back){}",
            scenario.strategies.len(),
            if wrong_final.is_empty() {
                String::new()
            } else {
                format!(": wrong: {}", wrong_final.join("; "))
            }
        ),
    );

    for pool in share_pools(scenario, summary, steps) {
        if pool.requests < scenario.min_share_pool {
            verdict.notes.push(format!(
                "skip {} (only {} requests)",
                pool.name, pool.requests
            ));
            continue;
        }
        let observed = pool.observed as f64 / pool.requests as f64;
        verdict.check(
            (observed - pool.configured).abs() <= SHARE_TOLERANCE,
            format!(
                "{}: observed {:.3}% vs configured {:.3}% over {} requests",
                pool.name,
                observed * 100.0,
                pool.configured * 100.0,
                pool.requests
            ),
        );
    }

    let digest = summary.digest();
    verdict.check(
        digest == one_shot_digest,
        format!(
            "stepped run digest {digest:016x} equals one-shot run digest {one_shot_digest:016x}"
        ),
    );
    verdict
}

/// Observed against configured traffic for one share, pooled over every
/// state window (and stream) that configures it.
#[derive(Debug)]
struct SharePool {
    name: String,
    configured: f64,
    requests: u64,
    observed: u64,
}

/// Pools each state window's traffic by the share its routing rules
/// configure: the split share of every version and the dark-launch
/// duplication share of the source version's traffic.
fn share_pools(scenario: &Scenario, summary: &RunSummary, steps: &[StepCounts]) -> Vec<SharePool> {
    let mut pools: BTreeMap<String, SharePool> = BTreeMap::new();
    let mut add = |name: String, configured: f64, requests: u64, observed: u64| {
        let pool = pools.entry(name.clone()).or_insert(SharePool {
            name,
            configured,
            requests: 0,
            observed: 0,
        });
        pool.requests += requests;
        pool.observed += observed;
    };
    for (index, spec) in scenario.streams.iter().enumerate() {
        let service = spec.profile.service();
        let Some((strategy, report)) =
            scenario
                .strategies
                .iter()
                .zip(&summary.reports)
                .find(|(s, _)| {
                    s.strategy
                        .automaton()
                        .states()
                        .values()
                        .any(|state| state.routing().iter().any(|r| r.service() == service))
                })
        else {
            continue;
        };
        let history = &report.state_history;
        for (k, &(state, entered)) in history.iter().enumerate() {
            let next = history.get(k + 1).map_or(scenario.traffic_end, |&(_, at)| {
                at.min(scenario.traffic_end)
            });
            let (Some(first), Some(last)) = (
                steps.iter().find(|s| s.at >= entered + SHARE_MARGIN),
                steps.iter().rev().find(|s| s.at + SHARE_MARGIN <= next),
            ) else {
                continue;
            };
            if last.at <= first.at {
                continue;
            }
            let (req_0, per_0, shadow_0) = &first.streams[index];
            let (req_1, per_1, shadow_1) = &last.streams[index];
            let delta = |version: VersionId| {
                per_1.get(&version).copied().unwrap_or(0)
                    - per_0.get(&version).copied().unwrap_or(0)
            };
            let state_def = strategy
                .strategy
                .automaton()
                .state(state)
                .expect("history names known states");
            for rule in state_def
                .routing()
                .iter()
                .filter(|r| r.service() == service)
            {
                match rule {
                    RoutingRule::Split { split, .. } => {
                        let shape: Vec<String> = split
                            .shares()
                            .iter()
                            .map(|(_, share)| format!("{}", share.value()))
                            .collect();
                        for (position, (version, share)) in split.shares().iter().enumerate() {
                            add(
                                format!("split [{}] position {position}", shape.join("/")),
                                share.fraction(),
                                req_1 - req_0,
                                delta(*version),
                            );
                        }
                    }
                    RoutingRule::Shadow { route, .. } => add(
                        format!("shadow {}%", route.percentage.value()),
                        route.percentage.fraction(),
                        delta(route.source),
                        shadow_1 - shadow_0,
                    ),
                }
            }
        }
    }
    pools.into_values().collect()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! Every workload at a small size: its correctness checks, the traced
//! replay's fidelity, and the digest's dependence on the seed alone.

use bifrost_perfbench::workloads::{Scale, Workload};
use bifrost_perfbench::{measure, traced, Options, Report};

fn options(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        scale: Scale::Small,
        trace_dir: None,
    }
}

fn assert_correct(report: &Report) {
    assert!(
        report.correct(),
        "failed {} of {} runs:\n{}",
        report.failed,
        report.attempted,
        report.lines.join("\n")
    );
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} reported"))
        .value
}

#[test]
fn every_workload_passes_its_checks_and_reports_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let report = measure(&options(workload, 3));
        assert_correct(&report);
        for line in [
            "planned arrivals routed exactly once",
            "reach their expected final state",
            "equals one-shot run digest",
        ] {
            assert!(
                report
                    .lines
                    .iter()
                    .any(|l| l.starts_with("ok") && l.contains(line)),
                "{}: no passing check '{line}' in\n{}",
                workload.name(),
                report.lines.join("\n")
            );
        }
        assert!(
            report
                .lines
                .iter()
                .any(|l| l.starts_with("ok") && l.contains("configured")),
            "{}: no share was checked",
            workload.name()
        );
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "run_s",
                "requests_per_s",
                "checks_per_s",
                "step_ms_p50",
                "step_ms_p90",
                "peak_rss_mb"
            ]
        );
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let json = report.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn traced_replay_matches_the_engine_run_on_every_workload() {
    for workload in Workload::ALL {
        let report = traced(&options(workload, 5));
        assert_correct(&report);
        assert_eq!(report.metrics.len(), 28);
        assert!(metric(&report, "workload.arrivals") > 0.0);
        assert!(metric(&report, "proxy.route_many_ns_per_request") > 0.0);
        assert!(metric(&report, "checks.executed") > 0.0);
        assert!(metric(&report, "trace.attributed_share") > 0.0);
    }
}

#[test]
fn queued_dispatch_happens_only_where_the_workload_queues() {
    let bulk = traced(&options(Workload::BulkCanaryDark, 1));
    assert_eq!(metric(&bulk, "backends.dispatch_ns"), 0.0);
    let long = traced(&options(Workload::LongQueuedCanary, 1));
    assert!(metric(&long, "backends.dispatch_ns") > 0.0);
    assert!(metric(&long, "backends.shed_ratio") > 0.0);
}

#[test]
fn digest_depends_on_the_seed_alone() {
    for workload in Workload::ALL {
        let first = measure(&options(workload, 11));
        let again = measure(&options(workload, 11));
        let other = measure(&options(workload, 12));
        assert_correct(&first);
        assert_eq!(first.digest, again.digest, "{}", workload.name());
        assert_ne!(first.digest, other.digest, "{}", workload.name());
    }
}

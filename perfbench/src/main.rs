//! `bifrost-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints what it checked, then one JSON line with the metrics. Exits 0
//! when every run passed its correctness checks, 1 when one failed, 2 on
//! a usage error.

use bifrost_perfbench::workloads::{Scale, Workload};
use bifrost_perfbench::{measure, traced, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: bifrost-perfbench --workload <bulk_canary_dark|long_queued_canary|control_plane_fanout> --seed <n> --seconds <n> --trace <0|1>";

/// Directory, relative to the working directory, the traced run writes
/// its spans to.
const TRACE_DIR: &str = ".bench_trace";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
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
    Ok((
        Options {
            workload,
            seed,
            seconds,
            scale: Scale::Full,
            trace_dir: Some(PathBuf::from(TRACE_DIR)),
        },
        trace,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (options, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if trace {
        traced(&options)
    } else {
        measure(&options)
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

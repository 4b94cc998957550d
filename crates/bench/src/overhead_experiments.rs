//! Figure 6 and Table 1: the end-user overhead experiment.

use bifrost_casestudy::{OverheadExperiment, OverheadRun, Variant};
use bifrost_core::seed::Seed;
use bifrost_metrics::SummaryStats;

/// One variant's Figure 6 series plus its per-phase means.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Series {
    /// Which variant the series belongs to.
    pub variant: Variant,
    /// The 3-second moving-average `(elapsed seconds, response time ms)`
    /// series.
    pub series: Vec<(f64, f64)>,
    /// Per-phase mean response time in milliseconds.
    pub phase_means: Vec<(String, f64)>,
}

/// One row group of Table 1: the summary statistics of one phase under one
/// variant.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// The release phase.
    pub phase: String,
    /// The deployment variant.
    pub variant: Variant,
    /// mean/min/max/sd/median of response times in milliseconds.
    pub stats: SummaryStats,
}

/// Figure 6: the response-time timeline of all three variants.
pub mod fig6 {
    use super::*;

    /// Runs the experiment (compressed or paper-length) and returns one
    /// series per variant.
    pub fn run(quick: bool) -> Vec<Fig6Series> {
        let experiment = experiment(quick);
        experiment
            .run_all()
            .into_iter()
            .map(|run| to_series(&run))
            .collect()
    }

    /// The seeded variant used by the multi-trial runner: the whole
    /// workload (arrival process, latency jitter) derives from `seed`.
    pub fn run_seeded(quick: bool, seed: Seed) -> Vec<Fig6Series> {
        experiment(quick)
            .with_seed(seed.value())
            .run_all()
            .into_iter()
            .map(|run| to_series(&run))
            .collect()
    }

    /// Converts one run into its Figure 6 series.
    pub fn to_series(run: &OverheadRun) -> Fig6Series {
        let phase_means = run
            .windows
            .iter()
            .filter_map(|w| run.phase_mean(&w.name).map(|m| (w.name.clone(), m)))
            .collect();
        Fig6Series {
            variant: run.variant,
            series: run.moving_average(),
            phase_means,
        }
    }

    pub(super) fn experiment(quick: bool) -> OverheadExperiment {
        if quick {
            OverheadExperiment::compressed()
        } else {
            OverheadExperiment::paper()
        }
    }
}

/// Table 1: per-phase summary statistics for every variant.
pub mod table1 {
    use super::*;

    /// Runs the experiment and returns one row per (phase, variant) pair, in
    /// phase-major order like the paper's table.
    pub fn run(quick: bool) -> Vec<Table1Row> {
        let experiment = fig6::experiment(quick);
        let runs = experiment.run_all();
        rows_from_runs(&runs)
    }

    /// Builds the table rows from already-executed runs.
    pub fn rows_from_runs(runs: &[OverheadRun]) -> Vec<Table1Row> {
        let mut rows = Vec::new();
        let Some(first) = runs.first() else {
            return rows;
        };
        for window in &first.windows {
            for run in runs {
                if let Some(stats) = run
                    .recorder
                    .summary(run.windows.iter().find(|w| w.name == window.name))
                {
                    rows.push(Table1Row {
                        phase: window.name.clone(),
                        variant: run.variant,
                        stats,
                    });
                }
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_and_table1_reproduce_the_papers_shape() {
        let series = fig6::run(true);
        assert_eq!(series.len(), 3);
        let get = |variant: Variant| series.iter().find(|s| s.variant == variant).unwrap();
        let baseline = get(Variant::Baseline);
        let inactive = get(Variant::Inactive);
        let active = get(Variant::Active);
        assert!(!baseline.series.is_empty());

        // Whole-run overhead of deploying Bifrost proxies is single-digit ms.
        let mean =
            |s: &Fig6Series| s.series.iter().map(|(_, v)| *v).sum::<f64>() / s.series.len() as f64;
        let overhead = mean(inactive) - mean(baseline);
        assert!(overhead > 2.0 && overhead < 15.0, "overhead {overhead}");

        // Within the active run, the dark launch is the most expensive phase
        // and the A/B phase is cheaper than the dark launch.
        let phase_mean = |s: &Fig6Series, name: &str| {
            s.phase_means
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, m)| *m)
                .unwrap()
        };
        assert!(phase_mean(active, "Dark Launch") > phase_mean(active, "Canary"));
        assert!(phase_mean(active, "A/B Test") < phase_mean(active, "Dark Launch"));

        // Table 1 has one row per phase and variant, with coherent stats.
        let runs = fig6::experiment(true).run_all();
        let rows = table1::rows_from_runs(&runs);
        assert_eq!(rows.len(), 12);
        for row in &rows {
            assert!(row.stats.min <= row.stats.mean && row.stats.mean <= row.stats.max);
            assert!(row.stats.sd >= 0.0);
        }
        assert!(table1::rows_from_runs(&[]).is_empty());
    }
}

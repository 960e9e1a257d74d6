//! Quickstart: install and run the full DCPerf-RS suite at smoke scale,
//! then print per-benchmark scores and the overall geometric-mean score.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dcperf::core::{RunConfig, Scale, Suite};
use dcperf::telemetry::Phase;
use dcperf::workloads::{default_baselines, register_all};

fn main() -> Result<(), dcperf::core::Error> {
    let mut suite = Suite::new();
    register_all(&mut suite);

    // Smoke scale finishes in a couple of minutes on a laptop; switch to
    // Scale::Standard or Scale::Production for real measurements.
    let config = RunConfig {
        scale: Scale::SmokeTest,
        output_dir: Some(std::env::temp_dir().join("dcperf-quickstart")),
        ..RunConfig::new()
    };

    println!(
        "DCPerf-RS quickstart — {} benchmarks registered",
        suite.len()
    );
    println!(
        "running at {:?} scale on {} threads\n",
        config.scale,
        config.effective_threads()
    );

    let summary = suite.run_all(&config)?;
    let baselines = default_baselines();
    for report in summary.reports() {
        // The scored metric is the one its baseline names.
        let metric = baselines
            .iter()
            .find(|(name, _, _)| *name == report.benchmark)
            .map_or("", |(_, metric, _)| *metric);
        let measure = report.telemetry.phase(&report.benchmark, Phase::Measure);
        println!(
            "{:<24} {:>14.1} {:<22} {:>6.2}s measured",
            report.benchmark,
            report.metric_f64(metric).unwrap_or(0.0),
            metric,
            measure.map_or(0.0, |p| p.total_ns as f64 / 1e9)
        );
    }
    println!("\n{}", summary.render_table());
    if let Some(dir) = &config.output_dir {
        println!("JSON reports written to {}", dir.display());
    }
    Ok(())
}

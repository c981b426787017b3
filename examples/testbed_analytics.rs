//! Testbed analytics: spin up the Fig. 6 geo-distributed testbed, replicate
//! time-partitioned mobile-app-usage datasets with `Appro-G`, stream
//! queries through the discrete-event simulator, and print both the
//! measured QoS outcome and a real analytics answer — with the §2.4
//! consistency mechanism turned on.
//!
//! ```text
//! cargo run --release -p edgerep-exp --example testbed_analytics
//! ```

use edgerep_core::appro::ApproG;
use edgerep_core::popularity::Popularity;
use edgerep_testbed::analytics::AnalyticsResult;
use edgerep_testbed::{
    build_testbed_instance, try_run_testbed_with_plan, ConsistencyConfig, FaultPlan, SimConfig,
    TestbedConfig,
};

fn main() {
    let cfg = TestbedConfig::default();
    let world = build_testbed_instance(&cfg, 2024);
    println!(
        "testbed: {} DC VMs + {} cloudlet VMs, {} datasets from a {}-day trace of {} users\n",
        world.instance.cloud().data_center_count(),
        world.instance.cloud().cloudlet_count(),
        world.instance.datasets().len(),
        cfg.trace.days,
        cfg.trace.users,
    );

    // Aggressive data growth so the §2.4 consistency mechanism visibly
    // fires within the short query horizon of this example.
    let sim = SimConfig {
        consistency: Some(ConsistencyConfig {
            growth_gb_per_hour: 20.0,
            threshold: 0.05,
            check_interval_s: 15.0,
        }),
        ..Default::default()
    };

    for report in [
        try_run_testbed_with_plan(&ApproG::default(), &world, &sim, &FaultPlan::empty())
            .expect("controller plans validate"),
        try_run_testbed_with_plan(&Popularity::general(), &world, &sim, &FaultPlan::empty())
            .expect("controller plans validate"),
    ] {
        println!("=== {} ===", report.algorithm);
        println!(
            "planned: {:>6.1} GB over {:>2} queries | measured: {:>6.1} GB over {:>2} of {} (throughput {:.1}%)",
            report.planned_volume,
            report.planned_admitted,
            report.measured_volume,
            report.measured_admitted,
            report.total_queries,
            report.measured_throughput * 100.0
        );
        println!(
            "response: mean {:.2}s, worst {:.2}s | replication {:.1} GB (slowest transfer {:.1}s) | consistency {:.2} GB in {} rounds",
            report.mean_response_s,
            report.max_response_s,
            report.replication_gb,
            report.replication_time_s,
            report.consistency_gb,
            report.consistency_rounds
        );
        // Show one real analytics answer.
        if let Some((q, answer)) = report.answers.first() {
            match answer {
                AnalyticsResult::TopApps(pairs) => {
                    let top: Vec<String> = pairs
                        .iter()
                        .take(3)
                        .map(|(app, dur)| format!("app{app} ({dur}s)"))
                        .collect();
                    println!("sample answer for {q}: top apps = [{}]", top.join(", "));
                }
                AnalyticsResult::UsageByHour(hist) => {
                    let peak = hist
                        .iter()
                        .enumerate()
                        .max_by_key(|(_, &v)| v)
                        .map(|(h, _)| h)
                        .unwrap_or(0);
                    println!("sample answer for {q}: peak usage hour = {peak}:00");
                }
                AnalyticsResult::UserPattern {
                    sessions,
                    total_duration_s,
                    distinct_apps,
                } => println!(
                    "sample answer for {q}: {sessions} sessions, {total_duration_s}s over {distinct_apps} apps"
                ),
            }
        }
        println!();
    }
}

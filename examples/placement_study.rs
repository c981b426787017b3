//! Placement study: run the full algorithm panel of the paper — `Appro-G`,
//! `Greedy-G`, `Graph-G`, `Popularity-G` — on the paper's default workload
//! (6 DCs, 24 cloudlets, 2 switches, §4.1 parameters) and print a
//! side-by-side comparison over several random topologies.
//!
//! ```text
//! cargo run --release -p edgerep-exp --example placement_study [seeds]
//! ```

use edgerep_core::{
    appro::ApproG, graphpart::GraphPartition, greedy::Greedy, popularity::Popularity,
    BoxedAlgorithm,
};
use edgerep_exp::stats::Summary;
use edgerep_model::Metrics;
use edgerep_workload::{generate_instance, WorkloadParams};

fn main() {
    let seeds: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);
    let params = WorkloadParams::default();
    let panel: Vec<BoxedAlgorithm> = vec![
        Box::new(ApproG::default()),
        Box::new(Greedy::general()),
        Box::new(GraphPartition::general()),
        Box::new(Popularity::general()),
    ];

    println!(
        "paper-default workload: {} DCs, {} cloudlets, {} switches, K = {}, {} topologies\n",
        params.data_centers, params.cloudlets, params.switches, params.max_replicas, seeds
    );

    let mut volumes: Vec<Vec<f64>> = vec![Vec::new(); panel.len()];
    let mut throughputs: Vec<Vec<f64>> = vec![Vec::new(); panel.len()];
    let mut replicas: Vec<Vec<f64>> = vec![Vec::new(); panel.len()];
    let mut delays: Vec<Vec<f64>> = vec![Vec::new(); panel.len()];
    for seed in 0..seeds as u64 {
        let inst = generate_instance(&params, seed);
        for (i, alg) in panel.iter().enumerate() {
            let sol = alg.solve(&inst);
            sol.validate(&inst).expect("feasible");
            let m = Metrics::of(&inst, &sol);
            volumes[i].push(m.admitted_volume);
            throughputs[i].push(m.throughput);
            replicas[i].push(m.replicas_placed as f64);
            delays[i].push(m.mean_admitted_delay);
        }
    }

    println!(
        "{:>14} | {:>18} | {:>15} | {:>10} | {:>12}",
        "algorithm", "volume [GB]", "throughput", "replicas", "mean delay"
    );
    println!("{}", "-".repeat(84));
    let appro_vol = Summary::of(&volumes[0]).mean;
    for (i, alg) in panel.iter().enumerate() {
        let v = Summary::of(&volumes[i]);
        let t = Summary::of(&throughputs[i]);
        let r = Summary::of(&replicas[i]);
        let d = Summary::of(&delays[i]);
        println!(
            "{:>14} | {:>18} | {:>9.3} ± {:.3} | {:>10.1} | {:>10.3}s",
            alg.name(),
            v.display_ci(2),
            t.mean,
            t.ci95,
            r.mean,
            d.mean,
        );
        if i > 0 && v.mean > 0.0 {
            println!(
                "{:>14} |   (Appro-G admits {:.1}x this volume)",
                "",
                appro_vol / v.mean
            );
        }
    }
}

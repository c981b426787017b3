//! Fault tolerance: kill the busiest cloudlet VM in the testbed and watch
//! replication (`K > 1`) absorb the failure through replica failover.
//!
//! ```text
//! cargo run --release -p edgerep-exp --example fault_tolerance
//! ```

use edgerep_core::appro::ApproG;
use edgerep_model::ComputeNodeId;
use edgerep_testbed::{
    build_testbed_instance, try_run_testbed_with_plan, FaultPlan, NodeFailure, SimConfig,
    TestbedConfig,
};

fn main() {
    println!(
        "{:>3} | {:>22} | {:>26} | {:>9} | {:>10}",
        "K", "fault-free volume [GB]", "busiest-VM-down volume [GB]", "failovers", "lost"
    );
    println!("{}", "-".repeat(86));
    for k in [1usize, 2, 3, 4, 5] {
        let cfg = TestbedConfig::default().with_max_replicas(k);
        let (mut clean_v, mut faulty_v) = (0.0, 0.0);
        let (mut failovers, mut lost) = (0usize, 0usize);
        let seeds = 6u64;
        for seed in 0..seeds {
            let world = build_testbed_instance(&cfg, seed);
            let sim = SimConfig {
                seed,
                ..Default::default()
            };
            let clean =
                try_run_testbed_with_plan(&ApproG::default(), &world, &sim, &FaultPlan::empty())
                    .expect("Appro-G plans validate");
            // The adversarial failure: whichever cloudlet the plan loads
            // most heavily goes down before the first query arrives.
            let loads = clean.plan.node_loads(&world.instance);
            let busiest = loads
                .iter()
                .enumerate()
                .skip(4) // skip the DC VMs
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                .map(|(i, _)| ComputeNodeId(i as u32))
                .expect("cloudlets exist");
            let fault = FaultPlan::from_failures(&[NodeFailure {
                node: busiest,
                at_s: 0.0,
            }]);
            let faulty = try_run_testbed_with_plan(&ApproG::default(), &world, &sim, &fault)
                .expect("the busiest cloudlet is a valid fault target");
            clean_v += clean.measured_volume;
            faulty_v += faulty.measured_volume;
            failovers += faulty.failovers;
            lost += faulty.queries_lost_to_faults;
        }
        let n = seeds as f64;
        println!(
            "{:>3} | {:>22.1} | {:>26.1} | {:>9} | {:>10}",
            k,
            clean_v / n,
            faulty_v / n,
            failovers,
            lost
        );
    }
    println!(
        "\nReading: at K = 1 the failed VM's datasets are simply gone; with more\n\
         replicas, arriving queries fail over to surviving copies and the gap closes."
    );
}

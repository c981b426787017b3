//! Extension experiments beyond the paper's figures.
//!
//! * [`ext_net_benefit`] — the paper motivates the replica budget `K` with
//!   the cost of keeping replicas consistent but never quantifies the
//!   trade-off. This driver sweeps `K` on the testbed with dynamic data
//!   (§2.4 updates firing) and reports the *net benefit*
//!   `admitted volume − γ · consistency traffic`, exposing the optimal
//!   budget per consistency-cost weight `γ`.
//! * [`ext_online`] — compares the offline `Appro-G` (all queries known)
//!   with the online controller (`Online-Appro`, arrivals committed one at
//!   a time) across admission thresholds: the price the system pays for
//!   not knowing the future.

use edgerep_core::appro::ApproG;
use edgerep_core::graphpart::GraphPartition;
use edgerep_core::greedy::Greedy;
use edgerep_core::online::{OnlineAppro, OnlineConfig};
use edgerep_core::refine::Refined;
use edgerep_core::{BoxedAlgorithm, PlacementAlgorithm};
use edgerep_forecast::ForecasterKind;
use edgerep_model::RedundancyScheme;
use edgerep_shard::{ShardConfig, ShardedSolver};
use edgerep_testbed::rolling::{run_rolling, ReplanPolicy, RollingConfig};
use edgerep_testbed::{
    render_slo_csv, try_run_testbed_with_plan, ChunkedConfig, ConsistencyConfig, FaultConfig,
    FaultPlan, NodeFailure, SimConfig, SloSample, TestbedConfig, TransferModel,
};
use edgerep_workload::params::TopologyModel;
use edgerep_workload::{generate_instance, WorkloadParams};

use std::time::Instant;

use crate::figures::{
    simulation_figure, FigureData, FigureRow, Metric, Series, PAPER_METRICS, VOLUME,
};
use crate::parallel::par_map;
use crate::runner::run_grid;

/// Every extension figure id — the `repro ext` set.
pub const EXT_IDS: [&str; 10] = [
    "ext-online",
    "ext-netbenefit",
    "ext-refine",
    "ext-topology",
    "ext-faults",
    "ext-rolling",
    "ext-availability",
    "ext-forecast",
    "ext-ec",
    "ext-shard",
];

/// Consistency-cost weights γ reported by [`ext_net_benefit`].
pub const GAMMA_VALUES: [f64; 3] = [0.0, 0.5, 2.0];

/// [`ext_net_benefit`]'s metrics: net benefit and the γ-independent
/// consistency cost per admitted GB.
const NET_BENEFIT_METRICS: [Metric; 2] = [
    Metric::new(
        "net_benefit",
        "net benefit (volume − γ · consistency traffic)",
        "GB",
        2,
    ),
    Metric::new(
        "consistency_per_gb",
        "consistency traffic per admitted GB",
        "GB/GB",
        3,
    ),
];

/// Fraction of planned-admitted queries not lost to faults.
const AVAILABILITY: Metric = Metric::new(
    "availability",
    "availability: planned-admitted queries not lost to faults",
    "fraction",
    3,
);

/// The availability figures' metrics: measured volume and availability.
const AVAILABILITY_METRICS: [Metric; 2] = [VOLUME, AVAILABILITY];

/// Net-benefit sweep over `K` on the dynamic testbed.
///
/// Returns one figure whose series are the γ values, reporting
/// `net(γ) = measured volume − γ · consistency GB` and the consistency GB
/// per admitted GB per `K`.
pub fn ext_net_benefit(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    let ks = [1usize, 2, 3, 4, 5, 6, 7];
    // One flat K × seed task list (105 cells at the paper's 15 seeds)
    // instead of 7 sequential 15-wide batches. Volume and consistency
    // traffic per cell; rows come back in K-major order.
    let per_k: Vec<Vec<(f64, f64)>> = run_grid(ks.len(), seeds, |ki, seed| {
        let seed = seed as u64;
        let cfg = TestbedConfig::default().with_max_replicas(ks[ki]);
        let world = edgerep_testbed::build_testbed_instance(&cfg, seed);
        let sim = SimConfig {
            seed,
            arrival_rate_per_s: 0.2,
            consistency: Some(ConsistencyConfig {
                growth_gb_per_hour: 30.0,
                threshold: 0.05,
                check_interval_s: 20.0,
            }),
            ..Default::default()
        };
        let report =
            try_run_testbed_with_plan(&ApproG::default(), &world, &sim, &FaultPlan::empty())
                .expect("Appro-G plans validate");
        (report.measured_volume, report.consistency_gb)
    });
    let rows = ks
        .iter()
        .zip(&per_k)
        .map(|(&k, samples)| {
            let series = GAMMA_VALUES
                .iter()
                .map(|&gamma| {
                    let per_seed = samples.iter().map(|&(vol, cons)| {
                        [vol - gamma * cons, if vol > 0.0 { cons / vol } else { 0.0 }]
                    });
                    Series::of(format!("γ={gamma}"), per_seed)
                })
                .collect();
            FigureRow {
                x: k as f64,
                series,
            }
        })
        .collect();
    FigureData::new(
        "ext-netbenefit",
        "Extension: net benefit of the replica budget under §2.4 consistency updates \
         (one series per consistency-cost weight γ)",
        "K",
        &NET_BENEFIT_METRICS,
        rows,
    )
}

/// Online-vs-offline sweep over the admission threshold.
pub fn ext_online(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    let thresholds = [0.25f64, 0.5, 1.0, 2.0, f64::INFINITY];
    let params = WorkloadParams::default();
    // The instance at a given seed is threshold-independent, so each is
    // built once up front and every threshold competes on it.
    let seed_ids: Vec<u64> = (0..seeds as u64).collect();
    let instances = par_map(&seed_ids, |&seed| generate_instance(&params, seed));
    let per_thr: Vec<Vec<[[f64; 2]; 2]>> = run_grid(thresholds.len(), seeds, |ti, seed| {
        let inst = &instances[seed];
        let online = OnlineAppro::with_config(OnlineConfig {
            admission_threshold: thresholds[ti],
            ..Default::default()
        })
        .run(inst);
        let offline = ApproG::default().solve(inst);
        [
            [
                online.solution.admitted_volume(inst),
                online.solution.throughput(inst),
            ],
            [offline.admitted_volume(inst), offline.throughput(inst)],
        ]
    });
    let rows = thresholds
        .iter()
        .zip(&per_thr)
        .map(|(&thr, samples)| FigureRow {
            x: if thr.is_finite() { thr } else { 99.0 },
            series: Series::per_arm(["Online-Appro", "Appro-G (offline)"], samples),
        })
        .collect();
    FigureData::new(
        "ext-online",
        "Extension: online admission control vs the offline algorithm \
         (x = admission threshold; 99 = unbounded)",
        "threshold",
        &PAPER_METRICS,
        rows,
    )
}

/// Refinement ablation: each simulation algorithm with and without the
/// local-search post-pass, at the paper-default configuration. The x axis
/// is a single point; the series are each base algorithm followed by its
/// refined variant.
pub fn ext_refine(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    simulation_figure(
        "ext-refine",
        "Extension: local-search refinement on top of each algorithm \
         (paper-default workload; one row, base vs +refine series)",
        "-",
        &[0],
        seeds,
        |_| {
            let panel: Vec<BoxedAlgorithm> = vec![
                Box::new(ApproG::default()),
                Box::new(Refined::new(ApproG::default(), "Appro-G+refine")),
                Box::new(Greedy::general()),
                Box::new(Refined::new(Greedy::general(), "Greedy-G+refine")),
                Box::new(GraphPartition::general()),
                Box::new(Refined::new(GraphPartition::general(), "Graph-G+refine")),
            ];
            (WorkloadParams::default(), panel)
        },
    )
}

/// Topology-robustness check: the Fig. 3 panel on the paper's flat
/// GT-ITM model vs the transit-stub hierarchy (x = 0 flat, x = 1
/// transit-stub). The paper's ordering should hold on both.
pub fn ext_topology(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    let topologies = [TopologyModel::FlatRandom, TopologyModel::TransitStub];
    simulation_figure(
        "ext-topology",
        "Extension: Fig. 3 panel across topology families \
         (x = 0 flat GT-ITM, x = 1 transit-stub)",
        "topology",
        &[0, 1],
        seeds,
        |i| {
            let params = WorkloadParams {
                topology: topologies[i],
                ..Default::default()
            };
            (params, edgerep_core::simulation_panel())
        },
    )
}

/// Fault-tolerance sweep: the busiest cloudlet VM fails at t = 0; measured
/// volume and throughput vs `K` quantify how replication buys
/// availability. Series: fault-free vs faulty run of `Appro-G`.
pub fn ext_faults(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    let ks = [1usize, 2, 3, 4, 5];
    // One flat K × seed grid; each cell runs the clean and the faulty
    // arm back to back so both see the same world.
    let per_k: Vec<Vec<[[f64; 2]; 2]>> = run_grid(ks.len(), seeds, |ki, seed| {
        let seed = seed as u64;
        let cfg = TestbedConfig::default().with_max_replicas(ks[ki]);
        let world = edgerep_testbed::build_testbed_instance(&cfg, seed);
        let sim = SimConfig {
            seed,
            ..Default::default()
        };
        let clean =
            try_run_testbed_with_plan(&ApproG::default(), &world, &sim, &FaultPlan::empty())
                .expect("Appro-G plans validate");
        // Kill the cloudlet the clean plan leans on hardest.
        let loads = clean.plan.node_loads(&world.instance);
        let busiest = loads
            .iter()
            .enumerate()
            .skip(4) // the four DC VMs
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
            .map(|(i, _)| edgerep_model::ComputeNodeId(i as u32))
            .expect("testbed has cloudlets");
        let fault = FaultPlan::from_failures(&[NodeFailure {
            node: busiest,
            at_s: 0.0,
        }]);
        let faulty = try_run_testbed_with_plan(&ApproG::default(), &world, &sim, &fault)
            .expect("the busiest cloudlet is a valid fault target");
        [
            [clean.measured_volume, clean.measured_throughput],
            [faulty.measured_volume, faulty.measured_throughput],
        ]
    });
    let rows = ks
        .iter()
        .zip(&per_k)
        .map(|(&k, samples)| FigureRow {
            x: k as f64,
            series: Series::per_arm(
                ["Appro-G (fault-free)", "Appro-G (busiest VM down)"],
                samples,
            ),
        })
        .collect();
    FigureData::new(
        "ext-faults",
        "Extension: availability under a busiest-VM failure \
         (measured, failover enabled; more replicas = smaller gap)",
        "K",
        &PAPER_METRICS,
        rows,
    )
}

/// The MTBF/MTTR profile [`ext_availability`] sweeps: heavy transient
/// trouble (each fault-prone node spends roughly 40% of the run down)
/// so repair has something to repair within the testbed's ~150 s query
/// horizon.
fn availability_fault_profile(fraction: f64, seed: u64) -> FaultConfig {
    FaultConfig {
        node_mtbf_s: 40.0,
        node_mttr_s: 30.0,
        ..Default::default()
    }
    .with_node_fraction(fraction)
    .with_seed(seed)
}

/// The three transfer/repair arms every availability figure compares:
/// no repair, point-to-point repair, and chunked resumable multi-source
/// repair — two presets of one transfer engine. `(label, repair on,
/// chunked preset)`.
const AVAIL_ARMS: [(&str, bool, bool); 3] = [
    ("no-repair", false, false),
    ("repair", true, false),
    ("repair+chunked", true, true),
];

fn arm_transfer(chunked: bool) -> TransferModel {
    if chunked {
        TransferModel::Chunked(ChunkedConfig::default())
    } else {
        TransferModel::PointToPoint
    }
}

/// Measured volume and availability ([`AVAILABILITY_METRICS`]) of all
/// three [`AVAIL_ARMS`] for one (world, plan) cell.
/// Both presets share the engine's egress physics, so the arms differ
/// only in how they survive faults (with no faults they are
/// byte-identical — pinned in tests). The plain availability figure
/// keeps egress contention off; the storm figure turns it on so flows
/// queue long enough for correlated bursts to catch them mid-air.
fn availability_cells(
    world: &edgerep_testbed::TestbedWorld,
    plan: &FaultPlan,
    seed: u64,
    nic_contention: bool,
) -> [[f64; 2]; 3] {
    AVAIL_ARMS.map(|(_, repair, chunked)| {
        let sim = SimConfig {
            seed,
            repair,
            transfer: arm_transfer(chunked),
            nic_contention,
            ..Default::default()
        };
        let report = try_run_testbed_with_plan(&ApproG::default(), world, &sim, plan)
            .expect("generated fault plans validate");
        [report.measured_volume, report.availability]
    })
}

/// Blast-radius grouping of the Fig. 6 testbed for correlated storms:
/// each DC VM (nodes 0–3) is its own region; the 16 cloudlets form
/// four metro "racks" of four (nodes 4–7, 8–11, 12–15, 16–19).
fn testbed_storm_regions(nodes: usize) -> Vec<u32> {
    (0..nodes)
        .map(|i| {
            if i < 4 {
                i as u32
            } else {
                4 + ((i - 4) / 4) as u32
            }
        })
        .collect()
}

/// Runs `cell(x, world, seed)` over the whole x × row × seed cube as ONE
/// flat parallel task list, results x-major. A world depends only on
/// (row, seed): each is built once, up front and in parallel, so no cell
/// blocks waiting for another cell's world, and every x reuses it.
fn world_sweep<R: Send>(
    xs: usize,
    rows: usize,
    seeds: usize,
    cfg: impl Fn(usize) -> TestbedConfig + Sync,
    cell: impl Fn(usize, &edgerep_testbed::TestbedWorld, u64) -> R + Sync,
) -> Vec<R> {
    let keys: Vec<(usize, u64)> = (0..rows)
        .flat_map(|r| (0..seeds as u64).map(move |s| (r, s)))
        .collect();
    let worlds = par_map(&keys, |&(r, seed)| {
        edgerep_testbed::build_testbed_instance(&cfg(r), seed)
    });
    let tasks: Vec<(usize, usize)> = (0..xs)
        .flat_map(|x| (0..keys.len()).map(move |w| (x, w)))
        .collect();
    par_map(&tasks, |&(x, w)| cell(x, &worlds[w], keys[w].1))
}

/// One x point's (K × seed) availability cells as a series per (K, arm).
fn availability_series(ks: &[usize], seeds: usize, cells: &[[[f64; 2]; 3]]) -> Vec<Series> {
    ks.iter()
        .zip(cells.chunks(seeds))
        .flat_map(|(&k, samples)| {
            let names = AVAIL_ARMS.map(|(label, _, _)| format!("Appro-G K={k} {label}"));
            Series::per_arm(names, samples)
        })
        .collect()
}

/// Availability sweep: measured volume and availability — the fraction
/// of planned-admitted queries not lost to faults — vs the fraction of
/// fault-prone nodes, for K ∈ {1..4} with controller repair off and on. Faults are MTBF/MTTR transient outages from
/// [`FaultConfig`]; the same seeded plan is used for both repair arms,
/// so the on/off gap is pure repair benefit.
pub fn ext_availability(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    let fractions = [0.0f64, 0.1, 0.2, 0.4];
    let ks = [1usize, 2, 3, 4];
    // 240 cells at the paper's 15 seeds.
    let flat = world_sweep(
        fractions.len(),
        ks.len(),
        seeds,
        |ki| TestbedConfig::default().with_max_replicas(ks[ki]),
        |fi, world, seed| {
            let plan = availability_fault_profile(fractions[fi], seed)
                .generate(world.instance.cloud().compute_count());
            availability_cells(world, &plan, seed, false)
        },
    );
    let rows = fractions
        .iter()
        .zip(flat.chunks(ks.len() * seeds))
        .map(|(&x, cells)| FigureRow {
            x,
            series: availability_series(&ks, seeds, cells),
        })
        .collect();
    // Trajectory sidecar: one seed-0 run per repair arm at the harshest
    // fault fraction, sampled every 30 simulated seconds, so the figure
    // also shows availability dipping at each outage and recovering
    // under repair instead of only the endpoint scalar.
    let timeseries = {
        let seed = 0u64;
        let cfg = TestbedConfig::default().with_max_replicas(3);
        let world = edgerep_testbed::build_testbed_instance(&cfg, seed);
        let plan = availability_fault_profile(*fractions.last().expect("non-empty"), seed)
            .generate(world.instance.cloud().compute_count());
        let series: Vec<(String, Vec<SloSample>)> = AVAIL_ARMS
            .iter()
            .map(|&(label, repair, chunked)| {
                let sim = SimConfig {
                    seed,
                    repair,
                    transfer: arm_transfer(chunked),
                    nic_contention: false,
                    slo_sample_interval_s: Some(30.0),
                    ..Default::default()
                };
                let report = try_run_testbed_with_plan(&ApproG::default(), &world, &sim, &plan)
                    .expect("generated fault plans validate");
                (label.to_owned(), report.slo_series)
            })
            .collect();
        Some(render_slo_csv(&series))
    };
    FigureData {
        timeseries,
        ..FigureData::new(
            "ext-availability",
            "Extension: availability under transient MTBF/MTTR node faults \
             (no repair vs p2p repair vs chunked repair per K)",
            "fault fraction",
            &AVAILABILITY_METRICS,
            rows,
        )
    }
}

/// [`ext_availability`] under a user-supplied [`FaultPlan`] instead of
/// generated ones (`repro --fault-plan`): x = K, repair off vs on.
///
/// # Panics
/// Panics if the plan does not validate against the default Fig. 6
/// world (`TestbedConfig::default().compute_nodes()` compute nodes).
pub fn ext_availability_with_plan(seeds: usize, fault_plan: &FaultPlan) -> FigureData {
    assert!(seeds >= 1);
    let ks = [1usize, 2, 3, 4];
    // One flat K × seed grid; all three arms share the cell's world.
    let per_k: Vec<Vec<[[f64; 2]; 3]>> = run_grid(ks.len(), seeds, |ki, seed| {
        let seed = seed as u64;
        let cfg = TestbedConfig::default().with_max_replicas(ks[ki]);
        let world = edgerep_testbed::build_testbed_instance(&cfg, seed);
        availability_cells(&world, fault_plan, seed, false)
    });
    let rows = ks
        .iter()
        .zip(&per_k)
        .map(|(&k, samples)| FigureRow {
            x: k as f64,
            series: Series::per_arm(
                AVAIL_ARMS.map(|(label, _, _)| format!("Appro-G {label}")),
                samples,
            ),
        })
        .collect();
    FigureData::new(
        "ext-availability",
        "Extension: availability under a user-supplied fault plan \
         (x = K; no repair vs p2p repair vs chunked repair)",
        "K",
        &AVAILABILITY_METRICS,
        rows,
    )
}

/// The correlated failure-storm profile `repro ext-availability --storm`
/// sweeps: background MTBF noise on 30% of nodes (short transient
/// outages that park multi-chunk repairs and let them *resume*), plus
/// each storm taking 75% of one blast-radius region down within a 5 s
/// window and isolating the region's paths to the outside for an MTTR
/// that dwarfs the transfer retry budget — the *abandonment* path. One
/// run therefore exercises both ends of the chunked engine's
/// interruption spectrum.
fn availability_storm_profile(storms: usize, seed: u64) -> FaultConfig {
    FaultConfig {
        node_mtbf_s: 40.0,
        node_mttr_s: 30.0,
        ..Default::default()
    }
    .with_node_fraction(0.3)
    .with_storms(storms)
    .with_seed(seed)
}

/// Availability under correlated failure storms: x = storms per run,
/// K ∈ {1..4}, the three [`AVAIL_ARMS`] per K. Storms blast the Fig. 6
/// regions from [`testbed_storm_regions`], so a single event takes a
/// whole metro rack (or a DC VM) down and partitions it — unlike the
/// independent MTBF faults of [`ext_availability`], every in-flight
/// transfer touching the region dies at once. Cells run with NIC
/// contention enabled (unlike the plain figure) so flows are long
/// enough for bursts to catch them mid-air.
pub fn ext_availability_storm(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    let storm_counts = [0usize, 1, 2];
    let ks = [1usize, 2, 3, 4];
    let flat = world_sweep(
        storm_counts.len(),
        ks.len(),
        seeds,
        |ki| TestbedConfig::default().with_max_replicas(ks[ki]),
        |si, world, seed| {
            let nodes = world.instance.cloud().compute_count();
            let plan = availability_storm_profile(storm_counts[si], seed)
                .generate_with_regions(&testbed_storm_regions(nodes));
            availability_cells(world, &plan, seed, true)
        },
    );
    let rows = storm_counts
        .iter()
        .zip(flat.chunks(ks.len() * seeds))
        .map(|(&count, cells)| FigureRow {
            x: count as f64,
            series: availability_series(&ks, seeds, cells),
        })
        .collect();
    FigureData::new(
        "ext-availability",
        "Extension: availability under correlated region failure storms \
         (x = storms per run; no repair vs p2p repair vs chunked repair per K)",
        "storms",
        &AVAILABILITY_METRICS,
        rows,
    )
}

/// The redundancy arms [`ext_ec`] compares: the paper's `K = 3` full
/// replication vs three erasure-coded stripings with shrinking storage
/// overhead (3.0× vs 1.5×, 1.5×, 1.375×) and growing holder fan-out
/// (3 vs 3, 6, 11 slots). `(label, scheme)`.
fn ec_arms() -> [(&'static str, RedundancyScheme); 4] {
    [
        (
            "Replication(3)",
            RedundancyScheme::replication(3).expect("valid scheme"),
        ),
        (
            "EC(2,1)",
            RedundancyScheme::erasure(2, 1).expect("valid scheme"),
        ),
        (
            "EC(4,2)",
            RedundancyScheme::erasure(4, 2).expect("valid scheme"),
        ),
        (
            "EC(8,3)",
            RedundancyScheme::erasure(8, 3).expect("valid scheme"),
        ),
    ]
}

/// [`ext_ec`]'s metrics, in [`ec_cell`] order.
const EC_METRICS: [Metric; 6] = [
    VOLUME,
    AVAILABILITY,
    Metric::new("storage_gb", "storage footprint of the plan", "GB", 2),
    Metric::new("mean_response_s", "mean query response time", "s", 3),
    Metric::new("p95_response_s", "p95 query response time", "s", 3),
    Metric::new(
        "degraded_frac",
        "degraded reads per query",
        "reads/query",
        3,
    ),
];

/// Scrub cadence for the ext-ec cells: frequent enough that lost shards
/// are detected and rebuilt within the testbed's ~150 s query horizon.
const EC_SCRUB_INTERVAL_S: f64 = 20.0;

/// Shared ext-ec world: the default testbed, tilted so the
/// storage-for-fan-out tradeoff is actually load-bearing. Twice the
/// default query demand over half the datasets makes per-holder compute
/// the binding constraint, and with only `6 × K = 18` replica
/// placements over ~20 nodes, `Replication(3)` strands the compute of
/// every node that holds nothing — while a wide stripe's `k + m` slots
/// (11 for `EC(8,3)`) put a readable shard almost everywhere. Deadlines
/// are loosened so EC's shard-gather + decode overhead doesn't mask
/// that effect. Every arm shares the identical workload; only the
/// redundancy scheme differs.
fn ec_world_cfg(scheme: RedundancyScheme) -> TestbedConfig {
    TestbedConfig {
        query_count: 120,
        windows: 6,
        deadline_base: (2.0, 8.0),
        deadline_per_gb: (0.5, 1.5),
        ..TestbedConfig::default()
    }
    .with_redundancy(scheme)
}

/// One (scheme-world, fault-plan) ext-ec cell, one value per
/// [`EC_METRICS`] entry. Runs over the chunked engine (degraded
/// reads fan shard gathers out through it) with the Background-tier
/// shard scrubber on and controller repair off, so reconstruction
/// traffic is the scrubber's alone.
fn ec_cell(
    world: &edgerep_testbed::TestbedWorld,
    plan: &FaultPlan,
    seed: u64,
    nic_contention: bool,
) -> [f64; 6] {
    let sim = SimConfig {
        seed,
        scrub_interval_s: Some(EC_SCRUB_INTERVAL_S),
        transfer: TransferModel::Chunked(ChunkedConfig::default()),
        nic_contention,
        ..Default::default()
    };
    let r = try_run_testbed_with_plan(&ApproG::default(), world, &sim, plan)
        .expect("generated fault plans validate");
    let degraded = if r.total_queries > 0 {
        r.degraded_reads as f64 / r.total_queries as f64
    } else {
        0.0
    };
    [
        r.measured_volume,
        r.availability,
        r.storage_gb,
        r.mean_response_s,
        r.p95_response_s,
        degraded,
    ]
}

/// Folds the flat (x × scheme × seed) ext-ec cube into figure rows, one
/// series per scheme.
fn ec_rows(xs: &[f64], seeds: usize, flat: &[[f64; 6]]) -> Vec<FigureRow> {
    let arms = ec_arms();
    xs.iter()
        .zip(flat.chunks(arms.len() * seeds))
        .map(|(&x, x_cells)| FigureRow {
            x,
            series: arms
                .iter()
                .zip(x_cells.chunks(seeds))
                .map(|((label, _), samples)| Series::of(format!("Appro-G {label}"), samples))
                .collect(),
        })
        .collect()
}

/// Erasure-coding tradeoff sweep: admitted volume, storage GB, mean/p95
/// read delay, and availability for `Replication(3)` vs
/// `EC{(2,1),(4,2),(8,3)}` across MTBF/MTTR fault fractions. EC spends
/// decode CPU and shard-gather hops to buy back storage (a holder keeps
/// `|S|/k`, not `|S|`) and serving fan-out (`k + m` slots vs `K`);
/// under faults a dataset with `min_read ≤ live < placed` shards serves
/// *degraded* reads instead of losing queries, and the Background-tier
/// scrubber re-encodes lost shards from any `k` survivors.
pub fn ext_ec(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    let fractions = [0.0f64, 0.1, 0.2, 0.4];
    let arms = ec_arms();
    let flat = world_sweep(
        fractions.len(),
        arms.len(),
        seeds,
        |ai| ec_world_cfg(arms[ai].1),
        |fi, world, seed| {
            let plan = availability_fault_profile(fractions[fi], seed)
                .generate(world.instance.cloud().compute_count());
            ec_cell(world, &plan, seed, false)
        },
    );
    let rows = ec_rows(&fractions, seeds, &flat);
    // Trajectory sidecar: one seed-0 run per scheme at the harshest
    // fraction, sampled every 30 simulated seconds — availability dips at
    // each outage and recovers as the scrubber rebuilds shards.
    let timeseries = {
        let seed = 0u64;
        let series: Vec<(String, Vec<SloSample>)> = par_map(&arms, |&(label, scheme)| {
            let cfg = ec_world_cfg(scheme);
            let world = edgerep_testbed::build_testbed_instance(&cfg, seed);
            let plan = availability_fault_profile(*fractions.last().expect("non-empty"), seed)
                .generate(world.instance.cloud().compute_count());
            let sim = SimConfig {
                seed,
                scrub_interval_s: Some(EC_SCRUB_INTERVAL_S),
                transfer: TransferModel::Chunked(ChunkedConfig::default()),
                nic_contention: false,
                slo_sample_interval_s: Some(30.0),
                ..Default::default()
            };
            let report = try_run_testbed_with_plan(&ApproG::default(), &world, &sim, &plan)
                .expect("generated fault plans validate");
            (label.to_owned(), report.slo_series)
        });
        Some(render_slo_csv(&series))
    };
    FigureData {
        timeseries,
        ..FigureData::new(
            "ext-ec",
            "Extension: erasure coding vs replication under transient faults",
            "fault fraction",
            &EC_METRICS,
            rows,
        )
    }
}

/// [`ext_ec`] under correlated region failure storms (`repro ext-ec
/// --storm`): x = storms per run, same scheme arms and metrics,
/// NIC contention on so shard gathers and scrub rebuilds are long enough
/// for a storm to catch them mid-air. A storm takes a whole metro rack
/// down at once — the case where replication's three full copies can all
/// share a blast radius but a wide shard stripe cannot.
pub fn ext_ec_storm(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    let storm_counts = [0usize, 1, 2];
    let arms = ec_arms();
    let flat = world_sweep(
        storm_counts.len(),
        arms.len(),
        seeds,
        |ai| ec_world_cfg(arms[ai].1),
        |si, world, seed| {
            let nodes = world.instance.cloud().compute_count();
            let plan = availability_storm_profile(storm_counts[si], seed)
                .generate_with_regions(&testbed_storm_regions(nodes));
            ec_cell(world, &plan, seed, true)
        },
    );
    let xs: Vec<f64> = storm_counts.iter().map(|&c| c as f64).collect();
    let rows = ec_rows(&xs, seeds, &flat);
    FigureData::new(
        "ext-ec",
        "Extension: erasure coding vs replication under correlated region \
         failure storms (x = storms per run)",
        "storms",
        &EC_METRICS,
        rows,
    )
}

/// [`ext_rolling`]'s metrics: admitted volume and migration per epoch.
const ROLLING_METRICS: [Metric; 2] = [
    VOLUME,
    Metric::new(
        "migration_gb",
        "replicas newly materialised this epoch",
        "GB",
        2,
    ),
];

/// Rolling-operation sweep: admitted volume and migration GB per epoch
/// under a drifting query hotspot, static placement vs periodic
/// replanning.
pub fn ext_rolling(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    let epochs = 6usize;
    let seed_list: Vec<u64> = (0..seeds as u64).collect();
    // For each seed, run both policies once: `runs[seed][epoch][policy]`.
    let runs: Vec<Vec<[[f64; 2]; 2]>> = par_map(&seed_list, |&seed| {
        let cfg = RollingConfig {
            epochs,
            seed,
            ..Default::default()
        };
        let alg = ApproG::default();
        let fixed = run_rolling(&alg, &cfg, ReplanPolicy::Static);
        let periodic = run_rolling(&alg, &cfg, ReplanPolicy::Periodic);
        let epoch = |e: &edgerep_testbed::rolling::EpochStats| [e.volume, e.migration_gb];
        (fixed.per_epoch.iter().zip(&periodic.per_epoch))
            .map(|(f, p)| [epoch(f), epoch(p)])
            .collect()
    });
    let rows = (0..epochs)
        .map(|e| {
            let at_epoch: Vec<[[f64; 2]; 2]> = runs.iter().map(|r| r[e]).collect();
            FigureRow {
                x: e as f64,
                series: Series::per_arm(["Static placement", "Periodic replan"], &at_epoch),
            }
        })
        .collect();
    FigureData::new(
        "ext-rolling",
        "Extension: rolling operation under workload drift \
         (static placement vs periodic replanning)",
        "epoch",
        &ROLLING_METRICS,
        rows,
    )
}

/// [`ext_forecast`]'s metrics: admitted volume and transfer traffic.
const FORECAST_METRICS: [Metric; 2] = [
    VOLUME,
    Metric::new(
        "transfer_gb",
        "transfer traffic (migration + prefetch)",
        "GB",
        2,
    ),
];

/// Forecaster × drift-rate sweep: realized admitted volume and total
/// transfer traffic over an 8-epoch rolling run, per replanning policy.
///
/// The x-axis is the hotspot probability (0 = homes uniform, 0.9 = 90 %
/// of queries cluster on the epoch's rotating group — the drift rate);
/// the metrics are total admitted volume and total transfer GB
/// (migration + prefetch).
/// `Periodic` is the replan-after-seeing-the-workload oracle; the
/// predictive series show what each forecaster recovers of the gap
/// between `Static` and that bound, and at what traffic cost. Forecast
/// error lands in the obs registry (`forecast.mape` gauge, exported to
/// the `{id}_metrics.csv` sidecar under `--csv`).
pub fn ext_forecast(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    let drifts = [0.0f64, 0.3, 0.6, 0.9];
    let policies: [(&str, ReplanPolicy); 6] = [
        ("Static", ReplanPolicy::Static),
        ("Periodic (oracle)", ReplanPolicy::Periodic),
        (
            "Predictive seasonal-4",
            ReplanPolicy::Predictive(ForecasterKind::SeasonalNaive { period: 4 }),
        ),
        (
            "Predictive EWMA",
            ReplanPolicy::Predictive(ForecasterKind::Ewma),
        ),
        (
            "Predictive Holt",
            ReplanPolicy::Predictive(ForecasterKind::Holt),
        ),
        (
            "Predictive top-32",
            ReplanPolicy::Predictive(ForecasterKind::TopK { k: 32 }),
        ),
    ];
    // One flat (drift × policy) × seed task list through the 2-D
    // scheduler (24 rows × seeds cells at the paper's 15 seeds = 360).
    let cells: Vec<Vec<[f64; 2]>> = run_grid(drifts.len() * policies.len(), seeds, |ri, seed| {
        let (di, pi) = (ri / policies.len(), ri % policies.len());
        let cfg = RollingConfig {
            epochs: 8,
            hotspot_probability: drifts[di],
            seed: seed as u64,
            ..Default::default()
        };
        let report = run_rolling(&ApproG::default(), &cfg, policies[pi].1);
        [
            report.total_volume,
            report.total_migration_gb + report.total_prefetch_gb,
        ]
    });
    let rows = drifts
        .iter()
        .zip(cells.chunks(policies.len()))
        .map(|(&x, drift_cells)| FigureRow {
            x,
            series: policies
                .iter()
                .zip(drift_cells)
                .map(|((name, _), samples)| Series::of(*name, samples))
                .collect(),
        })
        .collect();
    // Trajectory sidecar: seed-0 per-epoch SLO series for every policy at
    // the strongest drift, showing forecast error shrinking (and admitted
    // fraction recovering) as the predictors accrue history.
    let series: Vec<(String, Vec<SloSample>)> = par_map(&policies, |&(name, policy)| {
        let cfg = RollingConfig {
            epochs: 8,
            hotspot_probability: *drifts.last().expect("non-empty"),
            seed: 0,
            ..Default::default()
        };
        let report = run_rolling(&ApproG::default(), &cfg, policy);
        (name.to_owned(), report.slo_series())
    });
    let timeseries = Some(render_slo_csv(&series));
    FigureData {
        timeseries,
        ..FigureData::new(
            "ext-forecast",
            "Extension: predictive prefetching vs drift rate (totals over 8 epochs)",
            "hotspot probability",
            &FORECAST_METRICS,
            rows,
        )
    }
}

/// Region counts swept by [`ext_shard`].
pub const SHARD_REGIONS: [usize; 4] = [1, 2, 4, 8];

/// [`ext_shard`]'s metrics, in the order of its per-seed rows.
const SHARD_METRICS: [Metric; 4] = [
    VOLUME,
    Metric::new("solve_ms", "solve wall-clock time", "ms", 3),
    Metric::new("gap_pct", "admitted-volume gap to global Appro-G", "%", 2),
    Metric::new("speedup", "solve speedup over global Appro-G", "×", 3),
];

/// Sharded-solver scaling study: solve wall-clock and net-benefit gap vs
/// the number of regions R on a scaled-up generator world.
///
/// One series, `"sharded Appro-G"`, reports per row (R) the admitted
/// volume, the solve time in milliseconds, the gap
/// `100 · (global − sharded) / global` admitted volume, and the
/// wall-clock speedup `t_global / t_sharded`.
///
/// The R = 1 row *is* the global `Appro-G` baseline (the sharded wrapper
/// delegates verbatim), so its gap is exactly 0 and its speedup exactly 1.
///
/// Unlike every other figure this one runs its cells **sequentially**:
/// the quantity under measurement is wall-clock solve time, and the R-way
/// parallelism under test comes from the sharded solver's own `par_map`
/// over shards — a `run_grid` fan-out would both defeat it (nested
/// `par_map` falls back to sequential) and corrupt the timings through
/// CPU contention.
pub fn ext_shard(seeds: usize) -> FigureData {
    assert!(seeds >= 1);
    // Scaled world: hundreds of queries per instance on a 64-node metro —
    // large enough that the solver's quadratic term dominates and sharding
    // pays, small enough for a --quick CI smoke.
    let params = WorkloadParams::default()
        .with_network_size(64)
        .with_scale(8);
    let instances: Vec<_> = (0..seeds)
        .map(|s| generate_instance(&params, s as u64))
        .collect();
    // Global (R = 1) baseline per seed: admitted volume + solve seconds.
    let globals: Vec<(f64, f64)> = instances
        .iter()
        .map(|inst| {
            let t0 = Instant::now();
            let sol = ApproG::default().solve(inst);
            (sol.admitted_volume(inst), t0.elapsed().as_secs_f64())
        })
        .collect();
    let mut rows = Vec::new();
    for &regions in &SHARD_REGIONS {
        let mut per_seed = Vec::with_capacity(seeds);
        for (inst, &(global_volume, global_secs)) in instances.iter().zip(&globals) {
            let (volume, secs) = if regions <= 1 {
                (global_volume, global_secs)
            } else {
                let solver = ShardedSolver::new(
                    ApproG::default(),
                    ShardConfig {
                        regions,
                        reconcile: true,
                    },
                );
                let t0 = Instant::now();
                let sol = solver.solve(inst);
                let secs = t0.elapsed().as_secs_f64();
                sol.validate(inst)
                    .expect("reconciled sharded solutions stay feasibility-clean");
                (sol.admitted_volume(inst), secs)
            };
            let gap = if global_volume > 0.0 {
                (global_volume - volume) / global_volume * 100.0
            } else {
                0.0
            };
            let speedup = if secs > 0.0 { global_secs / secs } else { 1.0 };
            per_seed.push([volume, secs * 1e3, gap, speedup]);
        }
        rows.push(FigureRow {
            x: regions as f64,
            series: vec![Series::of("sharded Appro-G", per_seed)],
        });
    }
    FigureData::new(
        "ext-shard",
        "Extension: sharded regional solve vs the global Appro-G solve \
         (R = 1 is the global solve)",
        "regions R",
        &SHARD_METRICS,
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::check_schema;

    #[test]
    fn net_benefit_rows_cover_k_and_gammas() {
        let fig = ext_net_benefit(1);
        check_schema(&fig).unwrap();
        let net = fig.metric("net_benefit");
        assert_eq!(fig.rows.len(), 7);
        for row in &fig.rows {
            assert_eq!(row.series.len(), GAMMA_VALUES.len());
            // γ = 0 net benefit equals the measured volume: >= the γ = 2
            // series at the same K.
            assert!(row.series[0].values[net].mean >= row.series[2].values[net].mean - 1e-9);
        }
    }

    #[test]
    fn refinement_never_hurts() {
        let fig = ext_refine(2);
        check_schema(&fig).unwrap();
        let vol = fig.metric("volume");
        let row = &fig.rows[0];
        for pair in row.series.chunks(2) {
            assert!(
                pair[1].values[vol].mean >= pair[0].values[vol].mean - 1e-9,
                "refinement lost volume for {}",
                pair[0].name
            );
        }
    }

    #[test]
    fn topology_robustness_preserves_ordering() {
        let fig = ext_topology(3);
        check_schema(&fig).unwrap();
        let vol = fig.metric("volume");
        for row in &fig.rows {
            let appro = row.series[0].values[vol].mean;
            let greedy = row.series[1].values[vol].mean;
            let graph = row.series[2].values[vol].mean;
            assert!(appro > greedy, "x={}: ordering broken", row.x);
            assert!(appro > graph, "x={}: ordering broken", row.x);
        }
    }

    #[test]
    fn faults_extension_gap_closes_with_k() {
        let fig = ext_faults(3);
        check_schema(&fig).unwrap();
        let vol = fig.metric("volume");
        for row in &fig.rows {
            let clean = row.series[0].values[vol].mean;
            let faulty = row.series[1].values[vol].mean;
            assert!(faulty <= clean + 1e-9, "K={}: fault helped?!", row.x);
        }
        // Relative damage at K = 1 exceeds damage at K = 5.
        let damage = |row: &FigureRow| {
            let clean = row.series[0].values[vol].mean.max(1e-9);
            1.0 - row.series[1].values[vol].mean / clean
        };
        assert!(
            damage(&fig.rows[0]) >= damage(&fig.rows[fig.rows.len() - 1]) - 0.05,
            "replication should blunt the failure"
        );
    }

    #[test]
    fn availability_extension_zero_faults_makes_repair_a_noop() {
        let fig = ext_availability(1);
        check_schema(&fig).unwrap();
        let (vol, avail) = (fig.metric("volume"), fig.metric("availability"));
        assert_eq!(fig.rows.len(), 4);
        let clean = &fig.rows[0]; // fraction 0.0
        assert_eq!(clean.series.len(), 12); // K ∈ {1..4} × three arms
        for arms in clean.series.chunks(3) {
            // Without faults all three arms are byte-identical: repair is
            // inert, and the chunked preset coalesces to the same
            // point-to-point physics (the sim pins this bitwise too).
            assert_eq!(
                arms[0].values[vol].mean, arms[1].values[vol].mean,
                "repair must be inert without faults"
            );
            assert_eq!(
                arms[1].values[vol].mean, arms[2].values[vol].mean,
                "chunked transfers must match p2p without faults"
            );
            for arm in arms {
                assert_eq!(arm.values[avail].mean, 1.0, "no faults, full availability");
            }
        }
        // The trajectory sidecar carries all three arms as labeled,
        // multi-sample SLO series.
        let ts = fig.timeseries.as_deref().expect("availability trajectory");
        assert!(ts.starts_with("series,t_s,availability"), "{ts}");
        for label in ["no-repair,", "repair,", "repair+chunked,"] {
            assert!(
                ts.lines().filter(|l| l.starts_with(label)).count() >= 2,
                "series {label} too short:\n{ts}"
            );
        }
    }

    #[test]
    fn availability_storm_rows_are_coherent() {
        let fig = ext_availability_storm(1);
        check_schema(&fig).unwrap();
        let avail = fig.metric("availability");
        assert_eq!(fig.rows.len(), 3);
        assert_eq!(fig.x_label, "storms");
        for (row, &storms) in fig.rows.iter().zip(&[0.0f64, 1.0, 2.0]) {
            assert_eq!(row.x, storms);
            assert_eq!(row.series.len(), 12); // K ∈ {1..4} × three arms
            for arms in row.series.chunks(3) {
                assert!(arms[0].name.contains("no-repair"));
                assert!(arms[1].name.ends_with(" repair"));
                assert!(arms[2].name.ends_with("repair+chunked"));
                for arm in arms {
                    assert!(
                        (0.0..=1.0).contains(&arm.values[avail].mean),
                        "{}: availability out of range",
                        arm.name
                    );
                }
            }
        }
        // Storms hurt: aggregated over K, layering two region storms on
        // the background noise cannot beat the storm-free row per arm.
        for ai in 0..3 {
            let sum = |row: &FigureRow| -> f64 {
                row.series
                    .iter()
                    .skip(ai)
                    .step_by(3)
                    .map(|a| a.values[avail].mean)
                    .sum()
            };
            let calm = sum(&fig.rows[0]);
            let stormy = sum(&fig.rows[2]);
            assert!(
                stormy <= calm + 1e-9,
                "arm {ai}: stormy availability {stormy} above calm {calm}"
            );
        }
    }

    #[test]
    fn availability_extension_repair_beats_no_repair_under_transient_faults() {
        // The acceptance criterion: with repair enabled and K >= 2, the
        // measured admitted volume under the 10%-of-nodes transient plan
        // is strictly above the repair-disabled run at the same seeds
        // (aggregated over K ∈ {2, 3, 4} so one quiet seed cannot mask
        // the effect).
        let fig = ext_availability(2);
        check_schema(&fig).unwrap();
        let (vol, avail) = (fig.metric("volume"), fig.metric("availability"));
        let row = &fig.rows[1]; // fraction 0.1
        assert!((row.x - 0.1).abs() < 1e-12);
        let mut off_sum = 0.0;
        let mut on_sum = 0.0;
        let mut chunked_sum = 0.0;
        let mut off_avail = 0.0;
        let mut on_avail = 0.0;
        let mut chunked_avail = 0.0;
        for arms in row.series.chunks(3).skip(1) {
            // arms are (no-repair, repair, repair+chunked) per K;
            // skip(1) drops K = 1.
            assert!(arms[0].name.contains("no-repair"));
            assert!(arms[1].name.ends_with(" repair"));
            assert!(arms[2].name.ends_with("repair+chunked"));
            off_sum += arms[0].values[vol].mean;
            on_sum += arms[1].values[vol].mean;
            chunked_sum += arms[2].values[vol].mean;
            off_avail += arms[0].values[avail].mean;
            on_avail += arms[1].values[avail].mean;
            chunked_avail += arms[2].values[avail].mean;
        }
        assert!(
            on_sum > off_sum,
            "repair must strictly raise measured volume under faults \
             (on {on_sum} vs off {off_sum})"
        );
        assert!(
            on_avail >= off_avail,
            "repair must not lower availability (on {on_avail} vs off {off_avail})"
        );
        assert!(
            chunked_sum > off_sum,
            "chunked repair must strictly raise measured volume under faults \
             (chunked {chunked_sum} vs off {off_sum})"
        );
        assert!(
            chunked_avail >= off_avail,
            "chunked repair must not lower availability \
             (chunked {chunked_avail} vs off {off_avail})"
        );
    }

    #[test]
    fn availability_with_custom_plan_shapes() {
        use edgerep_testbed::{FaultPlan, NodeOutage};
        let plan = FaultPlan {
            node_outages: vec![NodeOutage {
                node: edgerep_model::ComputeNodeId(5),
                down_at_s: 2.0,
                up_at_s: Some(60.0),
            }],
            link_faults: Vec::new(),
        };
        let fig = ext_availability_with_plan(1, &plan);
        check_schema(&fig).unwrap();
        let (vol, avail) = (fig.metric("volume"), fig.metric("availability"));
        assert_eq!(fig.rows.len(), 4);
        let (mut off_volume, mut on_volume) = (0.0, 0.0);
        for row in &fig.rows {
            assert_eq!(row.series.len(), 3);
            off_volume += row.series[0].values[vol].mean;
            on_volume += row.series[1].values[vol].mean;
            // Repair never loses more queries to the outage than no
            // repair does (losses happen at the down-transition, before
            // the two arms can diverge).
            assert!(
                row.series[1].values[avail].mean >= row.series[0].values[avail].mean - 1e-9,
                "repair lowered availability at K={}",
                row.x
            );
        }
        // Per-K volume can wobble slightly — repaired replicas shift
        // failover routing — but over the K sweep repair is a net win
        // (or a wash when replication already covers the outage).
        assert!(
            on_volume >= off_volume - 1e-9,
            "repair must not be a net volume loss (on {on_volume} vs off {off_volume})"
        );
    }

    #[test]
    fn rolling_extension_shapes() {
        let fig = ext_rolling(2);
        check_schema(&fig).unwrap();
        let (vol, migration) = (fig.metric("volume"), fig.metric("migration_gb"));
        assert_eq!(fig.rows.len(), 6);
        // Epoch 0 identical across policies.
        let r0 = &fig.rows[0];
        assert!((r0.series[0].values[vol].mean - r0.series[1].values[vol].mean).abs() < 1e-9);
        // Static placement never migrates after epoch 0.
        for row in fig.rows.iter().skip(1) {
            assert_eq!(row.series[0].values[migration].mean, 0.0);
        }
    }

    #[test]
    fn forecast_extension_shapes() {
        let fig = ext_forecast(1);
        check_schema(&fig).unwrap();
        let (vol, transfer) = (fig.metric("volume"), fig.metric("transfer_gb"));
        assert_eq!(fig.rows.len(), 4);
        for row in &fig.rows {
            assert_eq!(row.series.len(), 6);
            for r in &row.series {
                assert!(r.values[vol].mean > 0.0, "{} admitted nothing", r.name);
                assert!(r.values[transfer].mean >= 0.0);
            }
            // Static never pays transfer traffic after its one placement;
            // every replanning/prefetching policy pays at least as much.
            let static_traffic = row.series[0].values[transfer].mean;
            for r in &row.series[1..] {
                assert!(
                    r.values[transfer].mean >= static_traffic - 1e-9,
                    "{} moved less than Static at drift {}",
                    r.name,
                    row.x
                );
            }
        }
        // The trajectory sidecar holds one 8-epoch series per policy,
        // and predictive epochs past cold start carry a wmape cell.
        let ts = fig.timeseries.as_deref().expect("forecast trajectory");
        for name in ["Static,", "Periodic (oracle),", "Predictive EWMA,"] {
            assert_eq!(
                ts.lines().filter(|l| l.starts_with(name)).count(),
                8,
                "missing series {name}:\n{ts}"
            );
        }
        let scored = ts
            .lines()
            .filter(|l| l.starts_with("Predictive") && !l.ends_with(','))
            .count();
        assert!(scored > 0, "no predictive epoch reported a wmape:\n{ts}");
    }

    #[test]
    fn ec_extension_trades_storage_for_admission() {
        let fig = ext_ec(1);
        check_schema(&fig).unwrap();
        let vol = fig.metric("volume");
        let storage = fig.metric("storage_gb");
        let (avail, degraded) = (fig.metric("availability"), fig.metric("degraded_frac"));
        assert_eq!(fig.rows.len(), 4);
        assert_eq!(fig.x_label, "fault fraction");
        let clean = &fig.rows[0]; // fraction 0.0
        assert_eq!(clean.series.len(), 4); // one series per scheme
        for scheme in &clean.series {
            assert_eq!(
                scheme.values[avail].mean, 1.0,
                "{}: no faults, full availability",
                scheme.name
            );
            assert_eq!(
                scheme.values[degraded].mean, 0.0,
                "{}: no faults, no degraded reads",
                scheme.name
            );
        }
        // The tentpole tradeoff: at least one EC striping admits at least
        // Replication(3)'s volume while storing strictly less.
        let vol = |i: usize| clean.series[i].values[vol].mean;
        let storage = |i: usize| clean.series[i].values[storage].mean;
        assert!(
            (1..4).any(|i| vol(i) >= vol(0) - 1e-9 && storage(i) < storage(0) - 1e-9),
            "no EC arm admitted >= Replication(3)'s volume at lower storage \
             (volumes {:?}, storage {:?})",
            (0..4).map(vol).collect::<Vec<_>>(),
            (0..4).map(storage).collect::<Vec<_>>()
        );
        // The trajectory sidecar carries one labeled series per scheme.
        let ts = fig.timeseries.as_deref().expect("ec trajectory");
        assert!(ts.starts_with("series,t_s,availability"), "{ts}");
        for label in ["Replication(3),", "EC(2,1),", "EC(4,2),", "EC(8,3),"] {
            assert!(
                ts.lines().filter(|l| l.starts_with(label)).count() >= 2,
                "series {label} too short:\n{ts}"
            );
        }
    }

    #[test]
    fn ec_storm_rows_are_coherent() {
        let fig = ext_ec_storm(1);
        check_schema(&fig).unwrap();
        let (avail, degraded) = (fig.metric("availability"), fig.metric("degraded_frac"));
        let storage = fig.metric("storage_gb");
        assert_eq!(fig.rows.len(), 3);
        assert_eq!(fig.x_label, "storms");
        for (row, &storms) in fig.rows.iter().zip(&[0.0f64, 1.0, 2.0]) {
            assert_eq!(row.x, storms);
            assert_eq!(row.series.len(), 4);
            for scheme in &row.series {
                assert!(
                    (0.0..=1.0).contains(&scheme.values[avail].mean),
                    "{}: availability out of range",
                    scheme.name
                );
                assert!(
                    (0.0..=1.0).contains(&scheme.values[degraded].mean),
                    "{}: degraded-read fraction out of range",
                    scheme.name
                );
                assert!(
                    scheme.values[storage].mean > 0.0,
                    "{}: empty plan",
                    scheme.name
                );
            }
        }
    }

    #[test]
    fn ec_extension_is_registered() {
        assert_eq!(EXT_IDS.len(), 10, "the ext set is ten figures");
        assert!(EXT_IDS.contains(&"ext-ec"));
    }

    #[test]
    fn shard_extension_is_registered() {
        assert!(EXT_IDS.contains(&"ext-shard"));
        assert_eq!(SHARD_REGIONS, [1, 2, 4, 8]);
    }

    #[test]
    fn shard_rows_are_coherent() {
        let fig = ext_shard(1);
        check_schema(&fig).unwrap();
        let (vol, solve_ms) = (fig.metric("volume"), fig.metric("solve_ms"));
        let (gap, speedup) = (fig.metric("gap_pct"), fig.metric("speedup"));
        assert_eq!(fig.rows.len(), SHARD_REGIONS.len());
        for (row, &r) in fig.rows.iter().zip(&SHARD_REGIONS) {
            assert_eq!(row.x, r as f64);
            assert_eq!(row.series.len(), 1);
            let sharded = &row.series[0];
            assert!(sharded.values[vol].mean > 0.0, "R={r}: nothing admitted");
            assert!(
                sharded.values[solve_ms].mean > 0.0,
                "R={r}: zero solve time"
            );
            assert!(
                sharded.values[gap].mean <= 100.0 + 1e-9,
                "R={r}: gap above 100%"
            );
        }
        // The R = 1 row is the global baseline itself: gap exactly 0,
        // speedup exactly 1.
        assert_eq!(fig.rows[0].series[0].values[gap].mean, 0.0);
        assert_eq!(fig.rows[0].series[0].values[speedup].mean, 1.0);
    }

    #[test]
    fn online_extension_shapes() {
        let fig = ext_online(2);
        check_schema(&fig).unwrap();
        let vol = fig.metric("volume");
        assert_eq!(fig.rows.len(), 5);
        for row in &fig.rows {
            // The offline reference is threshold-independent.
            let offline = row.series[1].values[vol].mean;
            assert!((offline - fig.rows[0].series[1].values[vol].mean).abs() < 1e-9);
            // Online never exceeds offline by more than noise on means.
            assert!(row.series[0].values[vol].mean <= offline * 1.05 + 1e-9);
        }
    }
}

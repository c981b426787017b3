//! `edgerep` — generate, inspect and solve placement instances from the
//! command line.
//!
//! ```text
//! edgerep gen --seed 7 --network-size 60 --k 3 -o instance.json
//! edgerep inspect -i instance.json
//! edgerep solve -i instance.json --alg appro-g
//! edgerep solve -i instance.json --alg all
//! edgerep solve -i instance.json --alg appro-g --trace out.ndjson --stats
//! ```
//!
//! Instance files are the JSON encoding of
//! [`edgerep_model::spec::InstanceSpec`], so hand-written and generated
//! instances go through the same validation.
//!
//! `--trace FILE` enables every observability target and streams NDJSON
//! trace events (span timings, admission summaries, registry dumps) to
//! `FILE`; `--stats` prints the metric-registry summary table per
//! algorithm after its run (span timings get their own section with
//! p50/p95 columns); `--profile FILE` writes the solve's folded span
//! stacks to `FILE` and prints the self-time call-tree table.

use edgerep_core::{
    appro::{ApproG, ApproS},
    centroid::Centroid,
    graphpart::GraphPartition,
    greedy::Greedy,
    online::OnlineAppro,
    optimal::Optimal,
    popularity::Popularity,
    repair, BoxedAlgorithm,
};
use edgerep_exp::{out, outln};
use edgerep_model::spec::InstanceSpec;
use edgerep_model::{Instance, Metrics};
use edgerep_obs as obs;
use edgerep_obs::json::Json;
use edgerep_shard::{ShardConfig, ShardedSolver};
use edgerep_testbed::analytics::AnalyticsKind;
use edgerep_testbed::geo::Region;
use edgerep_testbed::{
    try_run_testbed_with_plan, ChunkedConfig, FaultPlan, SimConfig, TestbedWorld, TransferModel,
};
use edgerep_workload::{generate_instance, WorkloadParams};

const USAGE: &str = "usage:
  edgerep gen [--seed N] [--network-size N] [--f F] [--k K] [--queries LO HI]
              [--scale N] -o FILE
  edgerep inspect -i FILE
  edgerep solve -i FILE --alg NAME [--shards R] [--metrics-json] [--trace FILE]
                [--stats] [--profile FILE] [--fault-plan FILE]
                [--transfer p2p|chunked] [--chunk-gb G]
    NAME: appro-g | appro-s | greedy-g | graph-g | popularity-g | centroid |
          online | optimal | all
    --scale N     multiply the generated workload volume (query and dataset
                  count bounds) by N; the topology size is unchanged
    --shards R    partition the topology into R regions, solve shards in
                  parallel and reconcile the boundary (R <= 1 = global solve)
    --trace FILE  enable all observability targets and write NDJSON trace
                  events (span timings, admission summaries) to FILE
    --stats       print the metrics-registry summary table per algorithm
    --profile FILE  profile the span tree: folded stacks to FILE, sorted
                  self-time table to stdout
    --fault-plan FILE  load a JSON fault plan and report the admitted
                  volume that statically survives the planned outages
    --transfer MODEL  additionally run the discrete-event testbed on the
                  solved instance under a preset of its transfer engine
                  (p2p = whole-replica single-source flows, chunked =
                  resumable multi-source chunks; both queue on a FIFO
                  egress per node) and report the measured QoS
    --chunk-gb G  chunk size for --transfer chunked (default 0.25)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("solve") => cmd_solve(&args[1..]),
        Some("--help") | Some("-h") => outln!("{USAGE}"),
        _ => die(USAGE),
    }
}

fn opt_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_or_die<T: std::str::FromStr>(s: &str, what: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("cannot parse {what}: '{s}'")))
}

fn cmd_gen(args: &[String]) {
    let seed: u64 = opt_value(args, "--seed").map_or(0, |s| parse_or_die(s, "--seed"));
    let mut params = WorkloadParams::default();
    if let Some(n) = opt_value(args, "--network-size") {
        let n: usize = parse_or_die(n, "--network-size");
        if n < 3 {
            die("--network-size must be at least 3 (one DC, one cloudlet, one switch)");
        }
        params = params.with_network_size(n);
    }
    if let Some(f) = opt_value(args, "--f") {
        params = params.with_max_datasets_per_query(parse_or_die(f, "--f"));
    }
    if let Some(k) = opt_value(args, "--k") {
        params = params.with_max_replicas(parse_or_die(k, "--k"));
    }
    if let Some(s) = opt_value(args, "--scale") {
        let scale: usize = parse_or_die(s, "--scale");
        if scale == 0 {
            die("--scale needs a positive integer");
        }
        params = params.with_scale(scale);
    }
    if let Some(i) = args.iter().position(|a| a == "--queries") {
        let lo = args.get(i + 1).map(|s| parse_or_die(s, "--queries lo"));
        let hi = args.get(i + 2).map(|s| parse_or_die(s, "--queries hi"));
        match (lo, hi) {
            (Some(lo), Some(hi)) => params.query_count = (lo, hi),
            _ => die("--queries needs LO and HI"),
        }
    }
    params
        .validate()
        .unwrap_or_else(|e| die(&format!("invalid workload: {e}")));
    let out = opt_value(args, "-o").unwrap_or_else(|| die("gen needs -o FILE"));
    let inst = generate_instance(&params, seed);
    let spec = InstanceSpec::from_instance(&inst);
    std::fs::write(out, spec.to_json()).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    outln!(
        "wrote {out}: {} nodes, {} datasets, {} queries, K = {}",
        inst.cloud().graph().node_count(),
        inst.datasets().len(),
        inst.queries().len(),
        inst.max_replicas()
    );
}

fn load_instance(args: &[String]) -> Instance {
    let path = opt_value(args, "-i").unwrap_or_else(|| die("need -i FILE"));
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
    let spec =
        InstanceSpec::from_json_str(&json).unwrap_or_else(|e| die(&format!("parse {path}: {e}")));
    spec.to_instance()
        .unwrap_or_else(|e| die(&format!("invalid instance in {path}: {e}")))
}

fn cmd_inspect(args: &[String]) {
    let inst = load_instance(args);
    let cloud = inst.cloud();
    outln!(
        "edge cloud: {} data centers, {} cloudlets, {} graph nodes, {} links",
        cloud.data_center_count(),
        cloud.cloudlet_count(),
        cloud.graph().node_count(),
        cloud.graph().edge_count()
    );
    outln!(
        "compute: {:.1} GHz available total",
        cloud.total_available()
    );
    outln!(
        "workload: {} datasets ({:.1} GB total), {} queries demanding {:.1} GB, K = {}",
        inst.datasets().len(),
        inst.datasets().iter().map(|d| d.size_gb).sum::<f64>(),
        inst.queries().len(),
        inst.total_demanded_volume(),
        inst.max_replicas()
    );
    if inst.queries().is_empty() {
        outln!("deadlines: n/a (no queries)");
    } else {
        let tightest = inst
            .queries()
            .iter()
            .map(|q| q.deadline)
            .fold(f64::INFINITY, f64::min);
        let loosest = inst
            .queries()
            .iter()
            .map(|q| q.deadline)
            .fold(0.0, f64::max);
        outln!("deadlines: {tightest:.3}s .. {loosest:.3}s");
    }
}

fn panel_for(name: &str, single_dataset: bool) -> Vec<BoxedAlgorithm> {
    match name {
        "appro-g" => vec![Box::new(ApproG::default())],
        "appro-s" => {
            if !single_dataset {
                die("appro-s requires a single-dataset instance; use appro-g");
            }
            vec![Box::new(ApproS::default())]
        }
        "greedy-g" => vec![Box::new(Greedy::general())],
        "graph-g" => vec![Box::new(GraphPartition::general())],
        "popularity-g" => vec![Box::new(Popularity::general())],
        "centroid" => vec![Box::new(Centroid)],
        "online" => vec![Box::new(OnlineAppro::default())],
        "optimal" => vec![Box::new(Optimal::default())],
        "all" => vec![
            Box::new(ApproG::default()),
            Box::new(Greedy::general()),
            Box::new(GraphPartition::general()),
            Box::new(Popularity::general()),
            Box::new(Centroid),
            Box::new(OnlineAppro::default()),
        ],
        other => die(&format!("unknown algorithm '{other}'\n{USAGE}")),
    }
}

/// Parses `--transfer p2p|chunked` (with an optional `--chunk-gb G` for
/// the chunked preset) into a [`TransferModel`].
fn parse_transfer(args: &[String]) -> Option<TransferModel> {
    let name = opt_value(args, "--transfer");
    if name.is_none() && opt_value(args, "--chunk-gb").is_some() {
        die("--chunk-gb needs --transfer chunked");
    }
    Some(match name? {
        "p2p" => {
            if opt_value(args, "--chunk-gb").is_some() {
                die("--chunk-gb only applies to --transfer chunked");
            }
            TransferModel::PointToPoint
        }
        "chunked" => {
            let mut cfg = ChunkedConfig::default();
            if let Some(g) = opt_value(args, "--chunk-gb") {
                let gb: f64 = parse_or_die(g, "--chunk-gb");
                if !gb.is_finite() || gb <= 0.0 {
                    die("--chunk-gb needs a positive number");
                }
                cfg.chunk_gb = gb;
            }
            TransferModel::Chunked(cfg)
        }
        other => die(&format!("unknown transfer model '{other}' (p2p|chunked)")),
    })
}

/// Wraps a plain instance as a [`TestbedWorld`] so `solve --transfer`
/// can drive the discrete-event simulator: query payloads and timing
/// come from the instance itself, so empty trace records and a default
/// analytics class per query are sufficient.
fn testbed_world_for(inst: &Instance) -> TestbedWorld {
    TestbedWorld {
        instance: inst.clone(),
        regions: vec![Region::Metro; inst.cloud().compute_count()],
        records: vec![Vec::new(); inst.datasets().len()],
        query_kinds: vec![AnalyticsKind::TopApps { k: 3 }; inst.queries().len()],
    }
}

fn cmd_solve(args: &[String]) {
    let inst = load_instance(args);
    let alg = opt_value(args, "--alg").unwrap_or("appro-g");
    let shards: usize = opt_value(args, "--shards").map_or(1, |s| parse_or_die(s, "--shards"));
    if shards == 0 {
        die("--shards needs a positive integer");
    }
    let nodes = inst.cloud().compute_count();
    if shards > nodes {
        die(&format!(
            "--shards {shards} exceeds the instance's {nodes} compute nodes"
        ));
    }
    let transfer = parse_transfer(args);
    let fault_plan = if args.iter().any(|a| a == "--fault-plan") {
        let path =
            opt_value(args, "--fault-plan").unwrap_or_else(|| die("--fault-plan needs FILE"));
        let json =
            std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        let plan =
            FaultPlan::from_json_str(&json).unwrap_or_else(|e| die(&format!("parse {path}: {e}")));
        plan.validate(inst.cloud().compute_count())
            .unwrap_or_else(|e| die(&format!("invalid fault plan in {path}: {e}")));
        Some(plan)
    } else {
        None
    };
    let as_json = args.iter().any(|a| a == "--metrics-json");
    let stats = args.iter().any(|a| a == "--stats");
    let trace = if args.iter().any(|a| a == "--trace") {
        Some(opt_value(args, "--trace").unwrap_or_else(|| die("--trace needs FILE")))
    } else {
        None
    };
    let profile = if args.iter().any(|a| a == "--profile") {
        Some(opt_value(args, "--profile").unwrap_or_else(|| die("--profile needs FILE")))
    } else {
        None
    };
    if stats || trace.is_some() {
        obs::enable_all();
    }
    if let Some(path) = trace {
        let file =
            std::fs::File::create(path).unwrap_or_else(|e| die(&format!("create {path}: {e}")));
        obs::set_trace_writer(Box::new(std::io::BufWriter::new(file)));
    }
    if profile.is_some() {
        obs::reset_profile();
        obs::enable_profiling();
    }
    let single = inst.queries().iter().all(|q| q.demands.len() == 1);
    let world = transfer.map(|_| testbed_world_for(&inst));
    let mut panel = panel_for(alg, single);
    if shards > 1 {
        // Wrap every panel entry in the sharded regional solver: the
        // boxed algorithm is itself a PlacementAlgorithm, so the wrapper
        // composes without unboxing.
        panel = panel
            .into_iter()
            .map(|inner| -> BoxedAlgorithm {
                Box::new(ShardedSolver::new(
                    inner,
                    ShardConfig {
                        regions: shards,
                        reconcile: true,
                    },
                ))
            })
            .collect();
    }
    // Right-align names to the longest in the panel (never below 14, the
    // width of the unsharded names) so the colons line up.
    let width = panel.iter().map(|a| a.name().len()).fold(14, usize::max);
    for algorithm in panel {
        // Each algorithm starts from a clean registry so its --stats table
        // and registry dump reflect this run alone.
        obs::reset_registry();
        let sol = algorithm.solve(&inst);
        sol.validate(&inst).unwrap_or_else(|e| {
            die(&format!(
                "{} produced an infeasible solution: {e:?}",
                algorithm.name()
            ))
        });
        let metrics = Metrics::of(&inst, &sol);
        if as_json {
            let line = Json::object([
                ("algorithm", algorithm.name().into()),
                ("metrics", metrics.to_json()),
            ]);
            outln!("{}", line.render());
        } else {
            outln!("{:>width$}: {}", algorithm.name(), metrics);
        }
        if let Some(plan) = &fault_plan {
            // Worst-case static survival: every node with an outage window
            // anywhere in the plan is treated as lost, and a query survives
            // only if each of its serving nodes is up or a live replica can
            // still meet its deadline. The testbed (`repro ext-availability
            // --fault-plan`) gives the dynamic picture with repair.
            let mut alive = vec![true; inst.cloud().compute_count()];
            for o in &plan.node_outages {
                alive[o.node.index()] = false;
            }
            let surviving = repair::surviving_volume(&inst, &sol, &alive);
            let admitted = sol.admitted_volume(&inst);
            let share = if admitted > 0.0 {
                surviving / admitted
            } else {
                1.0
            };
            outln!(
                "{:>width$}  fault survival: {:.1} / {:.1} GB admitted volume ({:.0}%), {} node(s) faulted",
                "", surviving, admitted, share * 100.0,
                plan.node_outages.len()
            );
        }
        if let (Some(model), Some(world)) = (transfer, &world) {
            // One measured discrete-event run of the solved instance
            // under the chosen transfer preset.
            let label = match model {
                TransferModel::PointToPoint => "p2p".to_owned(),
                TransferModel::Chunked(c) => format!("chunked/{} GB", c.chunk_gb),
            };
            let sim = SimConfig {
                transfer: model,
                ..Default::default()
            };
            let report =
                try_run_testbed_with_plan(algorithm.as_ref(), world, &sim, &FaultPlan::empty())
                    .unwrap_or_else(|e| die(&format!("testbed run failed: {e}")));
            outln!(
                "{:>width$}  testbed[{label}]: measured {:.1} of {:.1} GB planned, \
                 mean {:.3} s, p95 {:.3} s, replication {:.1} GB in {:.1} s",
                "",
                report.measured_volume,
                report.planned_volume,
                report.mean_response_s,
                report.p95_response_s,
                report.replication_gb,
                report.replication_time_s
            );
        }
        if trace.is_some() {
            // Per-run counter values (e.g. `admission.reject.*`) and
            // span-timing histograms appear in the file even when no
            // individual event carried them.
            obs::dump_registry("algorithm", algorithm.name());
        }
        if stats {
            outln!("--- metrics: {} ---", algorithm.name());
            out!("{}", obs::render_summary());
        }
    }
    if let Some(path) = profile {
        obs::disable_profiling();
        let prof = obs::take_profile();
        std::fs::write(path, obs::render_folded(&prof))
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        out!("{}", obs::render_self_table(&prof));
        outln!("[folded stacks written to {path}]");
        let top = prof.top_self().map(|n| n.name.clone()).unwrap_or_default();
        obs::emit(
            "profile",
            "profile",
            "profile.dump",
            &[("nodes", prof.nodes.len().into()), ("top_self", top.into())],
        );
    }
    if trace.is_some() {
        obs::take_trace_writer(); // flush and close the NDJSON sink
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

//! `repro` — regenerate the paper's figures.
//!
//! ```text
//! repro all                # every figure at the paper's 15 seeds
//! repro fig2 fig5          # a subset
//! repro fig4 --seeds 30    # more repetitions
//! repro all --quick        # 3 seeds (CI smoke run)
//! repro all --csv out/     # additionally write CSV files
//! repro fig8 --trace t.ndjson  # NDJSON trace of the whole regeneration
//! ```
//!
//! `--trace FILE` streams the same NDJSON events `edgerep solve --trace`
//! produces (span timings, scheduler progress, admission summaries) to
//! `FILE`, closing each figure with a registry dump so the file ends in a
//! `dump.done` line for the last figure regenerated.
//!
//! `--profile FILE` turns on the span-tree profiler for the whole run:
//! folded stacks (`path self_us`, flamegraph-ready) go to `FILE` and the
//! sorted self-time table is printed after the figures.

use edgerep_exp::figures;
use edgerep_exp::plot::{figure_to_svg, PlotStyle};
use edgerep_exp::report::{render_csv, render_markdown, render_metrics_csv, render_text};
use edgerep_exp::{extensions, outln, FigureData};
use edgerep_obs as obs;
use edgerep_testbed::{FaultPlan, TestbedConfig};

/// Usage text derived from the id registries, so adding a figure to
/// `FIGURE_IDS`/`EXT_IDS` can never desync the help text (guarded by the
/// `usage_lists_every_figure_id` test below).
fn usage() -> String {
    let ids: Vec<&str> = figures::FIGURE_IDS
        .iter()
        .chain(["all"].iter())
        .chain(extensions::EXT_IDS.iter())
        .chain(["ext"].iter())
        .copied()
        .collect();
    format!(
        "usage: repro [{}]... \
[--seeds N] [--quick] [--csv DIR] [--svg DIR] [--md DIR] [--fault-plan FILE] [--storm] \
[--trace FILE] [--profile FILE]
    --storm         run ext-availability / ext-ec under correlated region
                    failure storms instead of independent MTBF/MTTR faults
    --trace FILE    enable all observability targets and write NDJSON trace
                    events to FILE, ending each figure with a registry dump
    --profile FILE  profile the run's span tree: folded stacks to FILE,
                    self-time table to stdout",
        ids.join("|")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figures_wanted: Vec<String> = Vec::new();
    let mut seeds = edgerep_workload::presets::TOPOLOGIES_PER_POINT;
    let mut csv_dir: Option<String> = None;
    let mut svg_dir: Option<String> = None;
    let mut md_dir: Option<String> = None;
    let mut fault_plan: Option<FaultPlan> = None;
    let mut storm = false;
    let mut trace_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                seeds = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seeds needs a positive integer"));
                if seeds == 0 {
                    die("--seeds needs a positive integer")
                }
            }
            "--quick" => seeds = 3,
            "--csv" => {
                i += 1;
                csv_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--csv needs a directory")),
                );
            }
            "--svg" => {
                i += 1;
                svg_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--svg needs a directory")),
                );
            }
            "--md" => {
                i += 1;
                md_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--md needs a directory")),
                );
            }
            "--fault-plan" => {
                i += 1;
                let path = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("--fault-plan needs a JSON file"));
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| die(&format!("read {path}: {e}")));
                let plan = FaultPlan::from_json_str(&text)
                    .unwrap_or_else(|e| die(&format!("parse {path}: {e}")));
                // The plan replays on the default Fig. 6 world; check it
                // fits before any run starts.
                plan.validate(TestbedConfig::default().compute_nodes())
                    .unwrap_or_else(|e| die(&format!("invalid fault plan in {path}: {e}")));
                fault_plan = Some(plan);
            }
            "--storm" => storm = true,
            "--trace" => {
                i += 1;
                trace_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--trace needs a FILE")),
                );
            }
            "--profile" => {
                i += 1;
                profile_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--profile needs a FILE")),
                );
            }
            "all" => figures_wanted.extend(figures::FIGURE_IDS.iter().map(|s| s.to_string())),
            "ext" => figures_wanted.extend(extensions::EXT_IDS.iter().map(|s| s.to_string())),
            // Figure ids resolve against the same registries the usage
            // text is built from — a new id is dispatchable the moment
            // it joins FIGURE_IDS / EXT_IDS.
            f if figures::FIGURE_IDS.contains(&f) || extensions::EXT_IDS.contains(&f) => {
                figures_wanted.push(f.to_owned())
            }
            "--help" | "-h" => {
                outln!("{}", usage());
                return;
            }
            other => die(&format!("unknown argument '{other}'\n{}", usage())),
        }
        i += 1;
    }
    if figures_wanted.is_empty() {
        die(&usage());
    }
    // Each figure runs once, at its first mention (`repro all fig2`).
    let mut seen = std::collections::HashSet::new();
    figures_wanted.retain(|f| seen.insert(f.clone()));

    // With --csv, runner/parallel span timings and admission-reject
    // counters are captured per figure and written as a metrics sidecar
    // next to the figure data. No trace writer is installed, so enabling
    // the targets only turns on the registry instrumentation. --trace
    // supersedes the filter: every target streams NDJSON to FILE — the
    // same sink `edgerep solve --trace` uses.
    if let Some(path) = &trace_path {
        obs::enable_all();
        let file =
            std::fs::File::create(path).unwrap_or_else(|e| die(&format!("create {path}: {e}")));
        obs::set_trace_writer(Box::new(std::io::BufWriter::new(file)));
    } else if csv_dir.is_some() {
        obs::set_filter("runner,parallel,sim");
    }
    // Profiling is orthogonal to tracing: spans feed the aggregator even
    // when their targets are disabled, so `--profile` alone is cheap.
    if profile_path.is_some() {
        obs::reset_profile();
        obs::enable_profiling();
    }

    for fig in &figures_wanted {
        obs::reset_registry();
        let data = match fig.as_str() {
            "fig1" => {
                outln!("{}", figures::fig1_text());
                if trace_path.is_some() {
                    // Topology figures run no algorithms; the (empty)
                    // dump still marks the figure boundary in the trace.
                    obs::dump_registry("figure", "fig1");
                }
                continue;
            }
            "fig6" => {
                outln!("{}", figures::fig6_text());
                if trace_path.is_some() {
                    obs::dump_registry("figure", "fig6");
                }
                continue;
            }
            "fig2" => figures::fig2(seeds),
            "ext-online" => extensions::ext_online(seeds),
            "ext-netbenefit" => extensions::ext_net_benefit(seeds),
            "ext-refine" => extensions::ext_refine(seeds),
            "ext-topology" => extensions::ext_topology(seeds),
            "ext-faults" => extensions::ext_faults(seeds),
            "ext-rolling" => extensions::ext_rolling(seeds),
            "ext-forecast" => extensions::ext_forecast(seeds),
            "ext-ec" => {
                if storm {
                    extensions::ext_ec_storm(seeds)
                } else {
                    extensions::ext_ec(seeds)
                }
            }
            "ext-shard" => extensions::ext_shard(seeds),
            "ext-availability" => match (&fault_plan, storm) {
                (Some(_), true) => die("--storm and --fault-plan are mutually exclusive"),
                (Some(plan), false) => extensions::ext_availability_with_plan(seeds, plan),
                (None, true) => extensions::ext_availability_storm(seeds),
                (None, false) => extensions::ext_availability(seeds),
            },
            "fig3" => figures::fig3(seeds),
            "fig4" => figures::fig4(seeds),
            "fig5" => figures::fig5(seeds),
            "fig7" => figures::fig7(seeds),
            "fig8" => figures::fig8(seeds),
            _ => unreachable!("validated above"),
        };
        if trace_path.is_some() {
            // Counter totals and span-timing histograms (including
            // `parallel.utilization`) for this figure's whole grid; the
            // closing `dump.done` line marks the figure as complete.
            obs::dump_registry("figure", &data.id);
        }
        outln!("{}", render_text(&data));
        if let Some(dir) = &csv_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("mkdir {dir}: {e}")));
            let path = format!("{dir}/{}.csv", data.id);
            std::fs::write(&path, render_csv(&data))
                .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
            outln!("[csv written to {path}]");
            let mpath = format!("{dir}/{}_metrics.csv", data.id);
            std::fs::write(&mpath, render_metrics_csv(&obs::snapshot()))
                .unwrap_or_else(|e| die(&format!("write {mpath}: {e}")));
            outln!("[metrics csv written to {mpath}]\n");
            if let Some(ts) = &data.timeseries {
                let tpath = format!("{dir}/{}_timeseries.csv", data.id);
                std::fs::write(&tpath, ts).unwrap_or_else(|e| die(&format!("write {tpath}: {e}")));
                outln!("[timeseries csv written to {tpath}]\n");
            }
        }
        if let Some(dir) = &svg_dir {
            write_svgs(&data, dir);
        }
        if let Some(dir) = &md_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("mkdir {dir}: {e}")));
            let path = format!("{dir}/{}.md", data.id);
            std::fs::write(&path, render_markdown(&data))
                .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
            outln!("[markdown written to {path}]\n");
        }
    }
    if let Some(path) = &profile_path {
        obs::disable_profiling();
        let profile = obs::take_profile();
        std::fs::write(path, obs::render_folded(&profile))
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        outln!("{}", obs::render_self_table(&profile));
        outln!("[folded stacks written to {path}]");
        // Under --trace the dump also lands in the NDJSON stream, so
        // automation can grep `profile.dump` instead of parsing stdout.
        let top = profile
            .top_self()
            .map(|n| n.name.clone())
            .unwrap_or_default();
        obs::emit(
            "profile",
            "profile",
            "profile.dump",
            &[
                ("nodes", profile.nodes.len().into()),
                ("top_self", top.into()),
            ],
        );
    }
    if trace_path.is_some() {
        obs::take_trace_writer(); // flush and close the NDJSON sink
    }
}

fn write_svgs(data: &FigureData, dir: &str) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("mkdir {dir}: {e}")));
    let style = PlotStyle::default();
    for (m, metric) in data.metrics.iter().enumerate() {
        let path = format!("{dir}/{}_{}.svg", data.id, metric.key);
        std::fs::write(&path, figure_to_svg(data, m, &style))
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        outln!("[svg written to {path}]");
    }
    outln!();
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drift guard: every dispatchable figure id (and the two set
    /// aliases) appears verbatim in the usage text.
    #[test]
    fn usage_lists_every_figure_id() {
        let text = usage();
        for id in figures::FIGURE_IDS
            .iter()
            .chain(extensions::EXT_IDS.iter())
            .chain(["all", "ext"].iter())
        {
            assert!(text.contains(id), "usage text is missing '{id}'");
        }
    }

    /// The id registries and the usage text agree on counts: no id is
    /// listed twice, none is smuggled in outside the registries.
    #[test]
    fn usage_has_no_duplicate_ids() {
        let text = usage();
        let inside = text
            .split('[')
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("usage has an [id|...] block");
        let ids: Vec<&str> = inside.split('|').collect();
        assert_eq!(
            ids.len(),
            figures::FIGURE_IDS.len() + extensions::EXT_IDS.len() + 2,
            "usage id list drifted from FIGURE_IDS/EXT_IDS: {ids:?}"
        );
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate id in usage: {ids:?}");
    }
}

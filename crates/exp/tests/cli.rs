//! End-to-end tests of the `edgerep` and `repro` binaries.

use std::process::Command;

use edgerep_model::InstanceSpec;
use edgerep_obs::json::Json;

fn edgerep() -> Command {
    Command::new(env!("CARGO_BIN_EXE_edgerep"))
}

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// The value at the object-key `path` below `v` (`null` when absent).
fn at<'a>(v: &'a Json, path: &[&str]) -> &'a Json {
    static NULL: Json = Json::Null;
    path.iter().fold(v, |v, key| v.get(key).unwrap_or(&NULL))
}

/// The string at `path`, if there is one.
fn str_at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a str> {
    at(v, path).as_str()
}

/// Parses every line of an NDJSON file.
fn ndjson(text: &str) -> Vec<Json> {
    text.lines()
        .map(|l| {
            Json::parse(l).unwrap_or_else(|e| panic!("trace line is not valid JSON ({e}): {l}"))
        })
        .collect()
}

#[test]
fn gen_inspect_solve_round_trip() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");

    let out = edgerep()
        .args([
            "gen",
            "--seed",
            "3",
            "--network-size",
            "32",
            "--k",
            "2",
            "-o",
            inst.to_str().unwrap(),
        ])
        .output()
        .expect("gen runs");
    assert!(out.status.success(), "gen failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("32 nodes"));

    let out = edgerep()
        .args(["inspect", "-i", inst.to_str().unwrap()])
        .output()
        .expect("inspect runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("edge cloud:"));
    assert!(text.contains("K = 2"));

    let out = edgerep()
        .args(["solve", "-i", inst.to_str().unwrap(), "--alg", "appro-g"])
        .output()
        .expect("solve runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Appro-G"));

    // JSON metrics mode parses as JSON.
    let out = edgerep()
        .args([
            "solve",
            "-i",
            inst.to_str().unwrap(),
            "--alg",
            "greedy-g",
            "--metrics-json",
        ])
        .output()
        .expect("solve json runs");
    assert!(out.status.success());
    let line = String::from_utf8_lossy(&out.stdout);
    let parsed = Json::parse(line.lines().next().unwrap()).expect("valid JSON");
    assert_eq!(str_at(&parsed, &["algorithm"]), Some("Greedy-G"));
    assert!(at(&parsed, &["metrics", "admitted_volume"])
        .as_f64()
        .is_some());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_rejects_unknown_algorithm() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    edgerep()
        .args(["gen", "--seed", "1", "-o", inst.to_str().unwrap()])
        .output()
        .unwrap();
    let out = edgerep()
        .args(["solve", "-i", inst.to_str().unwrap(), "--alg", "nonsense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A multi-MB `--scale` instance loads back through the spec codec
/// unchanged, and `inspect` reads it.
#[test]
fn scaled_instance_round_trips() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-scale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("big.json");
    let out = edgerep()
        .args(["gen", "--seed", "7", "--scale", "100", "-o"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    let text = std::fs::read_to_string(&inst).unwrap();
    assert!(text.len() > 2_000_000, "{} bytes", text.len());
    assert_eq!(InstanceSpec::from_json_str(&text).unwrap().to_json(), text);
    let out = edgerep()
        .args(["inspect", "-i"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "inspect failed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("5333 queries"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_without_output_fails() {
    let out = edgerep().args(["gen", "--seed", "1"]).output().unwrap();
    assert!(!out.status.success());
}

/// Out-of-domain generator and solver arguments exit 2 with a message
/// naming the problem, never with a panic.
#[test]
fn degenerate_arguments_exit_2_without_panicking() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-degenerate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    let inst = inst.to_str().unwrap();
    let out = edgerep()
        .args(["gen", "--seed", "1", "-o", inst])
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    let cases: [(&[&str], &str); 5] = [
        (&["gen", "--queries", "0", "0"], "query_count"),
        (&["gen", "--network-size", "2"], "--network-size"),
        (&["gen", "--k", "0"], "K must be"),
        (&["gen", "--f", "0"], "datasets_per_query"),
        (
            &["solve", "-i", inst, "--alg", "all", "--shards", "1000"],
            "--shards",
        ),
    ];
    for (args, message) in cases {
        let mut cmd = edgerep();
        cmd.args(args);
        if args[0] == "gen" {
            cmd.args(["-o", dir.join("bad.json").to_str().unwrap()]);
        }
        let out = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inspect_rejects_garbage_file() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-garbage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, "{not json").unwrap();
    let out = edgerep()
        .args(["inspect", "-i", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_zero_query_instance_prints_na_deadlines() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-noq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    let out = edgerep()
        .args(["gen", "--seed", "5", "-o", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    // The generator never emits zero queries, so strip them from the spec.
    let mut spec = InstanceSpec::from_json_str(&std::fs::read_to_string(&inst).unwrap()).unwrap();
    spec.queries.clear();
    std::fs::write(&inst, spec.to_json()).unwrap();

    let out = edgerep()
        .args(["inspect", "-i", inst.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "inspect failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("deadlines: n/a (no queries)"),
        "expected n/a deadlines, got:\n{text}"
    );
    assert!(!text.contains("inf"), "no infinities leak out:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_trace_writes_parseable_ndjson_with_spans_and_rejections() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    let trace = dir.join("out.ndjson");
    let out = edgerep()
        .args([
            "gen",
            "--seed",
            "7",
            "--network-size",
            "40",
            "-o",
            inst.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");

    let out = edgerep()
        .args([
            "solve",
            "-i",
            inst.to_str().unwrap(),
            "--alg",
            "appro-g",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "solve --trace failed: {out:?}");

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!text.trim().is_empty(), "trace file is empty");
    let lines = ndjson(&text);
    // Every event carries the NDJSON envelope.
    for v in &lines {
        assert!(at(v, &["ts_us"]).as_u64().is_some(), "missing ts_us: {v:?}");
        assert!(str_at(v, &["target"]).is_some(), "missing target: {v:?}");
        assert!(str_at(v, &["event"]).is_some(), "missing event: {v:?}");
        assert!(
            matches!(at(v, &["fields"]), Json::Obj(_)),
            "missing fields: {v:?}"
        );
    }
    // Per-reason admission rejection counts appear both as the solver's
    // summary event and as registry counter dumps.
    assert!(
        lines
            .iter()
            .any(|v| str_at(v, &["event"]) == Some("admission.summary")
                && at(v, &["fields", "reject_deadline"]).as_u64().is_some()
                && at(v, &["fields", "reject_capacity"]).as_u64().is_some()
                && at(v, &["fields", "reject_replica_budget"])
                    .as_u64()
                    .is_some()),
        "no admission.summary event in trace"
    );
    assert!(
        lines
            .iter()
            .any(|v| str_at(v, &["event"]) == Some("counter")
                && str_at(v, &["fields", "name"])
                    .is_some_and(|n| n.starts_with("admission.reject."))),
        "no admission.reject.* counter dump in trace"
    );
    // Per-phase span timings: live span.close events plus the histogram dump.
    assert!(
        lines
            .iter()
            .any(|v| str_at(v, &["event"]) == Some("span.close")
                && str_at(v, &["span"]) == Some("appro.run")
                && at(v, &["fields", "duration_us"]).as_u64().is_some()),
        "no appro.run span.close event in trace"
    );
    assert!(
        lines
            .iter()
            .any(|v| str_at(v, &["event"]) == Some("histogram")
                && str_at(v, &["fields", "name"]) == Some("span.appro.run_us")
                && at(v, &["fields", "count"]).as_u64().unwrap_or(0) >= 1),
        "no span.appro.run_us histogram dump in trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_stats_prints_registry_summary() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    edgerep()
        .args(["gen", "--seed", "2", "-o", inst.to_str().unwrap()])
        .output()
        .unwrap();
    let out = edgerep()
        .args([
            "solve",
            "-i",
            inst.to_str().unwrap(),
            "--alg",
            "greedy-g",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "solve --stats failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("--- metrics: Greedy-G ---"), "{text}");
    assert!(text.contains("admission.checks"), "{text}");
    assert!(text.contains("span.greedy.solve_us"), "{text}");
    // Span timings live in their own section with quantile columns.
    assert!(text.contains("p50_us"), "{text}");
    assert!(text.contains("p95_us"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_profile_writes_folded_stacks_and_self_table() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-prof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    let folded = dir.join("p.txt");
    edgerep()
        .args([
            "gen",
            "--seed",
            "4",
            "--network-size",
            "40",
            "-o",
            inst.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let out = edgerep()
        .args([
            "solve",
            "-i",
            inst.to_str().unwrap(),
            "--alg",
            "appro-g",
            "--profile",
            folded.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "solve --profile failed: {out:?}");
    let text = std::fs::read_to_string(&folded).expect("folded stacks written");
    assert!(!text.trim().is_empty(), "folded stacks file is empty");
    // Every line is `semicolon;separated;path self_us`.
    for line in text.lines() {
        let (path, us) = line.rsplit_once(' ').expect("folded line shape");
        assert!(!path.is_empty(), "{line}");
        us.parse::<u64>()
            .unwrap_or_else(|_| panic!("bad self_us in {line}"));
    }
    // The per-iteration candidate scan nests under the solver run.
    assert!(
        text.lines()
            .any(|l| l.starts_with("appro.run;appro.select ")),
        "appro.select must nest under appro.run:\n{text}"
    );
    // The stdout table reports the tree with self/cumulative columns.
    let table = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(table.contains("self_us"), "{table}");
    assert!(table.contains("appro.select"), "{table}");

    // Flag validation matches --trace.
    let out = edgerep()
        .args(["solve", "-i", inst.to_str().unwrap(), "--profile"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--profile needs FILE"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_profile_top_self_frame_is_a_solver_span() {
    let dir = std::env::temp_dir().join(format!("edgerep-repro-prof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let folded = dir.join("fig8.folded");
    let out = repro()
        .args([
            "fig8",
            "--seeds",
            "1",
            "--profile",
            folded.to_str().unwrap(),
        ])
        .output()
        .expect("repro --profile runs");
    assert!(out.status.success(), "repro --profile failed: {out:?}");
    let text = std::fs::read_to_string(&folded).expect("folded stacks written");
    // The solver's candidate scan must be visible in the tree...
    assert!(
        text.lines().any(|l| l
            .rsplit_once(' ')
            .unwrap()
            .0
            .ends_with("appro.run;appro.select")),
        "no appro.select frame in the fig8 profile:\n{text}"
    );
    // ...and the frame with the largest self time must be a named unit of
    // work (the solver scan, the analytics engine, world generation), not
    // an event-loop or scheduler catch-all.
    let top = text
        .lines()
        .max_by_key(|l| {
            l.rsplit_once(' ')
                .and_then(|(_, us)| us.parse::<u64>().ok())
                .unwrap_or(0)
        })
        .expect("non-empty profile");
    let path = top.rsplit_once(' ').unwrap().0;
    let leaf = path.rsplit(';').next().unwrap();
    assert!(
        !matches!(
            leaf,
            "sim.loop" | "sim.run" | "runner.task" | "runner.testbed_point"
        ),
        "top self-time frame is the catch-all {leaf} (path {path}):\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_trace_without_file_fails() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-tracebad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    edgerep()
        .args(["gen", "--seed", "1", "-o", inst.to_str().unwrap()])
        .output()
        .unwrap();
    let out = edgerep()
        .args(["solve", "-i", inst.to_str().unwrap(), "--trace"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace needs FILE"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_renders_topology_figures_instantly() {
    let out = repro().args(["fig1", "fig6"]).output().expect("repro runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("two-tier edge cloud"));
    assert!(text.contains("SGP DC"));
}

#[test]
fn repro_runs_each_figure_once_in_first_mention_order() {
    let out = repro()
        .args(["fig6", "fig1", "fig6"])
        .output()
        .expect("repro runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(text.matches("Fig. 6 —").count(), 1, "{text}");
    assert_eq!(text.matches("Fig. 1 —").count(), 1, "{text}");
    assert!(text.find("Fig. 6 —") < text.find("Fig. 1 —"), "{text}");
}

#[test]
fn repro_trace_writes_ndjson_ending_in_registry_dump() {
    let dir = std::env::temp_dir().join(format!("edgerep-repro-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("fig.ndjson");
    let out = repro()
        .args(["fig2", "--seeds", "1", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("repro --trace runs");
    assert!(out.status.success(), "repro --trace failed: {out:?}");

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let lines = ndjson(&text);
    assert!(!lines.is_empty(), "trace file is empty");
    // The scheduler's per-task spans are visible in the stream...
    assert!(
        lines
            .iter()
            .any(|v| str_at(v, &["event"]) == Some("span.close")
                && str_at(v, &["span"]) == Some("runner.task")),
        "no runner.task span.close event in trace"
    );
    // ...the figure closes with a registry dump tagged with its id...
    assert!(
        lines
            .iter()
            .any(|v| str_at(v, &["event"]) == Some("counter")
                && str_at(v, &["fields", "figure"]) == Some("fig2")),
        "no fig2-tagged counter dump in trace"
    );
    // ...and the file's very last line is the dump completion marker, so
    // a truncated regeneration is distinguishable from a finished one.
    let last = lines.last().unwrap();
    assert_eq!(
        str_at(last, &["event"]),
        Some("dump.done"),
        "trace must end in dump.done: {last:?}"
    );
    assert_eq!(str_at(last, &["fields", "figure"]), Some("fig2"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_help_and_bad_args() {
    let out = repro().args(["--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
    let out = repro().args(["figZZ"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn inspect_rejects_incomplete_spec_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-nonodes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, r#"{"nodes": []}"#).unwrap();
    let out = edgerep()
        .args(["inspect", "-i", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing field \"links\""), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--fault-plan` that does not fit the world exits 2 with the reason
/// before any run starts, on both binaries.
#[test]
fn fault_plans_are_validated_on_load() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    let out = edgerep()
        .args([
            "gen",
            "--seed",
            "3",
            "--network-size",
            "20",
            "-o",
            inst.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    let plan = dir.join("plan.json");
    let run_both = |text: &str| {
        std::fs::write(&plan, text).unwrap();
        let solve = edgerep()
            .args(["solve", "-i", inst.to_str().unwrap(), "--alg", "appro-g"])
            .args(["--fault-plan", plan.to_str().unwrap()])
            .output()
            .unwrap();
        let avail = repro()
            .args(["ext-availability", "--seeds", "1", "--fault-plan"])
            .arg(&plan)
            .output()
            .unwrap();
        [solve, avail]
    };
    // Node 20 is the first id past both the 20-VM Fig. 6 world and the
    // 20-node generated instance.
    for out in run_both(r#"{"node_outages": [{"node": 20, "down_at_s": 1.0, "up_at_s": 5.0}]}"#) {
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("invalid fault plan") && err.contains("unknown node"),
            "{err}"
        );
    }
    for out in run_both(r#"{"node_outages": [{"node": 1, "down_at_s": 5.0, "up_at_s": 5.0}]}"#) {
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid fault window"), "{err}");
    }
    for out in run_both(r#"{"node_outages": [{"node": 1, "down_at_s": }]}"#) {
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("parse"),
            "{out:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `solve --shards R` labels run past 14 characters
/// (`Popularity-G/sharded`); every `: volume` colon still sits in one
/// column.
#[test]
fn sharded_solve_columns_line_up() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-cols-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    let out = edgerep()
        .args(["gen", "--seed", "1", "--network-size", "20", "-o"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    let out = edgerep()
        .args(["solve", "--alg", "all", "--shards", "4", "-i"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "solve failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let columns: Vec<usize> = text.lines().filter_map(|l| l.find(": volume")).collect();
    assert!(columns.len() >= 6, "{text}");
    assert!(columns.iter().all(|&c| c == columns[0]), "{text}");
    assert!(text.contains("Popularity-G/sharded: volume"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An outage on every node from t = 0 is a valid plan: both binaries run
/// it to the end and report that nothing survives.
#[test]
fn all_nodes_down_fault_plan_runs_to_zero() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-down-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let all_down = |nodes: usize| {
        let outages: Vec<String> = (0..nodes)
            .map(|v| format!(r#"{{"node": {v}, "down_at_s": 0.0}}"#))
            .collect();
        format!(r#"{{"node_outages": [{}]}}"#, outages.join(", "))
    };
    let no_panic = |out: &std::process::Output| {
        assert!(out.status.success(), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{err}");
    };

    // A 20-node generated world has 19 compute nodes.
    let inst = dir.join("inst.json");
    let out = edgerep()
        .args(["gen", "--seed", "1", "--network-size", "20", "-o"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    let plan = dir.join("solve-plan.json");
    std::fs::write(&plan, all_down(19)).unwrap();
    let out = edgerep()
        .args(["solve", "--alg", "appro-g", "-i"])
        .arg(&inst)
        .arg("--fault-plan")
        .arg(&plan)
        .output()
        .unwrap();
    no_panic(&out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("fault survival: 0.0 / ") && text.contains("19 node(s) faulted"),
        "{text}"
    );

    // The Fig. 6 testbed world has 20 VMs: every volume and availability
    // cell reads zero.
    let plan = dir.join("testbed-plan.json");
    std::fs::write(&plan, all_down(20)).unwrap();
    let out = repro()
        .args(["ext-availability", "--seeds", "1", "--fault-plan"])
        .arg(&plan)
        .output()
        .unwrap();
    no_panic(&out);
    let text = String::from_utf8_lossy(&out.stdout);
    let mut cells = 0;
    for line in text.lines() {
        let mut fields = line.split('|').map(str::trim);
        // Table rows start with the K value; headings and titles do not.
        if fields.next().is_none_or(|k| k.parse::<usize>().is_err()) {
            continue;
        }
        for cell in fields {
            let mean: f64 = cell.split('±').next().unwrap().trim().parse().unwrap();
            assert_eq!(mean, 0.0, "{line}");
            cells += 1;
        }
    }
    assert!(cells >= 24, "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes the pipe early (`| head -1`) ends both binaries
/// quietly instead of panicking on the next print.
#[test]
fn closed_stdout_pipe_ends_quietly() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;

    let dir = std::env::temp_dir().join(format!("edgerep-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    let out = edgerep()
        .args(["gen", "--seed", "1", "-o"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    // Each command prints its first line well before its next one (the
    // next algorithm's solve, the next figure's runs), so the next print
    // meets a closed pipe.
    let solve = {
        let mut c = edgerep();
        c.args(["solve", "--alg", "all", "--transfer", "p2p", "-i"])
            .arg(&inst);
        c
    };
    let figures = {
        let mut c = repro();
        c.args(["fig2", "fig3", "--quick"]);
        c
    };
    for mut cmd in [solve, figures] {
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        let mut first = String::new();
        // The reader, and with it the pipe's read end, drops here.
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut first)
            .unwrap();
        assert!(!first.is_empty(), "{cmd:?} printed nothing");
        let mut err = String::new();
        child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut err)
            .unwrap();
        let status = child.wait().unwrap();
        assert!(!err.contains("panicked"), "{cmd:?}: {err}");
        assert_ne!(status.code(), Some(101), "{cmd:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Both transfer presets run on the one engine and its FIFO egress, so
/// without faults `--transfer p2p` and `--transfer chunked` measure the
/// same volume for every algorithm.
#[test]
fn transfer_presets_measure_the_same_volumes() {
    let dir = std::env::temp_dir().join(format!("edgerep-cli-xfer-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");
    let out = edgerep()
        .args(["gen", "--seed", "1", "-o"])
        .arg(&inst)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {out:?}");
    let measured = |model: &str| -> Vec<String> {
        let out = edgerep()
            .args(["solve", "--alg", "all", "--transfer", model, "-i"])
            .arg(&inst)
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter_map(|l| l.split("]: ").nth(1))
            .map(str::to_owned)
            .collect()
    };
    let p2p = measured("p2p");
    assert_eq!(p2p.len(), 6, "{p2p:?}");
    assert!(
        p2p[0].starts_with("measured 167.0 of 194.1 GB planned"),
        "Appro-G: {}",
        p2p[0]
    );
    assert_eq!(p2p, measured("chunked"));
    std::fs::remove_dir_all(&dir).ok();
}

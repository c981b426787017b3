#!/usr/bin/env bash
# Local CI: the exact gates a PR must pass, in the order they fail fastest.
#
#   scripts/ci.sh            # fmt + clippy + tier-1 build & tests
#   scripts/ci.sh --no-fmt   # skip the formatting gate (e.g. older rustfmt)
#
# Tier-1 (ROADMAP.md): cargo build --release && cargo test -q
#
# The workspace has no external crates, so every cargo command runs with
# --offline: no step needs registry access.
set -euo pipefail
cd "$(dirname "$0")/.."

run_fmt=1
for arg in "$@"; do
    case "$arg" in
        --no-fmt) run_fmt=0 ;;
        *) echo "unknown flag: $arg" >&2; exit 2 ;;
    esac
done

if [ "$run_fmt" -eq 1 ]; then
    echo "== cargo fmt --check =="
    cargo fmt --all -- --check
fi

echo "== cargo clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --offline --release

echo "== tier-1: cargo test -q =="
cargo test --offline -q

# The flattened seed × algorithm scheduler must be output-invisible: run
# the cross-crate determinism suite by name so a filtered `cargo test`
# invocation can never silently skip it.
echo "== determinism: flattened schedule == sequential baseline =="
cargo test --offline -q -p edgerep-exp --test integration_determinism

# The solver hot path (cached candidate matrix, batched dual prices,
# dirty-set select) and
# the rolling incremental-replan fast path must stay byte-identical to
# their naive reference paths, and the transfer engine's chunked preset
# must measure exactly what its point-to-point preset does without
# faults: run the equivalence pins by name so a filtered run can never
# silently skip them.
echo "== equivalence: cached hot path == naive reference =="
cargo test --offline -q -p edgerep-core --lib appro::tests::cached_scan
cargo test --offline -q -p edgerep-testbed --test appro_equivalence
cargo test --offline -q -p edgerep-core --test proptests solvers_tolerate_disconnected_topologies
cargo test --offline -q -p edgerep-testbed --lib rolling::tests::replan_skips_on_empty_diff_and_reuses_layout_verbatim
cargo test --offline -q -p edgerep-testbed --lib rolling::tests::cached_world_stamps_identical_instances
cargo test --offline -q -p edgerep-shard --lib solver::tests::r1_wrapper_matches_the_inner_algorithm_exactly
cargo test --offline -q -p edgerep-testbed --lib sim::tests::chunked_without_faults_is_byte_identical_to_p2p
cargo test --offline -q -p edgerep-exp --test cli transfer_presets_measure_the_same_volumes

# Smoke the traced figure regeneration: every line must be JSON and the
# file must end in the registry-dump completion marker.
echo "== repro --trace smoke =="
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
cargo run --offline -q -p edgerep-exp --release --bin repro -- fig2 --seeds 1 \
    --trace "$trace_tmp/fig2.ndjson" > /dev/null
if command -v python3 > /dev/null; then
    python3 -c 'import json,sys
[json.loads(l) for l in open(sys.argv[1])]' "$trace_tmp/fig2.ndjson"
fi
tail -n 1 "$trace_tmp/fig2.ndjson" | grep -q '"event":"dump.done"' \
    || { echo "repro --trace did not end in a dump.done line" >&2; exit 1; }

# The global select re-plans only the pending queries a commit can change
# (the dirty set). Gate its work, not its time: `appro.plans` is
# deterministic, and a full rescan after every commit makes 312,373 plans
# on this world where the dirty set makes 80,225.
echo "== appro-g work gate: appro.plans on gen --seed 1 --scale 16 =="
cargo run --offline -q -p edgerep-exp --release --bin edgerep -- gen --seed 1 --scale 16 \
    -o "$trace_tmp/scale16.json" > /dev/null
cargo run --offline -q -p edgerep-exp --release --bin edgerep -- solve \
    -i "$trace_tmp/scale16.json" --alg appro-g --stats > "$trace_tmp/scale16.txt"
grep -q 'volume 2558.66 GB' "$trace_tmp/scale16.txt" \
    || { echo "appro-g no longer admits 2558.66 GB on --scale 16" >&2; exit 1; }
plans="$(awk '$1 == "appro.plans" { print $2 }' "$trace_tmp/scale16.txt")"
test -n "$plans" || { echo "solve --stats printed no appro.plans counter" >&2; exit 1; }
if [ "$plans" -gt 100000 ]; then
    echo "appro.plans = $plans on --scale 16, above the 100,000 gate" >&2
    exit 1
fi

# Smoke the predictive-replication extension: the trace must close with
# the registry dump and contain at least one forecast.predict span from
# the per-epoch prediction step.
echo "== repro ext-forecast --trace smoke =="
cargo run --offline -q -p edgerep-exp --release --bin repro -- ext-forecast --seeds 2 \
    --trace "$trace_tmp/ext-forecast.ndjson" > /dev/null
tail -n 1 "$trace_tmp/ext-forecast.ndjson" | grep -q '"event":"dump.done"' \
    || { echo "ext-forecast trace did not end in a dump.done line" >&2; exit 1; }
grep -q '"span":"forecast.predict"' "$trace_tmp/ext-forecast.ndjson" \
    || { echo "ext-forecast trace has no forecast.predict span event" >&2; exit 1; }

# Smoke the chunked transfer engine under the correlated-storm preset:
# the traced run must show both interruption outcomes — at least one
# transfer resumed with its verified chunks intact and at least one
# abandoned after retry exhaustion. Five seeds: on seeds 0-2 alone no
# storm catches a transfer that later resumes.
echo "== repro ext-availability --storm --trace smoke =="
cargo run --offline -q -p edgerep-exp --release --bin repro -- ext-availability --storm --seeds 5 \
    --trace "$trace_tmp/storm.ndjson" > /dev/null
grep -q '"event":"transfer.resume"' "$trace_tmp/storm.ndjson" \
    || { echo "storm trace has no transfer.resume event" >&2; exit 1; }
grep -q '"event":"transfer.abandoned"' "$trace_tmp/storm.ndjson" \
    || { echo "storm trace has no transfer.abandoned event" >&2; exit 1; }

# Smoke the erasure-coding extension: the traced run must show shard-set
# physics actually exercised — degraded reads served below full shard
# strength and the Background-tier scrubber detecting/rebuilding shards.
echo "== repro ext-ec --quick --trace smoke =="
cargo run --offline -q -p edgerep-exp --release --bin repro -- ext-ec --quick \
    --trace "$trace_tmp/ec.ndjson" > /dev/null
grep -q '"event":"ec.degraded_read"' "$trace_tmp/ec.ndjson" \
    || { echo "ext-ec trace has no ec.degraded_read event" >&2; exit 1; }
grep -q '"event":"ec.scrub"' "$trace_tmp/ec.ndjson" \
    || { echo "ext-ec trace has no ec.scrub event" >&2; exit 1; }

# Smoke the sharded regional solver: the traced run must show the shard
# fan-out (shard.solve) and the boundary reconciliation pass actually
# running (shard.reconcile) for the R > 1 cells.
echo "== repro ext-shard --quick --trace smoke =="
cargo run --offline -q -p edgerep-exp --release --bin repro -- ext-shard --quick \
    --trace "$trace_tmp/shard.ndjson" > /dev/null
grep -q '"span":"shard.solve"' "$trace_tmp/shard.ndjson" \
    || { echo "ext-shard trace has no shard.solve span event" >&2; exit 1; }
grep -q '"span":"shard.reconcile"' "$trace_tmp/shard.ndjson" \
    || { echo "ext-shard trace has no shard.reconcile span event" >&2; exit 1; }

# Smoke the figure schema: ext-shard declares its own metrics, so the CSV
# must carry a solve_ms column, each declared metric must get its own
# well-formed SVG, and no chart may be drawn for an undeclared metric.
echo "== repro ext-shard --csv --svg --md schema smoke =="
schema_dir="$trace_tmp/schema"
cargo run --offline -q -p edgerep-exp --release --bin repro -- ext-shard --seeds 1 \
    --csv "$schema_dir" --svg "$schema_dir" --md "$schema_dir" > /dev/null
head -n 1 "$schema_dir/ext-shard.csv" | grep -q 'solve_ms_mean' \
    || { echo "ext-shard CSV header has no solve_ms_mean column" >&2; exit 1; }
test ! -e "$schema_dir/ext-shard_throughput.svg" \
    || { echo "ext-shard wrote a chart for undeclared metric throughput" >&2; exit 1; }
for key in $(head -n 1 "$schema_dir/ext-shard.csv" | tr ',' '\n' | sed -n 's/_mean$//p'); do
    svg="$schema_dir/ext-shard_$key.svg"
    test -s "$svg" || { echo "ext-shard has no chart for metric $key" >&2; exit 1; }
    if command -v python3 > /dev/null; then
        python3 -c 'import sys, xml.dom.minidom; xml.dom.minidom.parse(sys.argv[1])' "$svg"
    fi
done

# Smoke the span-tree profiler end to end: folded stacks are written and
# the traced stream carries the profile.dump completion event.
echo "== repro --profile smoke =="
cargo run --offline -q -p edgerep-exp --release --bin repro -- fig2 --seeds 1 \
    --profile "$trace_tmp/fig2.folded" --trace "$trace_tmp/fig2prof.ndjson" > /dev/null
test -s "$trace_tmp/fig2.folded" \
    || { echo "repro --profile wrote no folded stacks" >&2; exit 1; }
grep -q '"event":"profile.dump"' "$trace_tmp/fig2prof.ndjson" \
    || { echo "traced profile run has no profile.dump event" >&2; exit 1; }

# The newest BENCH_<n>.json snapshot (scripts/bench.sh) must hold every
# BENCHMARK.json workload untraced and traced, with no failed operation,
# every end-to-end metric in the untraced runs, and in the traced runs the
# layer metrics of Appro's select, the sharded solve and span coverage.
echo "== BENCH snapshot check =="
if command -v python3 > /dev/null; then
    python3 - <<'EOF'
import glob, json, re
bench = json.load(open("BENCHMARK.json"))
snapshots = {int(m.group(1)): f for f in glob.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", f))}
assert snapshots, "no BENCH_<n>.json snapshot in the checkout"
path = snapshots[max(snapshots)]
runs = {(r["workload"], r["trace"]): r for r in json.load(open(path))["runs"]}
expected = {(w["name"], t) for w in bench["workloads"] for t in (0, 1)}
assert set(runs) == expected, (path, sorted(runs))
layer = ("core.plans_per_commit", "shard.solve_sharded_ms", "trace.span_coverage")
for (workload, trace), run in sorted(runs.items()):
    result = run["result"]
    assert result["failed"] == 0 and result["correct"], (path, workload, trace)
    names = [m["name"] for m in bench["end_to_end"]] if trace == 0 else layer
    missing = [n for n in names if n not in result["metrics"]]
    assert not missing, (path, workload, trace, missing)
EOF
fi

# Benchmark smoke: the benchmark compiles the workspace crates it calls
# with plain rustc, so a workspace API change that breaks it fails here.
# One short untraced run per workload must finish with no failed
# operation.
if command -v python3 > /dev/null; then
    for workload in scale-solve paper-sweep testbed; do
        echo "== perfbench smoke: $workload =="
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 0 \
            | tail -n 1 | grep -q '"failed": 0' \
            || { echo "perfbench $workload reported failed operations" >&2; exit 1; }
    done
fi

echo "ci: all gates passed"

#!/usr/bin/env bash
# Records a benchmark snapshot: runs every workload of BENCHMARK.json
# untraced and traced through perfbench/run.py (seed 1, BENCHMARK.json's
# run_seconds each) and writes the six result files, verbatim, into one
# BENCH_<n>.json at the repo root. When an earlier snapshot exists, it
# prints `run.py compare` ratios against the newest one.
#
#   scripts/bench.sh
#
# Exits non-zero, and writes no snapshot, when a run fails an operation
# or reports correct: false. It gates nothing else: one snapshot on a
# shared machine cannot carry a regression verdict (perfbench/README.md
# measured 2x swings from one minute to the next). Delete the newest
# BENCH file to retract a bad measurement.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ "$#" -ne 0 ]; then
    echo "scripts/bench.sh takes no arguments" >&2
    exit 2
fi

python3 - <<'EOF'
import glob, json, os, re, subprocess, sys, tempfile

bench = json.load(open("BENCHMARK.json"))
results = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench", "results")

# The first snapshot is BENCH_24.json; each later one takes the next index.
snapshots = {int(m.group(1)): f for f in glob.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", f))}
prev = snapshots[max(snapshots)] if snapshots else None
out = f"BENCH_{max([23, *snapshots]) + 1}.json"

runs = []
for workload in (w["name"] for w in bench["workloads"]):
    for trace in (0, 1):
        print(f"== {workload} --trace {trace} ==", flush=True)
        cmd = [*bench["command"], "--workload", workload, "--seed", "1",
               "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
        if subprocess.run(cmd).returncode != 0:
            sys.exit(f"bench: {workload} --trace {trace} did not finish")
        with open(os.path.join(results, f"{workload}-seed1-trace{trace}.json")) as f:
            runs.append(json.load(f))
bad = [f"{r['workload']} --trace {r['trace']}" for r in runs
       if r["result"]["failed"] > 0 or not r["result"]["correct"]]
if bad:
    sys.exit(f"bench: failed operations in {', '.join(bad)}; no snapshot written")
with open(out, "w") as f:
    json.dump({"runs": runs}, f, indent=1)
    f.write("\n")
print(f"wrote {out}")

if prev is None:
    print("no earlier BENCH file: nothing to compare against")
    sys.exit(0)
old = {(r["workload"], r["trace"]): r for r in json.load(open(prev))["runs"]}
with tempfile.TemporaryDirectory() as tmp:
    for new in runs:
        key = (new["workload"], new["trace"])
        print(f"== compare {prev} -> {out}: {key[0]} --trace {key[1]} ==", flush=True)
        if key not in old:
            print(f"{prev} has no such run")
            continue
        paths = [os.path.join(tmp, name) for name in ("base.json", "new.json")]
        for path, run in zip(paths, (old[key], new)):
            with open(path, "w") as f:
                json.dump(run, f)
        # compare refuses runs whose provenance differs beyond the
        # sources; its message is on stderr and the pair is skipped.
        if subprocess.run([*bench["command"], "compare", *paths]).returncode != 0:
            print("(not compared)")
EOF

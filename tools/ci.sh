#!/usr/bin/env bash
# CI driver: sanitizer pass first (cheapest way to surface memory/UB bugs
# with full context), then the warnings-clean RelWithDebInfo tier-1 suite
# that gates every PR. Run from anywhere; paths resolve to the repo root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

jobs="$(nproc 2>/dev/null || echo 4)"

echo "==> [1/4] debug-asan: build + ctest (AddressSanitizer, recover=off)"
cmake --preset debug-asan
cmake --build --preset debug-asan -j "$jobs"
ctest --preset debug-asan -j "$jobs"

echo "==> [1b/4] debug-ubsan: input-reader mutation tests (UBSan incl. float-cast-overflow)"
# The seeded mutation tests feed hostile input to every hand-rolled reader:
# trace CSVs to the obs and scenario readers, tc command lines to the tc
# DSL, and argv to tlsim. A NaN or huge number that slips through becomes
# an integer time, size or rate that only float-cast-overflow reports.
# FlatIndexMutation (test_obs) feeds seeded and extreme chunk indexes and
# delivery instants to the attribution engine's sorted-vector index.
cmake --preset debug-ubsan
cmake --build --preset debug-ubsan -j "$jobs" \
  --target test_obs test_scenario test_tc test_runtime
ctest --preset debug-ubsan -R Mutation -j "$jobs"

smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

echo "==> [2/4] determinism + unit-escape + layer-DAG lint over src/"
# The JSON findings dump is archived next to the BENCH_*.json artifacts so
# a lint regression is diffable like a perf regression.
./build-asan/tools/tls_lint src --allowlist tools/tls_lint_allow.txt \
  --layers tools/layers.txt --prune-allowlist \
  --json "$smoke_dir/LINT_findings.json"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "==> [2b/4] clang-tidy (.clang-tidy profile, compile_commands.json)"
  clang-tidy -p build-asan src/simcore/*.cpp src/net/*.cpp tools/*.cpp
else
  echo "==> [2b/4] clang-tidy not installed; skipping (profile: .clang-tidy)"
fi

echo "==> [2c/4] trace smoke: tlsim --trace/--metrics under ASan"
./build-asan/tools/tlsim run --hosts 4 --jobs 4 --workers 3 --iters 2 \
  --placement 1 --policy tls-rr --seed 5 \
  --trace "$smoke_dir/trace.json" --trace-csv "$smoke_dir/trace.csv" \
  --metrics "$smoke_dir/metrics.csv" >/dev/null
for f in trace.json trace.csv metrics.csv; do
  [ -s "$smoke_dir/$f" ] || { echo "missing obs artifact $f"; exit 1; }
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_dir/trace.json" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert events, "trace has no events"
assert all("ph" in e and "pid" in e for e in events), "malformed event"
print(f"trace OK: {len(events)} events")
PYEOF
else
  echo "python3 not installed; skipping trace JSON well-formedness check"
fi

echo "==> [2d/4] tlsreport smoke: attribution report + diff under ASan"
for pol in fifo tls-one; do
  ./build-asan/tools/tlsim run --hosts 3 --jobs 2 --workers 2 --iters 2 \
    --placement 1 --policy "$pol" --seed 5 \
    --trace-csv "$smoke_dir/$pol.csv" \
    --report "$smoke_dir/$pol.txt" --report-json "$smoke_dir/$pol.json" \
    >/dev/null
done
./build-asan/tools/tlsreport "$smoke_dir/fifo.csv" --quiet \
  --json "$smoke_dir/fifo-offline.json"
cmp "$smoke_dir/fifo.json" "$smoke_dir/fifo-offline.json" \
  || { echo "offline tlsreport diverges from in-process report"; exit 1; }
./build-asan/tools/tlsreport --diff "$smoke_dir/fifo.csv" \
  "$smoke_dir/tls-one.csv" --json "$smoke_dir/diff.json" >/dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_dir/fifo.json" "$smoke_dir/diff.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["schema"] == "tlsreport-v2", report.get("schema")
assert report["jobs"], "report has no job rollups"
diff = json.load(open(sys.argv[2]))
assert diff["schema"] == "tlsreport-diff-v2", diff.get("schema")
print(f"tlsreport OK: {len(report['jobs'])} jobs, "
      f"{len(diff['jobs'])} diffed")
PYEOF
else
  echo "python3 not installed; skipping report JSON well-formedness check"
fi

echo "==> [2d2/4] dashboard smoke: --html/--follow under ASan"
# Single-run dashboard, diff dashboard, and a bounded follow over the same
# (static) trace — follow's final report must equal the in-process one too.
./build-asan/tools/tlsreport "$smoke_dir/fifo.csv" --quiet \
  --html "$smoke_dir/fifo.html"
./build-asan/tools/tlsreport --diff "$smoke_dir/fifo.csv" \
  "$smoke_dir/tls-one.csv" --quiet --html "$smoke_dir/diff.html"
./build-asan/tools/tlsreport --follow "$smoke_dir/fifo.csv" --quiet \
  --poll-ms 10 --max-polls 3 --html "$smoke_dir/follow.html" \
  --json "$smoke_dir/fifo-follow.json"
cmp "$smoke_dir/fifo.json" "$smoke_dir/fifo-follow.json" \
  || { echo "follow-mode tlsreport diverges from in-process report"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_dir/fifo.html" "$smoke_dir/diff.html" <<'PYEOF'
import json, sys
for path in sys.argv[1:]:
    page = open(path).read()
    assert page.startswith("<!doctype html>"), path
    assert page.rstrip().endswith("</html>"), path
    # Self-contained: nothing fetched from anywhere.
    for banned in ("http://", "https://", "src=", "href="):
        assert banned not in page, f"{path}: external reference {banned!r}"
    # The embedded report JSON must parse and carry the right schema.
    marker = '<script type="application/json" id="tlsreport-a">'
    start = page.index(marker) + len(marker)
    end = page.index("</script>", start)
    doc = json.loads(page[start:end].replace("\\u003c", "<"))
    assert doc["schema"] in ("tlsreport-v2", "tlsreport-diff-v2"), path
print("dashboard OK: self-contained, embedded JSON parses")
PYEOF
else
  echo "python3 not installed; skipping dashboard well-formedness check"
fi

echo "==> [2d3/4] bench_obs_streaming smoke: offline vs in-process report"
cmake --build --preset debug-asan -j "$jobs" --target bench_obs_streaming
env TLS_BENCH_ITERS=2 TLS_BENCH_JSON_DIR="$smoke_dir" \
  ./build-asan/bench/bench_obs_streaming >/dev/null
[ -s "$smoke_dir/BENCH_obs_streaming.json" ] \
  || { echo "missing BENCH_obs_streaming.json"; exit 1; }

echo "==> [2e/4] scenario smoke: tlsim scenario + trace replay under ASan"
./build-asan/tools/tlsim scenario --hosts 4 --cores 4 \
  --scenario-jobs 6 --scenario-mean-s 2 --scenario-workers-min 2 \
  --scenario-workers-max 3 --scenario-iters-min 3 --scenario-iters-max 5 \
  --scenario-batch 1 --scenario-sample-s 0 --seed 5 \
  --scenario-out "$smoke_dir/scenario.json" \
  --scenario-csv "$smoke_dir/scenario.csv" \
  --scenario-trace-out "$smoke_dir/scenario-trace.csv" >/dev/null
for f in scenario.json scenario.csv scenario-trace.csv; do
  [ -s "$smoke_dir/$f" ] || { echo "missing scenario artifact $f"; exit 1; }
done
# Replaying the emitted trace must reproduce the generated run exactly.
# (trace_seed is metadata: replayed CSVs record 0, generated runs the seed.)
./build-asan/tools/tlsim scenario --hosts 4 --cores 4 \
  --scenario-trace "$smoke_dir/scenario-trace.csv" \
  --scenario-sample-s 0 --seed 5 \
  --scenario-out "$smoke_dir/scenario-replay.json" >/dev/null
cmp <(grep -v '"trace_seed"' "$smoke_dir/scenario.json") \
    <(grep -v '"trace_seed"' "$smoke_dir/scenario-replay.json") \
  || { echo "scenario trace replay diverges from generated run"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$smoke_dir/scenario.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "scenario-v1", doc.get("schema")
counts = doc["counts"]
assert counts["jobs"] == len(doc["jobs_detail"]) == 6, counts
assert counts["completed"] + counts["evicted"] \
    + counts["rejected"] + counts["unfinished"] == 6
print(f"scenario OK: {counts['completed']} completed, "
      f"horizon {doc['horizon_s']:.1f} s")
PYEOF
else
  echo "python3 not installed; skipping scenario JSON well-formedness check"
fi

echo "==> [2f/4] bench_simcore smoke: queue mixes + fabric drain under ASan"
cmake --build --preset debug-asan -j "$jobs" --target bench_simcore
env TLS_BENCH_SIMCORE_OPS=2000 TLS_BENCH_SIMCORE_HOSTS=64 TLS_BENCH_ITERS=2 \
  TLS_BENCH_JSON_DIR="$smoke_dir" ./build-asan/bench/bench_simcore >/dev/null
[ -s "$smoke_dir/BENCH_simcore.json" ] \
  || { echo "missing BENCH_simcore.json"; exit 1; }

echo "==> [2g/4] bench_diff: perf trajectory vs committed BENCH baselines"
# Non-fatal: smoke runs use tiny iteration counts (workload-changed rows)
# and ASan wall clock is noisy; the table is for eyeballs, the exit code
# only warns.
cmake --build --preset debug-asan -j "$jobs" --target bench_diff
./build-asan/tools/bench_diff . "$smoke_dir" --max-regress-pct 15 \
  || echo "bench_diff: regression worse than 15% (non-fatal; see table above)"

echo "==> [3/4] debug-tsan: tls::runtime fan-out + both plan runners under ThreadSanitizer"
# Runner* calls fan_out directly and through run_plan; ScenarioRunner*/
# ScenarioPlan* drive run_scenario_plan through the same fan-out.
cmake --preset debug-tsan
cmake --build --preset debug-tsan -j "$jobs" --target test_runtime
(cd build-tsan && ctest -R '^(Runner|ScenarioRunner|ScenarioPlan)' \
  --output-on-failure -j "$jobs")

echo "==> [4/4] ci preset: RelWithDebInfo + TLS_WERROR=ON, tier-1 ctest"
cmake --preset ci
cmake --build --preset ci -j "$jobs"
ctest --preset ci -j "$jobs"

# tools/peak_rss runs a command and prints its peak RSS in KiB on stderr,
# read by wait4 from a small C++ parent: a Python wrapper's
# RUSAGE_CHILDREN would include the interpreter's own RSS (~14 MB).
# check_peak_rss LABEL COMMAND... fails unless COMMAND succeeds with a peak
# under 100 MB; COMMAND's stdout goes to /dev/null.
check_peak_rss() {
  local label="$1" peak_kb
  shift
  peak_kb="$(./build-ci/tools/peak_rss "$@" 2>&1 >/dev/null)" \
    || { echo "$label failed: $peak_kb"; exit 1; }
  [ "$peak_kb" -lt 102400 ] \
    || { echo "$label peak RSS $peak_kb KiB >= 100 MB"; exit 1; }
  echo "$label OK: peak RSS $peak_kb KiB (ceiling 100 MB)"
}

echo "==> [4b/4] in-process report memory: 60-iteration paper run"
# The trace CSV and the report stream from tracer sinks, so a paper run
# with both peaks near 21 MB (about 5 MB untraced) instead of holding the
# whole event log (977 MB when every event was kept). build-ci, not
# build-asan: ASan inflates RSS.
check_peak_rss "in-process report" ./build-ci/tools/tlsim run --policy tls-one \
  --threads 1 --trace-csv "$smoke_dir/paper.csv" \
  --report "$smoke_dir/paper.txt" --report-json "$smoke_dir/paper.json"
# Both renderings, as perfbench's pass check compares them: the offline
# text report (tlsreport's stdout) and the JSON.
./build-ci/tools/tlsreport "$smoke_dir/paper.csv" \
  --json "$smoke_dir/paper-offline.json" > "$smoke_dir/paper-offline.txt"
cmp "$smoke_dir/paper.json" "$smoke_dir/paper-offline.json" \
  || { echo "offline tlsreport JSON diverges from in-process report"; exit 1; }
cmp "$smoke_dir/paper.txt" "$smoke_dir/paper-offline.txt" \
  || { echo "offline tlsreport text diverges from in-process report"; exit 1; }
rm -f "$smoke_dir/paper.csv"

echo "==> [4c/4] event-core memory: long sparse churn scenario"
# 120 Poisson arrivals 36 s apart on average, all scheduled up front, with
# microsecond-scale chunk events in between. The event heap and its slot
# table must follow the pending events, not the delivered ones: when an
# earlier calendar queue kept consumed bucket entries this run peaked at
# 458 MB. build-ci, not build-asan: ASan inflates RSS.
check_peak_rss "sparse churn" ./build-ci/tools/tlsim scenario --hosts 12 \
  --cores 6 --scenario-admission share --link-gbps 2.5 --policy tls-rr \
  --interval-s 20 --seed 7 --scenario-arrivals poisson --scenario-jobs 120 \
  --scenario-mean-s 36 --scenario-workers-min 4 --scenario-workers-max 8 \
  --scenario-iters-min 40 --scenario-iters-max 160 --scenario-batch 1 \
  --scenario-evict-frac 0.1 --scenario-evict-min-s 30 \
  --scenario-evict-max-s 120 --threads 1

echo "==> ci.sh: all green"

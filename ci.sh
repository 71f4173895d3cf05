#!/usr/bin/env bash
# The CI gate, all of it: .github/workflows/ci.yml installs a toolchain and
# runs this file, nothing else.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# Every gate announces itself through `gate`, which first prints the wall
# time of the one before it; the script ends with the total.
GATE=""
gate() {
  [ -z "$GATE" ] || echo "    [$((SECONDS - GATE_START)) s] $GATE"
  GATE="$1"
  GATE_START=$SECONDS
  [ -z "$GATE" ] || echo "==> $GATE"
}

gate "cargo build --release"
cargo build --release

# The static gates run before anything is timed, so that no bench verdict
# can mask them.
gate "cargo fmt --check"
cargo fmt --check

gate "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

gate "cargo doc --no-deps --workspace (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

gate "DESIGN.md §6 module map (every named path exists, every source file is named)"
sed -n '/^## 6\. Module map/,/^## 7\./p' DESIGN.md | grep -E '^(crates|src|tests|examples)/' \
  | while read -r expr; do eval "printf '%s\n' $expr"; done | sort >target/module_map.txt
test -s target/module_map.txt
while read -r f; do
  test -f "$f" || { echo "    DESIGN.md §6 names $f, which does not exist"; exit 1; }
done <target/module_map.txt
unnamed="$(find crates/*/src src -name '*.rs' | sort | comm -23 - target/module_map.txt)"
test -z "$unnamed" || { echo "    DESIGN.md §6 does not name: $unnamed"; exit 1; }
echo "    $(wc -l <target/module_map.txt) paths named, all present"

gate "size ledger (lines above each file's first #[cfg(test)]; printed), structure greps and the pub-item scan (gated)"
ledger() {
  find "$@" -name '*.rs' | sort | while read -r f; do
    awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0, FILENAME}' "$f"
  done | sort -n | awk '{s+=$1; last=$0} END{print "total " s "  largest " last}'
}
echo "    adscope + netsim:     $(ledger crates/adscope/src crates/netsim/src)"
echo "    obs:                  $(ledger crates/obs/src)"
echo "    abp-filter:           $(ledger crates/abp-filter/src)"
echo "    src/bin/experiments:  $(ledger src/bin/experiments)"
# Every pub item has a caller. A `pub` item above the ledger's cut in a
# library crate (but bench) must be named in another crate's non-test
# source: crates/*/src above the cut, src/ (the experiments binary),
# examples/. A comment line or a `pub use` re-export is no caller. What
# only tests read, or what other crates reach through another item without
# naming it, is listed in ci/pub_allowlist.txt with its reader; an item one
# crate alone uses is pub(crate), where clippy's dead_code lint guards it.
# Prints each uncalled item, then each allowlist line that names no
# uncalled item (a stale entry).
pub_scan() {
  awk '
    function crate_of(p) {
      if (match(p, /crates\/[^\/]+\//)) return substr(p, RSTART + 7, RLENGTH - 8)
      return "annoyed-users"
    }
    FILENAME == "ci/pub_allowlist.txt" {
      if ($0 !~ /^#/ && NF >= 3) allowed[$1 " " $2] = 0
      next
    }
    FNR == 1 { crate = crate_of(FILENAME); cut = 0; reexport = 0 }
    cut { next }
    /^#\[cfg\(test\)\]/ { cut = 1; next }
    items {
      decl = $0
      if (sub(/^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*fn[ \t]+/, "", decl)) kind = "fn"
      else if (match(decl, /^[ \t]*pub[ \t]+(struct|enum|const|static|type|trait)[ \t]+/)) {
        kind = substr(decl, RSTART, RLENGTH); sub(/^[ \t]*pub[ \t]+/, "", kind); sub(/[ \t]+$/, "", kind)
        decl = substr(decl, RSTART + RLENGTH)
      } else next
      name = decl; sub(/[^A-Za-z0-9_]+.*/, "", name)
      seen_by = callers[name]; gsub("," crate ",", "", seen_by)
      if (seen_by != "") next
      key = crate " " name
      if (key in allowed) allowed[key] = 1
      else print FILENAME ":" FNR ": pub " kind " " name " (" crate ") has no caller in another crate"
      next
    }
    reexport || /^[ \t]*pub(\([a-z]+\))?[ \t]+use[ \t]/ { reexport = ($0 !~ /;/); next }
    /^[ \t]*\/\// { next }
    {
      n = split($0, word, /[^A-Za-z0-9_]+/)
      for (i = 1; i <= n; i++)
        if (word[i] != "" && index(callers[word[i]], "," crate ",") == 0)
          callers[word[i]] = callers[word[i]] "," crate ","
    }
    END { for (key in allowed) if (!allowed[key]) print "ci/pub_allowlist.txt: " key " has a caller or is gone" }
  ' ci/pub_allowlist.txt $(find crates/*/src src examples -name '*.rs' | sort) items=1 "$@"
}
lib_sources="$(find crates/*/src -name '*.rs' ! -path 'crates/bench/*' | sort)"
uncalled="$(pub_scan $lib_sources)"
test -z "$uncalled" || { echo "$uncalled" | sed 's/^/    /'; exit 1; }
# The scan must still see: an unused pub fn planted in stats is its one finding.
mkdir -p target/pub_scan/crates/stats/src
echo 'pub fn planted_unused_pub_fn() {}' >target/pub_scan/crates/stats/src/planted.rs
planted="$(pub_scan $lib_sources target/pub_scan/crates/stats/src/planted.rs)"
test "$planted" = "target/pub_scan/crates/stats/src/planted.rs:1: pub fn planted_unused_pub_fn (stats) has no caller in another crate" \
  || { echo "    the pub-item scan missed a planted unused pub fn: $planted"; exit 1; }
echo "    every pub item has a caller or an allowlist line ($(grep -cv -e '^#' -e '^$' ci/pub_allowlist.txt) lines)"
# One argv cursor (cli.rs): a hand-rolled flag loop must not come back.
if grep -n 'while i < args.len()' src/bin/experiments/*.rs; then exit 1; fi
# One plane set (adscope::planes): the stream's worker and router carry it
# whole and name no plane type, and a plane's checkpoint key is spelled in
# stream/checkpoint.rs alone. Each user's counters ride in its own line, so
# no manifest key names them, there or anywhere.
if grep -nE 'WindowAggregator|PopulationSketches|DecodeWindows' \
  crates/adscope/src/stream/worker.rs crates/adscope/src/stream/router.rs; then exit 1; fi
if grep -rnE '\\?"(households|decode_windows)\\?"' crates/adscope/src \
  | grep -v '^crates/adscope/src/stream/checkpoint.rs:'; then exit 1; fi
if grep -rnE '\\?"tallies\\?"' crates/adscope/src; then exit 1; fi
# One reply channel of each kind per worker: a barrier's acks come back each
# on its worker's own channel, so a worker that died is a closed channel, not
# a hang on an ack channel the live workers keep open.
if grep -rnF '(usize, WorkerAck)' crates/adscope/src/stream/; then exit 1; fi
# A plane is its own total: one plane-set type, and one form of window series
# (a dense, additive accumulator over a static schema), so no totals twin, no
# series registration and no open-window cap may come back.
if grep -rnE 'PlaneTotals|counter_series|hist_series|CounterId|HistId|MAX_OPEN_WINDOWS' \
  crates/*/src; then exit 1; fi
# One user table: the engine keeps the per-user counters and the download
# households once per run, so a caller's fold sees requests only and no
# figure keeps either a second time.
if grep -rn 'observe_flow' crates/adscope/src; then exit 1; fi
# Table 3 is counted once, from the exact user table: the population plane
# estimates no users and keeps no second class tally, so every plane has the
# one observe path.
if grep -rnE 'observe_counted|ClassRow|users: Distinct64' crates/adscope/src; then exit 1; fi
if grep -rn 'households' crates/adscope/src/characterize; then exit 1; fi
# The driver runs on the stream engine: it holds no classified trace, and the
# materialized kernel it still calls is the one-thread oracle.
if grep -n 'classify_trace_sharded' src/bin/experiments/*.rs; then exit 1; fi
if grep -n 'ClassifiedTrace' src/bin/experiments/world.rs; then exit 1; fi
# Every table and figure comes from the stream engine, folded once: the
# experiments binary's tables name no oracle item, Figures 5a/5b read the
# window plane (which a checkpoint carries) instead of a fold of their own,
# and a fold reaches the engine through the one entry point that refuses a
# checkpoint, so no fold flags itself safe beside one.
if grep -rnE 'TimeBins|STATELESS|classify_stream_file_with' \
  crates/*/src crates/*/tests src tests; then exit 1; fi
if grep -nE 'adscope::pipeline|classify_trace' \
  src/bin/experiments/experiments.rs src/bin/experiments/world.rs; then exit 1; fi
# One engine fans out: the oracle (adscope::pipeline) runs on one thread, so
# no pool and no per-shard kernel may come back beside the stream engine.
if grep -rnE 'Pool|pool\.map|classify_shard' crates/adscope/src; then exit 1; fi
# The oracle is a pure computation: above its tests it records into no
# registry. The span histograms are the one record of wall time, so no
# call-tree profiler and no provenance sink may come back in obs.
if sed '/^#\[cfg(test)\]/q' crates/adscope/src/pipeline.rs \
  | grep -nE 'registry\.|span_with|counter'; then exit 1; fi
if grep -rnE 'ProfileStore|push_frame|traces_ndjson' crates/obs/src; then exit 1; fi
# One value in use is a constant: windows close only at the end of a run (the
# watermark field is read by nothing; only the e2e harness still writes it),
# provenance is the oracle's `explain_trace` entry point rather than a sampled
# option, the lossy reader is the one trace reader, and a stall is a throttle.
if grep -rn --include='*.rs' 'watermark_secs' crates src tests examples \
  | grep -v '^crates/bench/src/bin/e2e/' \
  | grep -vE '^crates/adscope/src/window.rs:[0-9]+: +(pub )?watermark_secs: f64(::INFINITY)?,$'; then exit 1; fi
if grep -rnE 'Sampler|sample_ppm|TraceOptions' crates/*/src src; then exit 1; fi
if grep -rnE 'fn read_trace\(|TraceReader' crates/netsim/src; then exit 1; fi
if grep -rn 'stall_ms' crates src tests examples; then exit 1; fi
# The paper's method has no off switch: redirect repair, embedded URLs, both
# content-type signals and query normalization always run, and provenance is
# built by a free function from a seed.
if grep -rnE --include='*.rs' \
  '\.(redirect_repair|embedded_urls)\b|\b(redirect_repair|embedded_urls):|use_extension|use_header|UrlNormalizer::disabled|for_classifier|\bTracer\b' \
  crates/*/src crates/*/tests src tests examples | grep -v '^crates/bench/src/bin/e2e/'; then exit 1; fi
# A classifier holds one engine: `PassiveClassifier::engine` parses the
# reference `Engine` again on first call, so outside the e2e ledger and the
# test suites nothing asks for it.
if grep -rn --include='*.rs' '\.engine()' crates/*/src src examples \
  | grep -vE '^crates/(bench/src/bin/e2e/|adscope/src/classify\.rs:)'; then exit 1; fi
# The parser allocates the rule texts in one run above the patterns, so the
# classifier shares them with the compiled engine: a copy of each would add
# every text to the build's peak.
if grep -n 'Arc::from(&\*f\.raw)' crates/adscope/src/classify.rs; then exit 1; fi
# One lowering routine: both compiled-engine constructors feed
# `Builder::lower`, which reads each parsed rule once a pass in load order and
# sizes every arena once, so a second path that visits the rules in bucket
# order must not come back.
if grep -n 'in_bucket_order' crates/abp-filter/src/compiled.rs; then exit 1; fi
# One production matcher: the simulated Adblock Plus plugin blocks through
# `CompiledEngine` like the classifier does, so above its tests no production
# file builds or names the reference `Engine` but the classifier's, whose
# oracle constructors build it; `UrlNormalizer::from_engine`, the e2e
# ledger's adapter, only takes one. The oracle keeps no element-hiding index
# (`hiding::selectors_for` resolves element hiding) and no `$document` host
# index (its `$document` rules are a plain scan).
for f in $(find crates/browsersim/src src crates/adscope/src -name '*.rs' \
  ! -path crates/adscope/src/classify.rs | sort); do
  sed '/^#\[cfg(test)\]/q' "$f" | grep -nE '\bEngine::new|abp_filter::Engine\b' | sed "s|^|$f:|" || true
done >target/oracle_uses.txt
if grep -vE '^crates/adscope/src/normalize\.rs:[0-9]+: +pub fn from_engine\(engine: &abp_filter::Engine\) -> UrlNormalizer \{$' \
  target/oracle_uses.txt; then exit 1; fi
if grep -nE 'hiding_by_domain|DocIndex' crates/abp-filter/src/engine.rs; then exit 1; fi
# Every live output has a reader: `serve`'s published bodies live in one
# store keyed by route, which a later publish replaces, so no bounded window
# log and no per-plane slot pair may come back; nor the scrape-time copy of
# the health ledger into gauges, the population sketch gauges, or the paced
# replay of last-window gauges that nothing read.
if grep -rnE 'TraceLog|set_population|set_alerts|record_health_gauges|obs_sketch_' \
  crates/*/src crates/*/tests src tests; then exit 1; fi
if grep -rn -- '--pace' src tests; then exit 1; fi
# Each fact is recorded once: a span is its `{name}_duration_ns` histogram
# and a stall is the health plane's flag and count, so no event log, no
# counts riding on a span, no stall series and no drop counter may come back.
if grep -rnE 'EventLog|FieldValue|events_ndjson|fn event\(&self|\.count\("|obs_health_stall|obs_events_dropped' \
  crates/*/src crates/*/tests src tests; then exit 1; fi
if grep -rn 'fn event(' crates/obs/src; then exit 1; fi
# One way from a capture into the engine: the driver hands the generator's
# drained slices, or a held trace's borrowed chunks, straight to the router
# on its own thread, so it bridges no channel, spawns no thread, builds no
# chunk and copies no record; and no source builds a chunk from records
# already in memory.
if grep -nE 'parallel::|StreamChunk|to_vec|thread::scope' src/bin/experiments/world.rs; then
  exit 1
fi
if grep -rnw --include='*.rs' 'in_memory' crates src tests examples; then exit 1; fi
# The list-lag drill holds no capture: `experiments alerts` chains its two
# generated captures into the engine, so no driver code materializes a
# capture through a `World` method, and the drill splices no trace.
if grep -rnE 'world\.generate\(|fn generate\(' src/bin/experiments; then exit 1; fi
if grep -nE 'stream_trace|records\.extend|Trace \{' src/bin/experiments/alerts.rs; then exit 1; fi

gate "cargo test -q"
cargo test -q

gate "cargo test -q --workspace --exclude annoyed-users (the root package ran just above)"
cargo test -q --workspace --exclude annoyed-users

gate "ci/required_tests.txt (every named test still exists)"
# The two steps above ran them; this only makes a rename or a deletion fail
# with the name instead of passing vacuously.
listing="$(cargo test -q --workspace -- --list 2>/dev/null)"
while read -r name; do
  case "$name" in '' | '#'*) continue ;; esac
  grep -qxF "$name: test" <<<"$listing" || { echo "    required test missing: $name"; exit 1; }
done <ci/required_tests.txt
echo "    $(grep -cv -e '^#' -e '^$' ci/required_tests.txt) names present"

gate "golden suites 20x at --test-threads=8 (atomic-write flake gate)"
# explain_golden and temporal_golden spawn `experiments` side by side;
# with a shared temp-file name one run in two lost its manifest write.
for i in $(seq 1 20); do
  cargo test -q --test explain_golden --test temporal_golden -- --test-threads=8 \
    >/dev/null 2>&1 || { echo "    golden suites failed on run $i of 20"; exit 1; }
done
echo "    20 of 20 runs green"

gate "obs health tests 20x at --test-threads=8 (watchdog publish-order gate)"
# The watchdog used to publish the stall flag before its count, so a reader
# could see `stalled` with no stall counted yet.
for i in $(seq 1 20); do
  cargo test -q -p obs --lib health:: -- --test-threads=8 \
    >/dev/null 2>&1 || { echo "    obs health tests failed on run $i of 20"; exit 1; }
done
echo "    20 of 20 runs green"

gate "e2e benchmark harness (untraced easylist_w1 smoke, then each contract workload traced)"
# Capture, then grep: `... | grep -q` would close the pipe mid-print and
# kill the binary with SIGPIPE.
e2e() { cargo run --release -q --offline -p bench --bin e2e -- --quick "$@"; }
e2e_out="$(e2e --workload easylist_w1 --trace 0)"
grep -q '"correct": true' <<<"$e2e_out"
grep -q '"failed": 0' <<<"$e2e_out"
# Traced, every run holds the staged replay, the one-thread oracle (timed
# twice: as `materialized` and, through the adapter that ignores its thread
# count, as `sharded`) and the stream to the lossy-read reference: decode-bound
# (smalllists_w1), at EasyList scale (easylist_w1), and with every plane on
# plus the checkpoint on/off pairs and the half-way resume probe
# (dirty_full_w1).
for workload in smalllists_w1 easylist_w1 dirty_full_w1; do
  e2e_out="$(e2e --workload "$workload" --trace 1)"
  grep -q '"failed": 0' <<<"$e2e_out" || { echo "    $workload failed a check"; exit 1; }
done

# Thread-count invariance of the stream engine must hold at the count this
# machine actually has, beyond the suite's built-in {1, 2, 3, 4} grid.
gate "thread-count invariance at ANNOYED_THREADS=$(nproc)"
ANNOYED_THREADS="$(nproc)" cargo test -q -p adscope --test streaming_equivalence

gate "experiments all --scale small (every figure folded in bounded memory)"
# Both captures are generated straight into the stream engine and every id
# reads the folds; the parent of this gate held each classified trace
# (297 MiB). Stderr carries the machine-parseable peak-RSS line.
mkdir -p target/experiments
./target/release/experiments all --scale small >/dev/null 2>target/experiments/all.stderr
rss="$(sed -n 's/^\[experiments\] peak_rss_bytes=//p' target/experiments/all.stderr)"
test -n "$rss"
test "$rss" -lt $((100 * 1024 * 1024))
echo "    peak RSS $((rss / 1024 / 1024)) MiB (ceiling 100 MiB)"

gate "experiments metrics --scale small (exposition gate)"
# Capture, then grep: `... | grep -q` would close the pipe mid-print and
# kill the binary with SIGPIPE before it writes the artifacts.
metrics_out="$(./target/release/experiments metrics --scale small)"
grep -q "exposition: VALID" <<<"$metrics_out"
test -s target/experiments/metrics.prom
grep -q '^# TYPE ' target/experiments/metrics.prom
grep -q '^adscope_requests_classified_total ' target/experiments/metrics.prom

gate "experiments explain (provenance gate)"
explain_out="$(./target/release/experiments explain --url http://niceads.example/banner.gif)"
grep -q "trace: VALID" <<<"$explain_out"
grep -q "verdict: whitelisted" <<<"$explain_out"
test -s target/experiments/explain_trace.ndjson

gate "experiments serve smoke test (live scrape gate)"
rm -f target/experiments/serve.port
./target/release/experiments serve --port 0 --port-file target/experiments/serve.port \
  --scale small &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s target/experiments/serve.port ] && break
  sleep 0.1
done
test -s target/experiments/serve.port
SERVE_PORT="$(cat target/experiments/serve.port)"
healthz="$(./target/release/experiments fetch --port "$SERVE_PORT" --path /healthz --retries 20)"
grep -q '"status":"ok"' <<<"$healthz"
./target/release/experiments fetch --port "$SERVE_PORT" --path /metrics --retries 20 \
  --check-metrics >target/experiments/serve_metrics.prom
grep -q '^obs_serve_starts_total ' target/experiments/serve_metrics.prom
# Population plane: published once the RBN-1 replay lands; poll until
# the real table replaces the placeholder, then require the NDJSON body
# to parse line by line.
saw_pop=0
for _ in $(seq 1 300); do
  pop="$(./target/release/experiments fetch --port "$SERVE_PORT" --path /population --retries 2 2>/dev/null || true)"
  case "$pop" in *'# population'*) saw_pop=1; break ;; esac
  sleep 0.1
done
test "$saw_pop" = 1
./target/release/experiments fetch --port "$SERVE_PORT" --path /population/ndjson --retries 5 \
  --check-ndjson >target/experiments/serve_population.ndjson
grep -q '"event":"population"' target/experiments/serve_population.ndjson
grep -q '"event":"class"' target/experiments/serve_population.ndjson
# Alert plane: published right after the population plane; the rendered
# rule table must be live, the NDJSON body must parse line by line, and
# the alert gauges must appear in a fresh scrape.
saw_alerts=0
for _ in $(seq 1 100); do
  al="$(./target/release/experiments fetch --port "$SERVE_PORT" --path /alerts --retries 2 2>/dev/null || true)"
  case "$al" in *'alerts rules='*) saw_alerts=1; break ;; esac
  sleep 0.1
done
test "$saw_alerts" = 1
./target/release/experiments fetch --port "$SERVE_PORT" --path /alerts/ndjson --retries 5 \
  --check-ndjson >target/experiments/serve_alerts.ndjson
grep -q '"event":"alerts"' target/experiments/serve_alerts.ndjson
alerts_metrics="$(./target/release/experiments fetch --port "$SERVE_PORT" --path /metrics --retries 5 --check-metrics)"
grep -q '^obs_alerts_firing' <<<"$alerts_metrics"
./target/release/experiments fetch --port "$SERVE_PORT" --path /quitz >/dev/null
wait "$SERVE_PID"

gate "experiments stream (bounded memory + kill/resume gate)"
STREAM_DIR=target/experiments/stream
rm -rf "$STREAM_DIR"
mkdir -p "$STREAM_DIR"
# Generate the RBN-1 trace to disk slice by slice (never materialized),
# then stream-classify it. Stderr carries the machine-parseable peak-RSS
# line backing the flat-memory claim.
./target/release/experiments stream --rbn1 --scale small \
  --write-trace "$STREAM_DIR/rbn1.trace" \
  --quarantine "$STREAM_DIR/quarantine.ndjson" \
  --report "$STREAM_DIR/full.report" \
  --windows "$STREAM_DIR/full.windows" \
  --manifest "$STREAM_DIR/full.manifest.json" 2>"$STREAM_DIR/full.stderr"
grep -q '^trace RBN-1 ' "$STREAM_DIR/full.report"
# The same command twice more, each into a directory of its own: the
# reports must agree, and the RSS gate reads the median of the three.
for i in 2 3; do
  mkdir -p "$STREAM_DIR/rss$i"
  ./target/release/experiments stream --rbn1 --scale small \
    --write-trace "$STREAM_DIR/rss$i/rbn1.trace" \
    --quarantine "$STREAM_DIR/rss$i/quarantine.ndjson" \
    --report "$STREAM_DIR/rss$i/full.report" \
    --windows "$STREAM_DIR/rss$i/full.windows" \
    --manifest "$STREAM_DIR/rss$i/full.manifest.json" 2>"$STREAM_DIR/rss$i/full.stderr"
  cmp "$STREAM_DIR/full.report" "$STREAM_DIR/rss$i/full.report"
done
rss_runs="$(sed -n 's/^\[stream\] peak_rss_bytes=//p' "$STREAM_DIR/full.stderr" \
  "$STREAM_DIR"/rss[23]/full.stderr | sort -n)"
test "$(wc -l <<<"$rss_runs")" -eq 3
rss="$(sed -n 2p <<<"$rss_runs")"
mib() { awk -v b="$1" 'BEGIN { printf "%.1f", b / 1048576 }'; }
# RSS ceiling: the small-scale pass must stay under 32 MiB, median of three
# runs. (The materialized path holds the whole trace; streaming must not, a
# referrer map holds the pages of its horizon, not of the trace, and a worker
# at most six 256-record batches, whatever the chunk size.)
test "$rss" -lt $((32 * 1024 * 1024))
echo "    peak RSS median $(mib "$rss") MiB of 3 runs, min-max" \
  "$(mib "$(head -1 <<<"$rss_runs")")-$(mib "$(tail -1 <<<"$rss_runs")") MiB (ceiling 32 MiB)"
# Deterministic kill at ~50% of the chunk count ("as if SIGKILLed"),
# then resume on a different thread count: the resumed report must be
# byte-identical to the uninterrupted run.
chunks="$(sed -n 's/.* chunks \([0-9][0-9]*\)$/\1/p' "$STREAM_DIR/full.report")"
half=$((chunks / 2))
[ "$half" -ge 1 ] || half=1
./target/release/experiments stream --trace "$STREAM_DIR/rbn1.trace" \
  --checkpoint-dir "$STREAM_DIR/ck" --checkpoint-every 1 \
  --stop-after-chunks "$half" --threads 3 >/dev/null 2>&1
./target/release/experiments stream --trace "$STREAM_DIR/rbn1.trace" \
  --checkpoint-dir "$STREAM_DIR/ck" --resume --threads 2 \
  --report "$STREAM_DIR/resumed.report" \
  --windows "$STREAM_DIR/resumed.windows" \
  --manifest "$STREAM_DIR/resumed.manifest.json" >/dev/null 2>&1
cmp "$STREAM_DIR/full.report" "$STREAM_DIR/resumed.report"
cmp "$STREAM_DIR/full.windows" "$STREAM_DIR/resumed.windows"
echo "    kill at chunk $half/$chunks + resume: report + windows byte-identical"
# A real SIGKILL mid-run, aimed where appends happen: the log's first
# segment is written whole and atomically, later ones are appended, and each
# carries a checksummed trailer, so a segment the kill tears is skipped and
# the resume starts from the last whole one. Throttle the run, kill -9 once
# the log holds two segment trailers, check that it held a delta line (a
# user line that updates the one before it, `"full":false`), resume (the
# killed run's checkpoint.lock must not block it), byte-compare again.
./target/release/experiments stream --trace "$STREAM_DIR/rbn1.trace" \
  --checkpoint-dir "$STREAM_DIR/ck2" --checkpoint-every 2 \
  --throttle-ms 40 >/dev/null 2>&1 &
STREAM_PID=$!
segments() { grep -c '^{"segment":' "$STREAM_DIR/ck2/checkpoint.ndjson" 2>/dev/null || true; }
for _ in $(seq 1 400); do
  [ "$(segments)" -ge 2 ] 2>/dev/null && break
  sleep 0.05
done
test "$(segments)" -ge 2
kill -9 "$STREAM_PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true
grep -q '"full":false' "$STREAM_DIR/ck2/checkpoint.ndjson"
./target/release/experiments stream --trace "$STREAM_DIR/rbn1.trace" \
  --checkpoint-dir "$STREAM_DIR/ck2" --resume \
  --report "$STREAM_DIR/killed.report" >/dev/null 2>&1
cmp "$STREAM_DIR/full.report" "$STREAM_DIR/killed.report"
# A kill that lands mid-rewrite leaves checkpoint.ndjson.<pid>.<seq>.tmp;
# the resume swept it.
test -z "$(find "$STREAM_DIR/ck2" -name '*.tmp')"
echo "    SIGKILL mid-run + resume (the log held a delta line): report byte-identical, no temp file left"

gate "experiments verify (run-manifest replay gate)"
# Layer 1: every digest recorded in the manifest still matches the bytes
# on disk. Layer 2: re-run the manifest's replay argv into a scratch dir
# and byte-compare — all-PASS or the gate fails. The resumed manifest is
# the acceptance proof: a checkpointed run that was killed and resumed
# must verify byte-identical against an uninterrupted replay.
./target/release/experiments verify --manifest "$STREAM_DIR/full.manifest.json" \
  --scratch "$STREAM_DIR/verify-full"
./target/release/experiments verify --manifest "$STREAM_DIR/resumed.manifest.json" \
  --scratch "$STREAM_DIR/verify-resumed"
echo "    full + resumed manifests verify all-PASS"

gate "experiments population (streamed sketches vs materialized exact gate; bounded memory)"
# Stream RBN-1 from the generator with population sketches on, then
# regenerate it materialized for the exact oracle path over the identical
# records: renders must be byte-identical and every sketch quantile within
# its error bound.
./target/release/experiments population --scale small --exact-check \
  --out "$STREAM_DIR/population.txt" --ndjson "$STREAM_DIR/population.ndjson" \
  --manifest "$STREAM_DIR/population.manifest.json" \
  >/dev/null 2>"$STREAM_DIR/population.stderr"
grep -q 'exact-check ok' "$STREAM_DIR/population.stderr"
grep -q '^# population' "$STREAM_DIR/population.txt"
grep -q '"event":"population"' "$STREAM_DIR/population.ndjson"
# Table 3 at the floor the `table3` experiment uses at this scale.
grep -q '"active_min_requests":"300"' "$STREAM_DIR/population.manifest.json"
./target/release/experiments verify --manifest "$STREAM_DIR/population.manifest.json" \
  --scratch "$STREAM_DIR/verify-population"
# Without --exact-check no trace is held: three runs, each into a directory
# of its own, must render what the checked run rendered, and the median
# peak RSS stays under the stream gate's 32 MiB ceiling (it was 122 MiB
# while the command held RBN-1 for the check it had not been asked for).
for i in 1 2 3; do
  mkdir -p "$STREAM_DIR/pop$i"
  ./target/release/experiments population --scale small \
    --out "$STREAM_DIR/pop$i/population.txt" --ndjson "$STREAM_DIR/pop$i/population.ndjson" \
    --manifest "$STREAM_DIR/pop$i/population.manifest.json" \
    >/dev/null 2>"$STREAM_DIR/pop$i/population.stderr"
  cmp "$STREAM_DIR/population.txt" "$STREAM_DIR/pop$i/population.txt"
done
rss_runs="$(sed -n 's/^\[population\] peak_rss_bytes=//p' "$STREAM_DIR"/pop[123]/population.stderr | sort -n)"
test "$(wc -l <<<"$rss_runs")" -eq 3
rss="$(sed -n 2p <<<"$rss_runs")"
test "$rss" -lt $((32 * 1024 * 1024))
echo "    streamed render == materialized exact render; manifest verifies"
echo "    unchecked runs: peak RSS median $(mib "$rss") MiB of 3, min-max" \
  "$(mib "$(head -1 <<<"$rss_runs")")-$(mib "$(tail -1 <<<"$rss_runs")") MiB (ceiling 32 MiB)"

gate "experiments alerts (drift detection + deterministic timeline gate)"
# The filter-list-lag drill: --check asserts the page rule is quiet
# before the injected cut-over, goes pending within the CUSUM ramp and
# fires, and that the timeline is byte-identical when both captures are
# driven again on one thread and on four. The manifest then replays
# byte-identically. Both captures stream from the generator, so the run
# holds neither: one held small RBN-1 capture is ~120 MiB on its own, and
# the spliced pair peaked at 276 MiB, hence the 64 MiB ceiling.
./target/release/experiments alerts --scale small --check \
  --out "$STREAM_DIR/alerts.txt" --ndjson "$STREAM_DIR/alerts.ndjson" \
  --manifest "$STREAM_DIR/alerts.manifest.json" \
  >/dev/null 2>"$STREAM_DIR/alerts.stderr"
grep -q 'check: blocked_share_drop pending' "$STREAM_DIR/alerts.stderr"
grep -q 'byte-identical across threads' "$STREAM_DIR/alerts.stderr"
grep -q 'rule blocked_share_drop firing' "$STREAM_DIR/alerts.txt"
grep -q '"event":"alert"' "$STREAM_DIR/alerts.ndjson"
rss="$(sed -n 's/^\[alerts\] peak_rss_bytes=//p' "$STREAM_DIR/alerts.stderr")"
test -n "$rss"
test "$rss" -lt $((64 * 1024 * 1024))
./target/release/experiments verify --manifest "$STREAM_DIR/alerts.manifest.json" \
  --scratch "$STREAM_DIR/verify-alerts"
echo "    list-lag drill fired at the cut-over; timeline deterministic; manifest verifies"
echo "    --check run: peak RSS $(mib "$rss") MiB (ceiling 64 MiB)"

gate "stream health plane (stall watchdog gate)"
# Deterministic stalls: streaming the RBN-1 trace written above, the router
# sleeps 600 ms after each of its five chunks against a 250 ms watchdog
# budget. /healthz must flip to "stalled" while a sleep holds, then recover
# to "ok" once the run finishes.
rm -f "$STREAM_DIR/health.port"
./target/release/experiments stream --trace "$STREAM_DIR/rbn1.trace" --chunk-records 50000 \
  --throttle-ms 600 --watchdog-ms 250 \
  --population \
  --serve-port 0 --serve-port-file "$STREAM_DIR/health.port" --serve-linger \
  >/dev/null 2>"$STREAM_DIR/health.stderr" &
HEALTH_PID=$!
for _ in $(seq 1 100); do
  [ -s "$STREAM_DIR/health.port" ] && break
  sleep 0.1
done
test -s "$STREAM_DIR/health.port"
HEALTH_PORT="$(cat "$STREAM_DIR/health.port")"
saw_stall=0
for _ in $(seq 1 100); do
  hz="$(./target/release/experiments fetch --port "$HEALTH_PORT" --path /healthz --retries 2 2>/dev/null || true)"
  case "$hz" in *'"status":"stalled"'*) saw_stall=1; break ;; esac
  sleep 0.1
done
test "$saw_stall" = 1
# While stalled the run is still live: /statusz must show the manifest
# header and per-worker progress rows.
statusz="$(./target/release/experiments fetch --port "$HEALTH_PORT" --path /statusz --retries 2)"
grep -q 'stream config_fnv=' <<<"$statusz"
grep -q 'health:' <<<"$statusz"
saw_ok=0
for _ in $(seq 1 300); do
  hz="$(./target/release/experiments fetch --port "$HEALTH_PORT" --path /healthz --retries 2 2>/dev/null || true)"
  case "$hz" in *'"status":"ok"'*'"run_active":false'*) saw_ok=1; break ;; esac
  sleep 0.2
done
test "$saw_ok" = 1
# The run streamed with --population: the lingering endpoint must hold
# the final published population plane.
pop="$(./target/release/experiments fetch --port "$HEALTH_PORT" --path /population --retries 5)"
grep -q '# population' <<<"$pop"
./target/release/experiments fetch --port "$HEALTH_PORT" --path /population/ndjson --retries 5 \
  --check-ndjson >/dev/null
./target/release/experiments fetch --port "$HEALTH_PORT" --path /quitz >/dev/null
wait "$HEALTH_PID"
echo "    watchdog flagged the stall, /healthz recovered, /population live"

gate "bench_gate (paired on/off rows against A/A noise; ns/element ceilings at the reference speed)"
# One process: fixture once, measure, judge, one BENCH_history.ndjson row.
# `inconclusive` is printed and recorded and does not fail the build.
# --manifest joins the row to the streaming run verified above: it carries
# that run's config_fnv and dataset fnv.
cargo run --release -q -p bench --bin bench_gate -- \
  --stamp "$(git rev-parse --short HEAD 2>/dev/null || echo local)" \
  --manifest "$STREAM_DIR/full.manifest.json"

gate ""
echo "CI OK in $SECONDS s"

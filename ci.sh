#!/usr/bin/env bash
# Local CI for the sms-sim workspace. Offline-safe: every step resolves
# from path dependencies only.
#
#   ./ci.sh          # tier-1 build+test, clippy -D warnings, fmt --check
set -euo pipefail
cd "$(dirname "$0")"

# await_addr_file <path> <pid>: waits up to 10 s for the server started as
# <pid> to write its --addr-file, giving up early when it has already died.
await_addr_file() {
  for _ in $(seq 1 100); do
    [ -s "$1" ] && return 0
    kill -0 "$2" 2> /dev/null || { echo "process $2 died before writing $1"; exit 1; }
    sleep 0.1
  done
  echo "process $2 never wrote $1"; exit 1
}

echo "==> cargo build --release"
cargo build --release

echo "==> byte-identity gate (benchmark seed-7 goldens: SimStats digest per cell incl. SL,"
echo "    render digest per scene for both builders, every exact per-layer count; goldens.txt's"
echo "    FlatBvh digests of the 16 scenes; prop_bvh's median_build_equals_the_sorting_reference)"
cargo test -q --manifest-path benchmark/Cargo.toml
cargo test -q -p sms-sim --test layout_digest
cargo test -q -p sms-sim --test prop_bvh median_build_equals_the_sorting_reference

echo "==> hot-path identity (goldens.txt's SimStats digests incl. SL/PRED, the WarpStacks micro-op"
echo "    stream per stack hierarchy, armed observers, every row again under the dense reference"
echo "    schedule that visits every SM on every cycle, Cache vs a reference LRU on the Table I"
echo "    geometries, SmL1 + GlobalMemory vs the two-table MSHR reference, RT unit ticked every"
echo "    cycle vs only when due)"
cargo test -q -p sms-sim --test sim_golden
cargo test -q -p sms-rtunit --test stack_ops
cargo test -q -p sms-mem --test cache_oracle
cargo test -q -p sms-mem --test mshr_oracle
cargo test -q -p sms-rtunit --test unit_vs_reference ticking_only_when_something_is_due_is_exact

echo "==> generated properties (sms_geom::check: stacks are exact LIFOs, every traversal vs brute"
echo "    force, HLBVH blocks, predictor, histogram laws, geometry, coalescing, sim image vs render)"
cargo test -q -p sms-sim --test 'prop_*'

echo "==> one-place gate (the environment is read in crates/core/src/env.rs only; prints offenders)"
# (`! git grep` would not trip `set -e`: an inverted status is exempt.)
if git grep -nE 'env::(var|var_os|vars|vars_os)\b' -- crates examples tests \
     ':!crates/core/src/env.rs'; then
  echo "environment read outside sms_sim::env (declare the variable in DECLS, read it from the snapshot)"
  exit 1
fi

echo "==> hash-free gate (no std HashMap / BinaryHeap on the per-access and per-lane paths: the"
echo "    memory model and the RT unit; prints offenders)"
if git grep -nE 'collections::(HashMap|BinaryHeap)' -- crates/mem/src crates/rtunit/src/unit.rs; then
  echo "SipHash or a heap is back in the simulator's hot path (sms_mem's LineMap, WarpSlot's wake array)"
  exit 1
fi

echo "==> one-executor gate (the backend runs cells through sms_harness::Executor, which holds the"
echo "    scene table and the simulate step; prints offenders)"
if git grep -nE 'try_run_exporting|PreparedScene::build' -- crates/serve/src; then
  echo "sms-serve simulates or builds scenes itself again (call Executor::scene / Executor::simulate)"
  exit 1
fi

echo "==> one-record gate (a finished cell is recovered from the result cache only: no journal"
echo "    replayer, replay event or torn-journal fault; prints offenders)"
# The bracketed letters keep this pattern from matching itself in a
# repo-wide grep, and `[_]` keeps the env-docs test from reading it as a
# variable name.
if git grep -nE 'SMS[_]RESUME|Resume[S]tate|Job[R]esumed|job[_]resumed|journal[_]torn' -- \
     crates examples tests; then
  echo "a second copy of the finished-cell record is back (re-run on the cache instead)"
  exit 1
fi

echo "==> one-FNV gate (one FNV-1a under crates/, sms_geom::golden's; prints the files that hold"
echo "    its prime)"
# `git grep -c` prints one `file:count` line per file holding the prime.
fnv_files=$(git grep -c '0x0000_0100_0000_01b3' -- crates ':!crates/*/tests/*' || true)
if [ "$(printf '%s\n' "$fnv_files" | grep -c .)" -ne 1 ]; then
  echo "$fnv_files"
  echo "FNV-1a must live in crates/geom/src/golden.rs only (call sms_geom::golden::Fnv1a)"
  exit 1
fi

echo "==> one-writer gate (JSON is escaped and Json is displayed in crates/harness/src/json.rs only,"
echo "    and its writer formats no single value through write!; prints offenders)"
if git grep -nE '\\\\u\{:04x\}|Display for Json[^A-Za-z]' -- crates examples tests \
     ':!crates/harness/src/json.rs'; then
  echo "a second JSON writer is back (write through sms_harness::json: Json::write_to, Object,"
  echo "write_str)"
  exit 1
fi
# json.rs is read up to its `#[cfg(test)]` module, which keeps the old tree
# writer as the byte-identity oracle.
if ! awk '
  /^#\[cfg\(test\)\]/ { exit }
  /write!\([^,]*, *"\{[A-Za-z_0-9]*\}"/ { print FILENAME ":" FNR ":" $0; bad = 1 }
  END { exit bad }' crates/harness/src/json.rs; then
  echo "the JSON writer formats a single char or number through write! again (push byte runs"
  echo "with one push_str; write counters with write_u64)"
  exit 1
fi

echo "==> one-hierarchy gate (WarpStacks derives the stack levels once: stack.rs reads self.config"
echo "    only in WarpStacks::new and config(), and the RT unit, the validator and the overhead"
echo "    report name no StackConfig variant outside their tests; prints offenders)"
# Each file is read up to its `#[cfg(test)]` module; `fn` is the function
# a line sits in.
if ! awk '
  FNR == 1 { tests = 0; fn = "" }
  /^#\[cfg\(test\)\]/ { tests = 1 }
  tests { next }
  match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
  FILENAME ~ /stack\.rs$/ && /self\.config([^a-z_0-9]|$)/ && fn != "new" && fn != "config" {
    print FILENAME ":" FNR ":" $0; bad = 1
  }
  FILENAME !~ /stack\.rs$/ && /StackConfig::(Baseline|Sms|FullOnChip|Stackless|Predictor)([^A-Za-z0-9_]|$)/ {
    print FILENAME ":" FNR ":" $0; bad = 1
  }
  END { exit bad }' crates/rtunit/src/{stack,unit,validator,overhead}.rs; then
  echo "the stack hierarchy is worked out from StackConfig again (read WarpStacks' derived levels,"
  echo "or add a StackConfig method in stack.rs)"
  exit 1
fi

echo "==> one-observation gate (the stack manager records its own events: outside tests the RT"
echo "    unit reads no global-level length, flush counter or flush count of WarpStacks; prints"
echo "    offenders)"
# unit.rs is read up to its `#[cfg(test)]` module, if it has one.
if ! awk '
  /^#\[cfg\(test\)\]/ { exit }
  /global_len\(|segment_flushes\(|ra_flushes/ { print FILENAME ":" FNR ":" $0; bad = 1 }
  END { exit bad }' crates/rtunit/src/unit.rs; then
  echo "the RT unit works out the stack manager's events from outside again (record them in"
  echo "WarpStacks: its StackRecord, the global level's per-lane counts, make_room's flush run)"
  exit 1
fi

echo "==> one-wake gate (a node visit wakes its lane once: the operation is worked out when the"
echo "    fetch issues and commits at arrival + unit latency, so the RT unit has no fetch-wait"
echo "    state; prints offenders)"
if git grep -n 'WaitFetch' -- crates/rtunit/src; then
  echo "a node fetch's arrival is a wake of its own again (compute the step in issue_warp and"
  echo "enter OpWait at arrival + latency; WarpSlot::fetched keeps the arrival)"
  exit 1
fi

echo "==> one-sampler gate (both samplers read the state at each period boundary from one"
echo "    snapshot, so no sampler has a due check and arming one changes no visited cycle;"
echo "    prints offenders)"
if git grep -nE 'sample_du[e]|next_arrival_afte[r]|sampled: boo[l]' -- crates; then
  echo "a sampler reads the first visited cycle after a boundary again, or changes the visit"
  echo "schedule (sample every boundary before the next visit in GpuSim::run_on instead)"
  exit 1
fi

echo "==> one-traversal gate (the traversal is written once: outside tests only sms_bvh's"
echo "    traverse.rs and the RT unit visit nodes, and the retired host drivers and depth"
echo "    recorders stay gone; prints offenders)"
# Each file is read up to its `#[cfg(test)]` module; the two definitions in
# flat.rs are not calls.
if ! awk '
  FNR == 1 { tests = 0 }
  /^#\[cfg\(test\)\]/ { tests = 1 }
  tests { next }
  /(^|[^A-Za-z0-9_])(node_step|stackless_step)\(/ && !/fn (node_step|stackless_step)\(/ {
    print FILENAME ":" FNR ":" $0; bad = 1
  }
  END { exit bad }' $(git ls-files 'crates/*/src/*.rs' 'examples/*.rs' |
      grep -vxE 'crates/bvh/src/traverse\.rs|crates/rtunit/src/unit\.rs'); then
  echo "a node visit is driven outside the two traversal homes (call sms_bvh::traverse or"
  echo "traverse_stackless, or RayQuery::apply_leaf for a leaf)"
  exit 1
fi
if git grep -nwE 'intersect_nearest|intersect_any|count_stack_visits|record_depths|depth_recorder' \
     -- crates; then
  echo "a retired traversal driver or depth recorder is back (use sms_bvh::traverse /"
  echo "traverse_stackless; record depths with the Fig. 10 thread-trace recorder)"
  exit 1
fi

echo "==> one-box gate (a BVH box is stored once, in its parent's child record: FlatNode holds no"
echo "    f32, and flat.rs writes a child plane only in push_child; prints offenders)"
# flat.rs is read up to its `#[cfg(test)]` module; `fn` is the function a
# line sits in.
if ! awk '
  /^#\[cfg\(test\)\]/ { exit }
  /^pub struct FlatNode/ { node = 1 }
  node && /f32/ { print FILENAME ":" FNR ":" $0; bad = 1 }
  node && /^}/ { node = 0 }
  match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
  /child_(min|max)_[xyz](\.(push|extend|insert|resize|fill)|\[[^]]*\] *[-+*\/]?=[^=])/ &&
      fn != "push_child" {
    print FILENAME ":" FNR ":" $0; bad = 1
  }
  END { exit bad }' crates/bvh/src/flat.rs; then
  echo "a node box is stored twice again (FlatNode keeps ids and counts; write a box with"
  echo "FlatBvh::push_child and read a node's own box with FlatBvh::own_aabb)"
  exit 1
fi

echo "==> one-probe gate (the fleet reads a cell from the result cache once per sweep, in"
echo "    handle_sweep's read-first step, and once per retried attempt, in run_cell; prints any"
echo "    other call)"
# fleet.rs is read up to its `#[cfg(test)]` module; `fn` is the function a
# line sits in, and an atomic's `load(Ordering::…)` is not a cache read.
if ! awk '
  /^#\[cfg\(test\)\]/ { exit }
  match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
  /\.load\(/ && !/\.load\(Ordering::/ {
    if ((fn == "handle_sweep" || fn == "run_cell") && !seen[fn]++) next
    print FILENAME ":" FNR ":" $0; bad = 1
  }
  END { exit bad }' crates/serve/src/fleet.rs; then
  echo "the fleet reads the result cache outside its read-first step and retry re-read (answer"
  echo "the cell from the read handle_sweep made, or re-read once at the top of a retried attempt)"
  exit 1
fi

echo "==> one-dispatch gate (the fleet runs each missed cell inline on the worker that took it:"
echo "    no dispatch thread, channel race or hedge; prints offenders)"
# fleet.rs is read up to its `#[cfg(test)]` module: the sweep's
# `thread::scope` is the only place it starts threads.
if ! awk '
  /^#\[cfg\(test\)\]/ { exit }
  /mpsc|Condvar|std::thread::spawn/ { print FILENAME ":" FNR ":" $0; bad = 1 }
  END { exit bad }' crates/serve/src/fleet.rs; then
  echo "the fleet dispatches off its worker thread again (call dispatch_once inline in run_cell)"
  exit 1
fi
# The bracketed letters keep these patterns from matching themselves, and
# `[H]` keeps the env-docs test from reading a variable name.
if git grep -nE 'hedge[_]after|SMS_FLEET_[H]EDGE_MS|respond[_]delay|sms_fleet_[h]edge_wins' -- crates; then
  echo "the retired fleet hedge is back (a missed cell is one deterministic simulation: retry it,"
  echo "never duplicate it)"
  exit 1
fi

echo "==> one-config gate (no tree, retry-count, competitor-column or RA flush-limit switch;"
echo "    prints offenders)"
# The bracketed letters keep the pattern from matching itself or the env-docs test.
if git grep -nwE 'S[M]S_(HLBVH|RETRIES|STACKLESS|PREDICT|PREDICT_BITS)|with[_]retries|competitor[_]configs|flush[_]limit' -- crates; then
  echo "a retired switch is back (every sweep builds PreparedScene::build's tree, retries cache"
  echo "I/O DEFAULT_RETRIES times and shows every competitor column; RA has no flush limit)"
  exit 1
fi

echo "==> no-poll gate (the serving accept loop blocks in accept and is woken on purpose; prints"
echo "    offenders)"
# The bracketed letters keep this pattern from matching itself.
if git grep -nE 'set_nonblocking\(true\)|ACCEPT[_]POLL|DRAIN[_]POLL' -- crates/serve/src; then
  echo "an accept poll is back in sms-serve (block in accept; wake the loop with ServiceCore::wake)"
  exit 1
fi

echo "==> one-write gate (whatever of a response is ready leaves in one write: outside tests only"
echo "    ChunkedWriter's start/flush/finish and write_response write in http.rs, write_response"
echo "    writes once, and stream_sweep queues every line and flushes only right before it waits"
echo "    or returns; prints offenders)"
# Each file is read up to its `#[cfg(test)]` module; `fn` is the function a
# line sits in.
if ! awk '
  FNR == 1 { tests = 0; fn = ""; held = "" }
  /^#\[cfg\(test\)\]/ { tests = 1 }
  tests { next }
  match($0, /fn [a-z_0-9]+/) { fn = substr($0, RSTART + 3, RLENGTH - 3) }
  FILENAME ~ /http\.rs$/ && /write_all|\.flush\(\)/ {
    if (fn !~ /^(start|flush|finish|write_response)$/ || fn == "write_response" && /write_all/ && writes++) {
      print FILENAME ":" FNR ":" $0; bad = 1
    }
  }
  FILENAME ~ /service\.rs$/ && fn == "stream_sweep" {
    if (held != "" && !/recv\(\)|return /) { print held; bad = 1 }
    held = ""
    if (/\.flush\(\)/) held = FILENAME ":" FNR ":" $0
    if (/write_all|\.write\(|\.chunk\(/) { print FILENAME ":" FNR ":" $0; bad = 1 }
  }
  END { exit bad }' crates/serve/src/http.rs crates/serve/src/service.rs; then
  echo "a response is written a piece at a time again (push each line onto the ChunkedWriter and"
  echo "flush only before waiting on the next settled job; build a fixed response in one buffer)"
  exit 1
fi

echo "==> one-reader gate (requests and responses share one reader and one head builder: outside"
echo "    tests http.rs reads a peer at one call site and defines one header lookup, and no other"
echo "    file under crates/serve/src writes an HTTP/1.1 head in a string; prints offenders)"
# Each file is read up to its `#[cfg(test)]` module, comment lines
# skipped; a second read site or lookup prints every site of its kind.
if ! awk '
  FNR == 1 { tests = 0 }
  /^#\[cfg\(test\)\]/ { tests = 1 }
  tests || /^[[:space:]]*\/\// { next }
  FILENAME ~ /http\.rs$/ && /\.read\(/ { reads[++nreads] = FILENAME ":" FNR ":" $0 }
  FILENAME ~ /http\.rs$/ && /fn header\(/ { lookups[++nlookups] = FILENAME ":" FNR ":" $0 }
  FILENAME !~ /http\.rs$/ && /"[^"]*HTTP\/1\.[01]/ { print FILENAME ":" FNR ":" $0; bad = 1 }
  END {
    if (nreads > 1) for (i = 1; i <= nreads; i++) { print reads[i]; bad = 1 }
    if (nlookups > 1) for (i = 1; i <= nlookups; i++) { print lookups[i]; bad = 1 }
    exit bad
  }' $(git ls-files 'crates/serve/src/*.rs'); then
  echo "HTTP framing is read or written in a second place again (read through http.rs's Reader,"
  echo "build every head with http::message, look headers up through http::Message)"
  exit 1
fi

echo "==> one-lookup gate (a modelled access finds its line once per cache level: the MSHRs live"
echo "    in the tag store, so outside tests l1.rs and global.rs call no Cache::probe or"
echo "    Cache::fill and build no LineMap sized by MSHR_PRUNE; prints offenders)"
# Each file is read up to its `#[cfg(test)]` module, comment lines skipped.
if ! awk '
  FNR == 1 { tests = 0 }
  /^#\[cfg\(test\)\]/ { tests = 1 }
  tests || /^[[:space:]]*\/\// { next }
  /(\.|Cache::)(probe|fill)\(/ || /LineMap::with_capacity\(.*MSHR_PRUNE/ {
    print FILENAME ":" FNR ":" $0; bad = 1
  }
  END { exit bad }' crates/mem/src/l1.rs crates/mem/src/global.rs; then
  echo "a cache level looks its line up more than once again (find the slot with Cache::find, read"
  echo "its MSHR entry with Cache::fill_of, install a miss with Cache::install)"
  exit 1
fi

echo "==> cargo test -q"
cargo test -q

echo "==> fault-injection suite"
cargo test -q -p sms-harness --test fault_injection

echo "==> fleet chaos suite (killed backend, killed backend re-run from the cache, all-down"
echo "    degraded mode, a retried cell's latency covers every round, cached cells answered by"
echo "    the fleet with no dispatch (warm, mixed, torn or corrupted entry), both tiers'"
echo "    wire bytes vs the pre-skeleton goldens, malformed + door-shed parity, a simulator panic"
echo "    gives its permit back)"
cargo test -q -p sms-serve --test fleet_chaos
cargo test -q -p sms-serve --test fleet_e2e
cargo test -q -p sms-serve --test serve_e2e -- \
  wire_bytes_match_parent_goldens malformed_requests_get_4xx_not_panic \
  a_simulator_panic_does_not_leak_a_permit a_nesting_bomb_is_a_400_on_both_tiers
cargo test -q -p sms-harness --test cache_robustness

echo "==> wire framing suite (a batched stream is the per-chunk framing byte for byte, a warm sweep"
echo "    leaves in at most 3 writes after the head, a fixed response in one, the client's request"
echo "    bytes pinned; the body limit bounds every response framing; generated garbage against the"
echo "    request and response parsers, the sweep body and stream parsers, the environment's value"
echo "    grammars and, in cache_robustness, the entry reader)"
cargo test -q -p sms-serve --lib -- http::tests:: \
  service::tests::a_warm_sweep_leaves_in_a_few_writes_with_the_per_chunk_bytes
cargo test -q -p sms-serve --test framing
cargo test -q -p sms-sim --lib env::tests::generated_values_read_back_or_are_refused_by_name
cargo test -q -p sms-harness --lib cache::tests::keys_through_one_tail_are_fresh_keys

echo "==> journal/json regression suite (schema goldens, non-finite floats, watchdog; generated"
echo "    garbage against RFC 8259, every writer byte for byte against the old tree writer)"
cargo test -q -p sms-harness --test journal_schema
cargo test -q -p sms-harness --lib json::
cargo test -q -p sms-harness --lib journal::
cargo test -q -p sms-harness --lib -- --exact json::tests::garbage_is_refused_in_bounds_or_round_trips \
  json::tests::every_writer_matches_the_tree_writer journal::tests::every_event_matches_the_tree_writer \
  cache::tests::records_and_checksum_match_the_tree_writer cache::tests::cursor_decode_equals_get_decode

echo "==> HLBVH suite (builder unit tests, golden vs binned SAH, worker determinism)"
cargo test -q -p sms-bvh --lib hlbvh
cargo test -q -p sms-sim --test hlbvh_golden

echo "==> layout + stackless + predictor suite (batched vs scalar node_step, escape links,"
echo "    stackless vs stacked drivers, table semantics; the FlatBvh digests ran in the first gate)"
cargo test -q -p sms-bvh --lib flat
cargo test -q -p sms-rtunit --lib predictor
cargo test -q -p sms-sim --test stackless_golden

echo "==> SMS_TRACE smoke (well-formed Chrome-trace JSON, Σ buckets == cycles)"
cargo test -q -p sms-harness --test trace_export
cargo test -q -p sms-sim --test attribution

echo "==> metrics suite (observation purity, ledger cross-checks, export goldens)"
cargo test -q -p sms-metrics
cargo test -q -p sms-sim --test metrics_observation
cargo test -q -p sms-sim --test metrics_schema
cargo test -q -p sms-harness --test metrics_byte_identity

echo "==> SMS_METRICS smoke (armed sweep; per-job Prometheus/CSV dumps in one run directory,"
echo "    strictly parsed)"
rm -rf target/metrics-out
# An absolute run directory: cargo bench runs the bench with the package
# dir as CWD, so a relative one would land under crates/bench/.
SMS_METRICS=1 SMS_NO_CACHE=1 SMS_SCENES=WKND,SHIP SMS_OUT="$PWD/target/metrics-out" \
  cargo bench --bench figures -- fig13 > /dev/null
cargo run --release -q -p sms-bench --bin promlint -- \
  target/metrics-out/*.prom target/metrics-out/*.csv
grep -q '"event":"batch_end"' target/metrics-out/journal.jsonl \
  || { echo "the run directory holds no journal"; exit 1; }

echo "==> breakdown sweep smoke (SMS_BREAKDOWN=1, SL + PRED columns included;"
echo "    conservation — predictor_wait bucket included — asserted in-sim)"
SMS_BREAKDOWN=1 SMS_NO_CACHE=1 SMS_SCENES=WKND,SHIP \
  cargo bench --bench figures -- breakdown_stalls > /dev/null

echo "==> fig13 entry count (a fresh-cache sweep over WKND,SHIP writes 2 scenes x 7 configs)"
rm -rf target/fig13-cache
# Absolute: cargo bench runs the bench from crates/bench.
SMS_CACHE_DIR="$PWD/target/fig13-cache" SMS_SCENES=WKND,SHIP cargo bench --bench figures -- fig13 > /dev/null
n=$(ls target/fig13-cache/*.json | wc -l)
[ "$n" -eq 14 ] || { echo "expected 14 fig13 cache entries (SL and PRED_12 included), saw $n"; exit 1; }

echo "==> validator-on sweep smoke (SMS_VALIDATE=1, cache bypassed)"
SMS_VALIDATE=1 SMS_NO_CACHE=1 SMS_SCENES=WKND,SHIP \
  cargo bench --bench figures -- fig13 > /dev/null

echo "==> figures vs experiments/fast.json (every experiment, fast tier, all 16 scenes, fresh"
echo "    cache; a reduced number that left its verdict rule is named with its figure: exit 1)"
rm -rf target/figures-cache
SMS_CACHE_DIR="$PWD/target/figures-cache" cargo bench --bench figures > /dev/null

echo "==> serve smoke (ephemeral port, client sweep, /metrics + /healthz, graceful drain)"
rm -f target/serve-addr
rm -rf target/serve-smoke-cache target/serve-smoke
SMS_OUT=target/serve-smoke SMS_CACHE_DIR=target/serve-smoke-cache \
  cargo run --release -q -p sms-serve --bin sms-serve -- \
  --addr 127.0.0.1:0 --addr-file target/serve-addr --workers 2 &
serve_pid=$!
await_addr_file target/serve-addr "$serve_pid"
serve_addr=$(cat target/serve-addr)
serve_client() { cargo run --release -q -p sms-serve --bin sms-client -- --addr "$serve_addr" "$@"; }
serve_client sweep --scenes WKND,SHIP --configs RB_8,RB_8+SH_8+SK+RA
serve_client probe WKND RB_8 > /dev/null
serve_client health | grep -q ok
serve_client metrics > target/serve-metrics.prom
grep -q '^sms_serve_jobs_total 4$' target/serve-metrics.prom
cargo run --release -q -p sms-bench --bin promlint -- target/serve-metrics.prom
serve_client drain
wait "$serve_pid" || { echo "sms-serve did not drain cleanly"; exit 1; }

echo "==> SIGTERM smoke (the built sms-serve itself, not cargo: kill -TERM drains and exits 0)"
rm -f target/sigterm-addr target/sigterm.log
target/release/sms-serve --addr 127.0.0.1:0 --addr-file target/sigterm-addr --workers 1 \
  2> target/sigterm.log &
sigterm_pid=$!
await_addr_file target/sigterm-addr "$sigterm_pid"
kill -TERM "$sigterm_pid"
wait "$sigterm_pid" || { cat target/sigterm.log; echo "sms-serve did not drain on SIGTERM"; exit 1; }
grep -q 'drained, exiting' target/sigterm.log \
  || { cat target/sigterm.log; echo "sms-serve exited on SIGTERM without draining"; exit 1; }

echo "==> fleet smoke (2 backends, one injected kill, sweep survives, strict metrics)"
rm -f target/fleet-addr target/fleet-a-addr target/fleet-b-addr
rm -rf target/fleet-smoke-cache target/fleet-smoke
# Backend A dies of a deterministic injected kill after its first
# completed job; the fleet must finish the sweep on backend B alone.
SMS_FAULT="kill:jobs=1" SMS_CACHE_DIR=target/fleet-smoke-cache \
  cargo run --release -q -p sms-serve --bin sms-serve -- \
  --addr 127.0.0.1:0 --addr-file target/fleet-a-addr --workers 1 &
backend_a_pid=$!
SMS_CACHE_DIR=target/fleet-smoke-cache \
  cargo run --release -q -p sms-serve --bin sms-serve -- \
  --addr 127.0.0.1:0 --addr-file target/fleet-b-addr --workers 2 &
backend_b_pid=$!
await_addr_file target/fleet-a-addr "$backend_a_pid"
await_addr_file target/fleet-b-addr "$backend_b_pid"
SMS_OUT=target/fleet-smoke SMS_CACHE_DIR=target/fleet-smoke-cache \
  SMS_FLEET_BACKENDS="$(cat target/fleet-a-addr),$(cat target/fleet-b-addr)" \
  cargo run --release -q -p sms-serve --bin sms-fleet -- \
  --addr 127.0.0.1:0 --addr-file target/fleet-addr &
fleet_pid=$!
await_addr_file target/fleet-addr "$fleet_pid"
fleet_addr=$(cat target/fleet-addr)
fleet_client() { cargo run --release -q -p sms-serve --bin sms-client -- --addr "$fleet_addr" "$@"; }
fleet_client sweep --scenes WKND,SHIP --configs RB_8,RB_8+SH_8+SK+RA
fleet_client health | grep -q ok
fleet_client metrics > target/fleet-metrics.prom
grep -q '^sms_fleet_cells_total 4$' target/fleet-metrics.prom
grep -q '^sms_fleet_cells_failed_total 0$' target/fleet-metrics.prom
cargo run --release -q -p sms-bench --bin promlint -- target/fleet-metrics.prom
grep -q job_finished target/fleet-smoke/fleet.journal.jsonl
fleet_client drain
wait "$fleet_pid" || { echo "sms-fleet did not drain cleanly"; exit 1; }
if wait "$backend_a_pid"; then
  echo "backend A survived an injected kill that should have crashed it"
  exit 1
fi
cargo run --release -q -p sms-serve --bin sms-client -- \
  --addr "$(cat target/fleet-b-addr)" drain
wait "$backend_b_pid" || { echo "fleet backend B did not drain cleanly"; exit 1; }

echo "==> traced fleet smoke (SMS_TRACE_CTX armed end to end, merged + validated)"
rm -f target/dtrace-addr target/dtrace-a-addr target/dtrace-b-addr target/trace-merged.json
rm -rf target/dtrace-cache target/dtrace-a target/dtrace-b target/dtrace-fleet
# One fixed trace context shared by the client and (for sim-trace linkage)
# both backends; backend A again dies of an injected kill so the merged
# trace must show the fleet retrying the orphaned cells onto B.
# One run directory per process: concurrent processes must never append
# to the same journal or write the same sim-trace file.
trace_ctx="00000000c0ffee42-0000000000000001"
SMS_FAULT="kill:jobs=1" SMS_CACHE_DIR=target/dtrace-cache \
  SMS_TRACE=1 SMS_TRACE_CTX="$trace_ctx" SMS_OUT=target/dtrace-a \
  cargo run --release -q -p sms-serve --bin sms-serve -- \
  --addr 127.0.0.1:0 --addr-file target/dtrace-a-addr --workers 1 &
dtrace_a_pid=$!
SMS_CACHE_DIR=target/dtrace-cache \
  SMS_TRACE=1 SMS_TRACE_CTX="$trace_ctx" SMS_OUT=target/dtrace-b \
  cargo run --release -q -p sms-serve --bin sms-serve -- \
  --addr 127.0.0.1:0 --addr-file target/dtrace-b-addr --workers 2 &
dtrace_b_pid=$!
await_addr_file target/dtrace-a-addr "$dtrace_a_pid"
await_addr_file target/dtrace-b-addr "$dtrace_b_pid"
SMS_OUT=target/dtrace-fleet SMS_CACHE_DIR=target/dtrace-cache \
  SMS_FLEET_BACKENDS="$(cat target/dtrace-a-addr),$(cat target/dtrace-b-addr)" \
  cargo run --release -q -p sms-serve --bin sms-fleet -- \
  --addr 127.0.0.1:0 --addr-file target/dtrace-addr &
dtrace_fleet_pid=$!
await_addr_file target/dtrace-addr "$dtrace_fleet_pid"
SMS_TRACE_CTX="$trace_ctx" \
  cargo run --release -q -p sms-serve --bin sms-client -- \
  --addr "$(cat target/dtrace-addr)" sweep \
  --scenes WKND,SHIP --configs RB_8,RB_8+SH_8+SK+RA
cargo run --release -q -p sms-serve --bin sms-client -- \
  --addr "$(cat target/dtrace-addr)" drain
wait "$dtrace_fleet_pid" || { echo "traced sms-fleet did not drain cleanly"; exit 1; }
if wait "$dtrace_a_pid"; then
  echo "traced backend A survived an injected kill that should have crashed it"
  exit 1
fi
cargo run --release -q -p sms-serve --bin sms-client -- \
  --addr "$(cat target/dtrace-b-addr)" drain
wait "$dtrace_b_pid" || { echo "traced backend B did not drain cleanly"; exit 1; }
# Strict span-schema validation on every journal that drained cleanly
# (backend A was killed mid-write, so its journal may end in a torn line —
# the merge below skips torn lines but validate is strict by design).
cargo run --release -q -p sms-serve --bin sms-trace -- validate \
  target/dtrace-fleet/fleet.journal.jsonl target/dtrace-b/journal.jsonl
grep -q '"event":"span"' target/dtrace-fleet/fleet.journal.jsonl \
  || { echo "traced fleet journal carries no span lines"; exit 1; }
# Merge fleet + backend journals and any sim traces the backends exported
# into one Chrome-trace file, then assert it really carries dispatch
# slices and cross-track flow arrows for this trace.
sim_args=()
for f in target/dtrace-a/*.trace.json target/dtrace-b/*.trace.json; do
  [ -f "$f" ] && sim_args+=(--sim "$f")
done
cargo run --release -q -p sms-serve --bin sms-trace -- merge \
  --trace 00000000c0ffee42 --out target/trace-merged.json \
  "${sim_args[@]}" \
  target/dtrace-fleet/fleet.journal.jsonl target/dtrace-a/journal.jsonl \
  target/dtrace-b/journal.jsonl
grep -q '"name":"dispatch"' target/trace-merged.json \
  || { echo "merged trace carries no dispatch spans"; exit 1; }
grep -q '"ph":"s"' target/trace-merged.json \
  || { echo "merged trace carries no flow arrows"; exit 1; }

echo "==> cargo clippy --workspace --all-targets -- -D warnings -D clippy::perf"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::perf

# unwrap_used/expect_used are denied at the crate level in sms-harness
# (see crates/harness/src/lib.rs + clippy.toml), so the workspace clippy
# above already enforces them; this names the check in CI output.
echo "==> clippy: no unwrap/expect in sms-harness library code"
cargo clippy -p sms-harness --lib -- -D warnings

echo "==> cargo doc (every intra-doc link resolves: RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "ci.sh: all checks passed"

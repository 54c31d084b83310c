#!/usr/bin/env bash
# Full verification: every check CI runs (CI's job is this script
# plus a time-budgeted daily fuzz run), in the same order.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> toolchain"
rustc --version && cargo --version

echo "==> build (release)"
cargo build --release --workspace --offline

echo "==> tests"
cargo test --workspace --offline -q

echo "==> clippy (-D warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> mctbench build + smoke test (the benchmark must keep compiling)"
cargo build --release --offline --manifest-path mctbench/Cargo.toml
cargo test --release --offline --manifest-path mctbench/Cargo.toml

echo "==> mctq --analyze smoke run"
ANALYZE_QUERY='document("t")/{cust}descendant::order[{cust}child::status = "SHIPPED"]/{cust}child::orderline/{auth}parent::item'
analyze_out=$(cargo run --release --offline --bin mctq -- \
    --db tpcw --scale 0.05 --analyze --metrics-json "$ANALYZE_QUERY")
echo "$analyze_out" | grep -q -- "-- EXPLAIN ANALYZE --" \
    || { echo "FAIL: no EXPLAIN ANALYZE header"; exit 1; }
echo "$analyze_out" | grep -q "^total: .* rows" \
    || { echo "FAIL: no ANALYZE totals footer"; exit 1; }

echo "==> parallel execution smoke (4 threads == 1 thread)"
seq_out=$(cargo run --release --offline --bin mctq -- \
    --db tpcw --scale 0.05 --threads 1 "$ANALYZE_QUERY" 2>/dev/null)
par_out=$(cargo run --release --offline --bin mctq -- \
    --db tpcw --scale 0.05 --threads 4 "$ANALYZE_QUERY" 2>/dev/null)
[ "$seq_out" = "$par_out" ] \
    || { echo "FAIL: --threads 4 output differs from --threads 1"; exit 1; }
echo "$par_out" | grep -q "result(s) via planner" \
    || { echo "FAIL: parallel smoke produced no planner results"; exit 1; }

echo "==> concurrent buffer-pool stress"
RUST_BACKTRACE=1 cargo test -p mct-storage --test concurrent_pool --offline -q

echo "==> metrics JSON well-formedness (mctq + bench report)"
bench_out=$(cargo run --release --offline -p mct-bench --bin table2 -- \
    --scale 0.05 --metrics-json)
if command -v python3 >/dev/null 2>&1; then
    # The JSON dump is the final block of stdout, starting at the first
    # line that is exactly "{".
    echo "$analyze_out" | sed -n '/^{$/,$p' | python3 -m json.tool >/dev/null \
        || { echo "FAIL: mctq metrics JSON malformed"; exit 1; }
    echo "$bench_out" | sed -n '/^{$/,$p' | python3 -m json.tool >/dev/null \
        || { echo "FAIL: bench metrics JSON malformed"; exit 1; }
else
    echo "$analyze_out" | grep -q '"counters"' \
        || { echo "FAIL: mctq metrics JSON missing"; exit 1; }
    echo "$bench_out" | grep -q '"counters"' \
        || { echo "FAIL: bench metrics JSON missing"; exit 1; }
fi

echo "==> bench dry-run (compile only)"
cargo bench --workspace --offline --no-run

echo "==> update crash loop + mctck after every recovery"
RUST_BACKTRACE=1 cargo test --offline -q --test txn_crash

echo "==> mctck deep-checker smoke (movies + tpcw + sigmod builds)"
cargo run --release --offline --bin mctck -- --build movies | grep -q "zero violations" \
    || { echo "FAIL: mctck rejects a clean movies build"; exit 1; }
cargo run --release --offline --bin mctck -- -q --build tpcw --scale 0.05 \
    || { echo "FAIL: mctck rejects a clean tpcw build"; exit 1; }
# Table 1 scale: multi-level bulk-loaded indexes.
cargo run --release --offline --bin mctck -- -q --build tpcw --scale 1.0 \
    || { echo "FAIL: mctck rejects a clean tpcw scale-1.0 build"; exit 1; }
cargo run --release --offline --bin mctck -- -q --build sigmod --scale 1.0 \
    || { echo "FAIL: mctck rejects a clean sigmod scale-1.0 build"; exit 1; }

echo "==> mctd server smoke (queries, update, metrics, SIGTERM drain)"
PORT_FILE=$(mktemp)
rm -f "$PORT_FILE"
cargo run --release --offline -p mct-server --bin mctd -- \
    --db movies --port 0 --port-file "$PORT_FILE" --threads 2 &
MCTD_PID=$!
cleanup_mctd() { kill -9 "$MCTD_PID" 2>/dev/null || true; rm -f "$PORT_FILE"; }
trap cleanup_mctd EXIT
for _ in $(seq 1 100); do [ -s "$PORT_FILE" ] && break; sleep 0.1; done
[ -s "$PORT_FILE" ] || { echo "FAIL: mctd never wrote its port file"; exit 1; }
PORT=$(cat "$PORT_FILE")
MCTC() { cargo run --release --offline -q -p mct-server --bin mct-client -- --port "$PORT" --retries 2 "$@"; }
MCTC health | grep -q '"status":"ok"' \
    || { echo "FAIL: healthz"; exit 1; }
MCTC query 'document("m")/{red}descendant::movie' | grep -q '<node name="movie"' \
    || { echo "FAIL: query 1"; exit 1; }
MCTC query 'document("m")/{red}descendant::movie/{red}child::name' | grep -q 'colors="red' \
    || { echo "FAIL: query 2"; exit 1; }
MCTC query-json 'document("m")/{green}descendant::movie-award' | grep -q '"name":"movie-award"' \
    || { echo "FAIL: query 3 (json)"; exit 1; }
MCTC update 'for $y in document("m")/{green}descendant::movie-award update $y { insert <note>verify</note> }' \
    | grep -q '"tuples":' || { echo "FAIL: update"; exit 1; }
# The cached plan from query 1 must be invalidated by the update, then
# hit again on a rerun — and the inserted note must be visible.
MCTC query 'document("m")/{green}descendant::movie-award/{green}child::note' | grep -q 'verify' \
    || { echo "FAIL: update not visible through a fresh query"; exit 1; }
# The deep consistency checker must pass over the served store,
# including the state the update just committed.
MCTC check | grep -q "zero violations" \
    || { echo "FAIL: GET /check reports violations after an update"; exit 1; }
# A color-scoped delete of the note: gone from green, and the store it
# leaves (every other code kept, nothing rebuilt) still checks clean.
MCTC update 'for $n in document("m")/{green}descendant::note update $n { delete $n }' \
    | grep -q '"tuples":' || { echo "FAIL: delete"; exit 1; }
NOTES=$(MCTC query 'document("m")/{green}descendant::movie-award/{green}child::note') \
    || { echo "FAIL: query after delete"; exit 1; }
if echo "$NOTES" | grep -q 'verify'; then
    echo "FAIL: the deleted note is still in green"; exit 1
fi
MCTC check | grep -q "zero violations" \
    || { echo "FAIL: GET /check reports violations after a delete"; exit 1; }
metrics_out=$(MCTC metrics)
echo "$metrics_out" | grep -q "^# TYPE server_requests counter" \
    || { echo "FAIL: /metrics is not well-formed Prometheus"; exit 1; }
echo "$metrics_out" | grep -q "^# TYPE server_latency_query histogram" \
    || { echo "FAIL: /metrics lacks latency histograms"; exit 1; }
echo "$metrics_out" | grep -Eq "^server_inflight [0-9]+" \
    || { echo "FAIL: /metrics lacks the in-flight gauge"; exit 1; }
echo "$metrics_out" | grep -q "^server_plan_cache_invalidations" \
    || { echo "FAIL: /metrics lacks plan-cache counters"; exit 1; }
# Graceful drain: a request issued just before SIGTERM must complete,
# and mctd must exit 0 after finishing everything in flight.
LAST_OUT=$(mktemp)
MCTC query 'document("m")/{red}descendant::movie' > "$LAST_OUT" &
LAST_PID=$!
sleep 0.5
kill -TERM "$MCTD_PID"
wait "$LAST_PID" || { echo "FAIL: in-flight request lost during drain"; exit 1; }
grep -q '<node name="movie"' "$LAST_OUT" \
    || { echo "FAIL: drained request returned wrong body"; exit 1; }
rm -f "$LAST_OUT"
DRAIN_RC=0
wait "$MCTD_PID" || DRAIN_RC=$?
trap - EXIT
rm -f "$PORT_FILE"
[ "$DRAIN_RC" -eq 0 ] || { echo "FAIL: mctd drain exited $DRAIN_RC"; exit 1; }

scripts/obs_smoke.sh

scripts/checkpoint_smoke.sh

scripts/repl_smoke.sh

scripts/fuzz_smoke.sh

echo "OK: all checks passed"

#!/usr/bin/env bash
# Observability smoke: boots mctd with capture-everything settings and
# asserts the request log, /slow, /stats, and mcttop all work end to
# end. Called from verify.sh and CI; also usable on its own.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> observability smoke (request log, /slow, /stats, mcttop)"
PORT_FILE=$(mktemp)
REQLOG=$(mktemp)
rm -f "$PORT_FILE"
# --slow-ms 0 captures every query; a fast sampler tick means /stats
# has samples within the smoke's lifetime.
cargo run --release --offline -p mct-server --bin mctd -- \
    --db movies --port 0 --port-file "$PORT_FILE" --threads 2 \
    --slow-ms 0 --stats-interval-ms 100 --log-json "$REQLOG" &
MCTD_PID=$!
cleanup() { kill -9 "$MCTD_PID" 2>/dev/null || true; rm -f "$PORT_FILE" "$REQLOG"; }
trap cleanup EXIT
for _ in $(seq 1 100); do [ -s "$PORT_FILE" ] && break; sleep 0.1; done
[ -s "$PORT_FILE" ] || { echo "FAIL: mctd never wrote its port file"; exit 1; }
PORT=$(cat "$PORT_FILE")
MCTC() { cargo run --release --offline -q -p mct-server --bin mct-client -- --port "$PORT" --retries 2 "$@"; }

# Drive enough traffic to populate every observability surface.
for _ in 1 2 3; do
    MCTC query 'document("m")/{red}descendant::movie' >/dev/null \
        || { echo "FAIL: smoke query"; exit 1; }
done
# createColor into a new color (§4.3) must leave the store consistent.
MCTC query 'createColor("byv", <byvotes>{ document("m")/{green}descendant::movie }</byvotes>)' \
    >/dev/null || { echo "FAIL: createColor query"; exit 1; }
check_out=$(MCTC check) || { echo "FAIL: /check after createColor"; exit 1; }
echo "$check_out" | grep -q "zero violations" \
    || { echo "FAIL: /check after createColor: $check_out"; exit 1; }
# Let the sampler take at least two ticks over the traffic.
sleep 0.4

# /healthz is JSON with uptime and start time.
health_out=$(MCTC health)
echo "$health_out" | grep -q '"status":"ok"' \
    || { echo "FAIL: /healthz JSON lacks status"; exit 1; }
echo "$health_out" | grep -q '"uptime_seconds":' \
    || { echo "FAIL: /healthz JSON lacks uptime_seconds"; exit 1; }

# /slow: with --slow-ms 0 every query qualifies, so the log must be
# non-empty, well-formed, and carry the analyze trees.
slow_out=$(MCTC slow)
echo "$slow_out" | grep -q '"threshold_ms":0' \
    || { echo "FAIL: /slow threshold not 0"; exit 1; }
echo "$slow_out" | grep -q '"query":' \
    || { echo "FAIL: /slow captured no queries"; exit 1; }
echo "$slow_out" | grep -q 'total:' \
    || { echo "FAIL: /slow entries lack analyze trees"; exit 1; }

# /stats: samples present, window trims, timestamps monotone.
stats_out=$(MCTC stats 60)
echo "$stats_out" | grep -q '"interval_ms":100' \
    || { echo "FAIL: /stats interval not the configured 100ms"; exit 1; }
echo "$stats_out" | grep -q '"qps":' \
    || { echo "FAIL: /stats has no derived qps"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    echo "$stats_out" | python3 -c '
import json, sys
stats = json.load(sys.stdin)
ts = [s["unix_ms"] for s in stats["samples"]]
assert len(ts) >= 2, f"expected >=2 samples, got {len(ts)}"
assert ts == sorted(ts), "sample timestamps not monotone"
assert stats["aggregate"]["requests"] >= 3, "aggregate missed the traffic"
' || { echo "FAIL: /stats window malformed or non-monotone"; exit 1; }
    echo "$slow_out" | python3 -m json.tool >/dev/null \
        || { echo "FAIL: /slow is not well-formed JSON"; exit 1; }
fi
# A tighter window must return fewer (or equal) samples.
narrow=$(MCTC stats 1)
echo "$narrow" | grep -q '"window":1' \
    || { echo "FAIL: /stats?window=1 did not narrow"; exit 1; }

# mcttop --once renders a frame and exits 0 with no ANSI escapes.
top_out=$(cargo run --release --offline -q -p mct-server --bin mcttop -- \
    --port "$PORT" --once) \
    || { echo "FAIL: mcttop --once exited non-zero"; exit 1; }
echo "$top_out" | grep -q "mcttop" || { echo "FAIL: mcttop frame empty"; exit 1; }
echo "$top_out" | grep -q "slow queries" \
    || { echo "FAIL: mcttop frame lacks the slow-query section"; exit 1; }
printf '%s' "$top_out" | grep -q $'\x1b' \
    && { echo "FAIL: mcttop --once emitted ANSI escapes"; exit 1; }

kill -TERM "$MCTD_PID"
wait "$MCTD_PID" || { echo "FAIL: mctd drain exited non-zero"; exit 1; }

# Request log: one parseable JSON line per request, unique ids.
[ -s "$REQLOG" ] || { echo "FAIL: request log is empty"; exit 1; }
grep -q '"endpoint":"/query"' "$REQLOG" \
    || { echo "FAIL: request log has no /query lines"; exit 1; }
if command -v python3 >/dev/null 2>&1; then
    python3 -c '
import json, sys
ids = []
with open(sys.argv[1]) as f:
    for line in f:
        rec = json.loads(line)
        ids.append(rec["id"])
        assert rec["latency_us"] >= 0 and rec["ts_ms"] > 1_500_000_000_000
assert len(ids) == len(set(ids)), "request ids not unique"
' "$REQLOG" || { echo "FAIL: request log lines malformed"; exit 1; }
fi

trap - EXIT
rm -f "$PORT_FILE" "$REQLOG"
echo "OK: observability smoke passed"

#!/usr/bin/env bash
# metrics_smoke.sh — end-to-end smoke for the observability plane
# (ISSUE 9 / CI job).
#
# Boots a durable spinnerd with -pprof-addr, churns mutations through it,
# and asserts the exposition contract end to end:
#
#   1. GET /v1/metrics answers Prometheus 0.0.4 text: every non-comment
#      line parses as "name{labels} value", and no series repeats;
#   2. counters are monotonic across two scrapes under churn;
#   3. the pipeline stage histograms (drain/journal/apply) are non-empty
#      after mutates, and the HTTP middleware recorded the mutate route;
#   4. /v1/stats carries the latency section with plausible quantiles;
#   5. the pprof side listener serves a heap profile and a 1s CPU
#      profile, both non-empty;
#   6. `spinnerctl metrics` pretty-prints the families.
#
# Usage: scripts/metrics_smoke.sh [port [pprof-port]]
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

PORT="${1:-18677}"
PPROF_PORT="${2:-18678}"
BASE="http://127.0.0.1:$PORT"
PPROF="http://127.0.0.1:$PPROF_PORT"
BINDIR=$(mktemp -d)
DIR=$(mktemp -d)
PID=""
cleanup() {
  [ -n "$PID" ] && { stop_daemon "$PID" || true; }
  rm -rf "$DIR" "$BINDIR"
}
trap cleanup EXIT

echo "== build spinnerd + spinnerctl"
go build -o "$BINDIR/spinnerd" ./cmd/spinnerd
go build -o "$BINDIR/spinnerctl" ./cmd/spinnerctl
CTL="$BINDIR/spinnerctl -addr $BASE"

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "spinnerd never became healthy" >&2
  return 1
}

churn() { # churn <rounds> <salt>
  for i in $(seq 1 "$1"); do
    body=""
    for j in $(seq 1 20); do
      u=$(( (i * 131 + j * 17 + $2) % 2000 ))
      v=$(( (i * 37 + j * 113 + $2 + 1) % 2000 ))
      [ "$u" -eq "$v" ] && v=$(( (v + 1) % 2000 ))
      body+="+ $u $v 2"$'\n'
    done
    printf '%s' "$body" | $CTL mutate >/dev/null
  done
}

# metric <file> <series-regex> — print the value of the first matching
# series line (the last whitespace-separated field).
metric() {
  grep -E "^$2 " "$1" | head -1 | awk '{print $NF}'
}

echo "== boot durable spinnerd with pprof side listener"
"$BINDIR/spinnerd" -k 4 -synthetic 2000 -seed 11 -addr "127.0.0.1:$PORT" \
  -degrade 999999 -data-dir "$DIR" -fsync never -checkpoint-every 8 \
  -pprof-addr "127.0.0.1:$PPROF_PORT" -lookup-sample-every 4 &
PID=$!
wait_healthy

echo "== churn, then first scrape"
churn 6 0
for i in $(seq 0 99); do curl -fsS "$BASE/v1/lookup?v=$i" >/dev/null; done
SCRAPE1="$BINDIR/scrape1.txt"
curl -fsS -D "$BINDIR/headers1.txt" "$BASE/v1/metrics" > "$SCRAPE1"
grep -qi '^content-type: text/plain; version=0.0.4' "$BINDIR/headers1.txt" \
  || { echo "FAIL: wrong Content-Type" >&2; cat "$BINDIR/headers1.txt" >&2; exit 1; }

echo "== exposition parses and has no duplicate series"
BAD=$(grep -v '^#' "$SCRAPE1" | grep -v '^$' | \
  grep -cvE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$' || true)
[ "$BAD" -eq 0 ] || { echo "FAIL: $BAD unparseable exposition lines" >&2; exit 1; }
DUPES=$(grep -v '^#' "$SCRAPE1" | grep -v '^$' | sed 's/ [^ ]*$//' | sort | uniq -d)
[ -z "$DUPES" ] || { echo "FAIL: duplicate series:" >&2; echo "$DUPES" >&2; exit 1; }
SERIES=$(grep -cv '^#' "$SCRAPE1")
echo "   $SERIES series, all parseable, no duplicates"

echo "== stage + http histograms populated after churn"
for stage in drain journal apply; do
  C=$(metric "$SCRAPE1" "spinner_stage_duration_seconds_count\{stage=\"$stage\"\}")
  [ -n "$C" ] && [ "$C" -ge 1 ] \
    || { echo "FAIL: stage=$stage histogram count='$C', want >= 1" >&2; exit 1; }
done
MUTS=$(metric "$SCRAPE1" 'spinner_http_request_duration_seconds_count\{route="mutate",status="2xx"\}')
[ -n "$MUTS" ] && [ "$MUTS" -ge 6 ] \
  || { echo "FAIL: mutate route histogram count='$MUTS', want >= 6" >&2; exit 1; }
LOOKED=$(metric "$SCRAPE1" 'spinner_lookup_duration_seconds_count')
[ -n "$LOOKED" ] && [ "$LOOKED" -ge 1 ] \
  || { echo "FAIL: sampled lookup histogram count='$LOOKED', want >= 1" >&2; exit 1; }
echo "   stage histograms non-empty, mutate route count=$MUTS, sampled lookups=$LOOKED"

echo "== counters monotonic across a second scrape under churn"
churn 4 5
SCRAPE2="$BINDIR/scrape2.txt"
curl -fsS "$BASE/v1/metrics" > "$SCRAPE2"
for name in spinner_lookups_total spinner_batches_applied_total \
            spinner_journal_appends_total spinner_deltas_published_total; do
  A=$(metric "$SCRAPE1" "$name")
  B=$(metric "$SCRAPE2" "$name")
  [ -n "$A" ] && [ -n "$B" ] || { echo "FAIL: counter $name missing from a scrape" >&2; exit 1; }
  [ "$B" -ge "$A" ] || { echo "FAIL: $name went backwards: $A -> $B" >&2; exit 1; }
done
echo "   counters monotonic"

echo "== /v1/stats latency section"
curl -fsS "$BASE/v1/stats" | grep -q '"latency"' \
  || { echo "FAIL: stats missing latency section" >&2; exit 1; }
curl -fsS "$BASE/v1/stats" | grep -q '"stage:apply"' \
  || { echo "FAIL: stats latency missing stage:apply" >&2; exit 1; }
echo "   latency quantiles present"

echo "== pprof side listener"
curl -fsS "$PPROF/debug/pprof/heap" > "$BINDIR/heap.pb.gz"
[ -s "$BINDIR/heap.pb.gz" ] || { echo "FAIL: empty heap profile" >&2; exit 1; }
curl -fsS "$PPROF/debug/pprof/profile?seconds=1" > "$BINDIR/cpu.pb.gz"
[ -s "$BINDIR/cpu.pb.gz" ] || { echo "FAIL: empty CPU profile" >&2; exit 1; }
# The main listener must NOT serve pprof.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/heap")
[ "$CODE" = "404" ] || { echo "FAIL: serving address exposes pprof (http $CODE)" >&2; exit 1; }
echo "   heap + cpu profiles fetched; serving address clean"

echo "== spinnerctl metrics pretty-printer"
$CTL metrics > "$BINDIR/pretty.txt"
grep -q 'spinner_stage_duration_seconds (histogram)' "$BINDIR/pretty.txt" \
  || { echo "FAIL: spinnerctl metrics missing stage family" >&2; cat "$BINDIR/pretty.txt" >&2; exit 1; }
grep -q 'p99=' "$BINDIR/pretty.txt" \
  || { echo "FAIL: spinnerctl metrics printed no quantiles" >&2; exit 1; }
$CTL metrics -raw | head -1 | grep -q '^#' \
  || { echo "FAIL: spinnerctl metrics -raw did not dump the exposition" >&2; exit 1; }
echo "   pretty print + raw dump OK"

echo "== SIGTERM: drain, checkpoint and exit 0 within 5 s"
stop_daemon "$PID"
PID=""

echo "PASS: metrics + pprof observability smoke"

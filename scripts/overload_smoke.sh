#!/usr/bin/env bash
# overload_smoke.sh — end-to-end overload-robustness smoke for the
# multi-tenant serving daemon (ISSUE 6 / CI job).
#
# Boots a durable spinnerd with per-tenant admission quotas, then:
#   1. floods it from an abusive tenant (X-Tenant: abuser) and asserts
#      the flood is refused with honest 429s — machine-readable
#      {"code":"quota_exceeded"} bodies and a Retry-After header —
#      while trickle tenants' writes keep landing with 202;
#   2. asserts the duplicate-resize rejection is typed (400 +
#      {"code":"k_unchanged"}), and that /v1/stats exposes the overload
#      view: QuotaRejections, FairnessPasses, and the per-tenant map
#      with the abuser's quota_rejected count;
#   3. kill -9s the daemon while the abuser is still firing, reopens the
#      data dir, and asserts recovery: healthy, full vertex space, not
#      degraded, and a fresh admission state (quota buckets are not
#      persisted — the abuser gets its burst back).
#
# Usage: scripts/overload_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

PORT="${1:-18574}"
BASE="http://127.0.0.1:$PORT"
BIN=$(mktemp -d)/spinnerd
DIR=$(mktemp -d)
PID=""
FLOOD_PID=""
cleanup() {
  [ -n "$FLOOD_PID" ] && kill -9 "$FLOOD_PID" 2>/dev/null || true
  [ -n "$PID" ] && { stop_daemon "$PID" || true; }
  rm -rf "$DIR" "$(dirname "$BIN")"
}
trap cleanup EXIT

echo "== build spinnerd"
go build -o "$BIN" ./cmd/spinnerd

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "spinnerd never became healthy" >&2
  return 1
}

stat_field() { # stat_field <key> — crude JSON number extraction, no jq dependency
  curl -fsS "$BASE/v1/stats" | tr ',{}' '\n\n\n' | grep -m1 "\"$1\":" | sed 's/.*: *//'
}

# mutate <tenant> — POST one small batch; prints the HTTP status code.
mutate() {
  curl -s -o /dev/null -w '%{http_code}' -H "X-Tenant: $1" \
    -X POST --data-binary "+ $((RANDOM % 2000)) $((RANDOM % 2000)) 2" "$BASE/v1/mutate"
}

echo "== boot durable spinnerd with per-tenant quotas (rate=2, burst=3, weights trickle=2)"
"$BIN" -k 4 -synthetic 2000 -seed 11 -addr "127.0.0.1:$PORT" \
  -degrade 999999 -data-dir "$DIR" -fsync never \
  -quota-rate 2 -quota-burst 3 -quota-depth 8 -quota-weights "trickle-a=2" &
PID=$!
wait_healthy

echo "== abusive tenant: 20 rapid mutates, quota must refuse most with 429"
ACCEPTED=0
REJECTED=0
for _ in $(seq 1 20); do
  code=$(mutate abuser)
  case "$code" in
    202) ACCEPTED=$((ACCEPTED + 1)) ;;
    429) REJECTED=$((REJECTED + 1)) ;;
    *) echo "FAIL: abuser mutate got HTTP $code, want 202 or 429" >&2; exit 1 ;;
  esac
done
echo "   abuser: $ACCEPTED accepted, $REJECTED rejected"
[ "$ACCEPTED" -ge 1 ] || { echo "FAIL: abuser never got its burst" >&2; exit 1; }
[ "$REJECTED" -ge 10 ] || { echo "FAIL: only $REJECTED/20 abuser requests refused" >&2; exit 1; }

echo "== a 429 carries Retry-After and a machine-readable code"
HDRS=$(mktemp)
BODY=$(curl -s -D "$HDRS" -H "X-Tenant: abuser" -X POST --data-binary "+ 1 2 2" "$BASE/v1/mutate")
grep -qi '^retry-after: *[1-9]' "$HDRS" || { echo "FAIL: 429 without Retry-After header" >&2; cat "$HDRS" >&2; exit 1; }
echo "$BODY" | grep -q '"code": *"quota_exceeded"' || { echo "FAIL: 429 body lacks code quota_exceeded: $BODY" >&2; exit 1; }
rm -f "$HDRS"

echo "== trickle tenants sail through beside the flood"
for tenant in trickle-a trickle-b; do
  code=$(mutate "$tenant")
  [ "$code" = "202" ] || { echo "FAIL: $tenant mutate got HTTP $code beside the flood, want 202" >&2; exit 1; }
done

echo "== duplicate resize is a typed 400"
RESIZE=$(curl -s -w '\n%{http_code}' -X POST "$BASE/v1/resize?k=4")
RESIZE_CODE=$(echo "$RESIZE" | tail -1)
[ "$RESIZE_CODE" = "400" ] || { echo "FAIL: resize to current k got HTTP $RESIZE_CODE, want 400" >&2; exit 1; }
echo "$RESIZE" | grep -q '"code": *"k_unchanged"' || { echo "FAIL: duplicate resize body lacks code k_unchanged" >&2; exit 1; }

echo "== /v1/stats exposes the overload view"
sleep 0.5 # let the accepted writes drain so fairness passes are counted
QUOTA_REJ=$(stat_field QuotaRejections)
FAIR=$(stat_field FairnessPasses)
DEGRADED=$(stat_field degraded)
echo "   quota-rejections=$QUOTA_REJ fairness-passes=$FAIR degraded=$DEGRADED"
[ "$QUOTA_REJ" -ge 10 ] || { echo "FAIL: QuotaRejections=$QUOTA_REJ, want >= 10" >&2; exit 1; }
[ "$FAIR" -ge 1 ] || { echo "FAIL: FairnessPasses=$FAIR, want >= 1" >&2; exit 1; }
[ "$DEGRADED" = "false" ] || { echo "FAIL: store degraded during quota smoke" >&2; exit 1; }
STATS=$(curl -fsS "$BASE/v1/stats")
echo "$STATS" | grep -q '"abuser"' || { echo "FAIL: /v1/stats tenants map lacks the abuser" >&2; exit 1; }
echo "$STATS" | tr '{}' '\n\n' | grep -A1 '"abuser"' | grep -q '"quota_rejected": *[1-9]' \
  || { echo "FAIL: abuser quota_rejected not surfaced in /v1/stats" >&2; exit 1; }

echo "== crash: kill -9 while the abuser is still firing"
( while :; do mutate abuser >/dev/null 2>&1 || true; done ) &
FLOOD_PID=$!
sleep 0.3
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""
kill -9 "$FLOOD_PID" 2>/dev/null || true
wait "$FLOOD_PID" 2>/dev/null || true
FLOOD_PID=""

echo "== recover from $DIR"
"$BIN" -addr "127.0.0.1:$PORT" -degrade 999999 -data-dir "$DIR" -fsync never \
  -quota-rate 2 -quota-burst 3 -quota-depth 8 -quota-weights "trickle-a=2" &
PID=$!
wait_healthy

VERTICES=$(stat_field vertices)
DEGRADED=$(stat_field degraded)
echo "   vertices=$VERTICES degraded=$DEGRADED"
[ "$VERTICES" = "2000" ] || { echo "FAIL: vertex space not recovered" >&2; exit 1; }
[ "$DEGRADED" = "false" ] || { echo "FAIL: recovered store reports degraded" >&2; exit 1; }

echo "== admission state is fresh after recovery (buckets are not persisted)"
code=$(mutate abuser)
[ "$code" = "202" ] || { echo "FAIL: abuser's post-recovery burst got HTTP $code, want 202" >&2; exit 1; }

stop_daemon "$PID"
PID=""
echo "overload smoke: OK"

#!/usr/bin/env bash
# replication_smoke.sh — end-to-end replicated-serving smoke for the
# spinnerd daemon (ISSUE 7 / CI job).
#
# Boots a durable leader on a synthetic graph plus a warm-standby
# follower tailing its journal stream (-follow). Drives mutation churn at
# the leader, asserts the follower's lag gauge reads 0 within 100 ms of the
# churn stopping (the stream is commit-woken), that it converges to the
# same applied sequence with bounded staleness, serves lookups from its
# own snapshots, and refuses writes (503 read_only). Then a resize to
# k=5 with 12 batches right behind it, so the repair restabilization
# merges while batches arrive: the follower, booted with another -seed,
# adopts the leader's journaled relabels, the resize's and the merge's,
# and its whole label map must equal the leader's. Then the
# failover drill: record the leader's acknowledged-and-replicated
# watermark, kill -9 the leader, POST /v1/promote on the follower, and
# assert the promoted node reports role=leader, has lost no acknowledged
# batch (applied_seq >= the pre-kill watermark), serves the leader's
# whole pre-kill label map, and accepts writes.
#
# Usage: scripts/replication_smoke.sh [leader-port] [follower-port]
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

LPORT="${1:-18577}"
FPORT="${2:-18578}"
LBASE="http://127.0.0.1:$LPORT"
FBASE="http://127.0.0.1:$FPORT"
BIN=$(mktemp -d)/spinnerd
CTL=$(dirname "$BIN")/spinnerctl
LDIR=$(mktemp -d)
FDIR=$(mktemp -d)
LPID=""
FPID=""
cleanup() {
  [ -n "$LPID" ] && { stop_daemon "$LPID" || true; }
  [ -n "$FPID" ] && { stop_daemon "$FPID" || true; }
  rm -rf "$LDIR" "$FDIR" "$LDIR.labels" "$FDIR.labels" "$(dirname "$BIN")"
}
trap cleanup EXIT

echo "== build spinnerd and spinnerctl"
go build -o "$BIN" ./cmd/spinnerd
go build -o "$CTL" ./cmd/spinnerctl

wait_healthy() { # wait_healthy <base-url>
  for _ in $(seq 1 100); do
    if curl -fsS "$1/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "spinnerd at $1 never became healthy" >&2
  return 1
}

stat_field() { # stat_field <base-url> <key> — crude JSON extraction, no jq dependency
  curl -fsS "$1/v1/stats" | tr ',{}' '\n\n\n' | grep -m1 "\"$2\":" | sed 's/.*: *//' | tr -d '"'
}

churn() { # churn <rounds> <salt> — mutation batches against the leader
  for i in $(seq 1 "$1"); do
    body=""
    for j in $(seq 1 20); do
      u=$(( (i * 131 + j * 17 + $2) % 2000 ))
      v=$(( (i * 37 + j * 113 + $2 + 1) % 2000 ))
      [ "$u" -eq "$v" ] && v=$(( (v + 1) % 2000 ))
      body+="+ $u $v 2"$'\n'
    done
    curl -fsS -X POST --data-binary "$body" "$LBASE/v1/mutate" >/dev/null
  done
}

# wait_caught_up: block until the follower has applied the leader's
# current journal watermark (acknowledged AND replicated).
wait_caught_up() {
  want=$(stat_field "$LBASE" applied_seq)
  for _ in $(seq 1 200); do
    got=$(stat_field "$FBASE" applied_seq)
    [ -n "$got" ] && [ "$got" -ge "$want" ] && return 0
    sleep 0.1
  done
  echo "follower stuck at applied_seq=$got, leader at $want" >&2
  return 1
}

echo "== boot leader (fsync=never, checkpoint-every=8)"
# -degrade keeps the cut trigger from firing, so the one restabilization
# is the repair of the resize below, and the drill knows when it merged.
# Restabilization no longer makes labels differ: the leader journals each
# relabel and the follower adopts it.
"$BIN" -k 4 -synthetic 2000 -seed 11 -addr "127.0.0.1:$LPORT" \
  -degrade 999999 -data-dir "$LDIR" -fsync never -fsync-interval 25ms \
  -checkpoint-every 8 -keep-checkpoints 2 &
LPID=$!
wait_healthy "$LBASE"

echo "== boot follower tailing $LBASE"
# -seed 12, not the leader's 11: the journal replay path is the recovery
# path, and the follower adopts every relabel the leader journaled, the
# resize's below among them, so its labels do not depend on its seed.
"$BIN" -k 4 -seed 12 -addr "127.0.0.1:$FPORT" -degrade 999999 \
  -follow "127.0.0.1:$LPORT" -data-dir "$FDIR" -fsync never \
  -max-staleness 30s &
FPID=$!
wait_healthy "$FBASE"
[ "$(stat_field "$FBASE" role)" = "follower" ] || { echo "FAIL: follower reports role=$(stat_field "$FBASE" role)" >&2; exit 1; }
[ "$(stat_field "$LBASE" role)" = "leader" ] || { echo "FAIL: leader reports role=$(stat_field "$LBASE" role)" >&2; exit 1; }

echo "== churn: 24 mutation batches at the leader"
churn 24 0
# The stream is pushed on commit, not polled: once the churn stops, the
# follower's own lag gauge must read 0 on the first scrape after a short
# settle, not after some number of poll periods.
sleep 0.1
LAG=$(curl -fsS "$FBASE/v1/metrics" | awk '$1 == "spinner_replica_lag_records" {print $2}')
[ "$LAG" = "0" ] || { echo "FAIL: spinner_replica_lag_records=$LAG 100ms after the churn stopped, want 0" >&2; exit 1; }
wait_caught_up

STALE=$(stat_field "$FBASE" staleness_ms)
echo "   follower caught up (applied_seq=$(stat_field "$FBASE" applied_seq), staleness=${STALE}ms)"
[ -n "$STALE" ] && [ "$STALE" -lt 5000 ] || { echo "FAIL: follower staleness ${STALE}ms, want < 5000" >&2; exit 1; }

echo "== follower refuses writes while tailing"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary "+ 1 2 2" "$FBASE/v1/mutate")
[ "$CODE" = "503" ] || { echo "FAIL: follower /v1/mutate returned $CODE, want 503 read_only" >&2; exit 1; }

echo "== lookup sample served from the follower's own snapshots"
for v in 1 42 500 999 1500 1999; do
  lpart=$(curl -fsS "$LBASE/v1/lookup?v=$v" | tr ',{}' '\n\n\n' | grep -m1 '"partition":' | sed 's/.*: *//')
  fpart=$(curl -fsS "$FBASE/v1/lookup?v=$v" | tr ',{}' '\n\n\n' | grep -m1 '"partition":' | sed 's/.*: *//')
  [ "$fpart" = "$lpart" ] || { echo "FAIL: lookup($v) leader=$lpart follower=$fpart" >&2; exit 1; }
done

echo "== more churn"
churn 12 7

echo "== resize to k=5 with 12 batches behind it: the repair merges mid-churn"
EPOCH=$(stat_field "$LBASE" epoch)
"$CTL" -addr "$LBASE" resize 5 >/dev/null
churn 12 13
for _ in $(seq 1 200); do
  [ "$(stat_field "$LBASE" epoch)" -gt "$EPOCH" ] && break
  sleep 0.1
done
[ "$(stat_field "$LBASE" epoch)" -gt "$EPOCH" ] || { echo "FAIL: the resize's repair never merged on the leader" >&2; exit 1; }
wait_caught_up
WATERMARK=$(stat_field "$FBASE" applied_seq)
"$CTL" -addr "$LBASE" labels > "$LDIR.labels"
"$CTL" -addr "$FBASE" labels > "$FDIR.labels"
cmp -s "$LDIR.labels" "$FDIR.labels" || {
  echo "FAIL: follower labels differ from the leader's in $(diff "$LDIR.labels" "$FDIR.labels" | grep -c '^<') vertices" >&2; exit 1; }
echo "   watermark=$WATERMARK (acknowledged and replicated), epoch=$(stat_field "$FBASE" epoch), $(wc -l < "$FDIR.labels") labels equal"

echo "== kill -9 the leader"
kill -9 "$LPID"
wait "$LPID" 2>/dev/null || true
LPID=""

echo "== promote the follower"
PROMOTE=$(curl -fsS -X POST "$FBASE/v1/promote")
echo "   $PROMOTE"
echo "$PROMOTE" | grep -q '"promoted": *true' || { echo "FAIL: promote response: $PROMOTE" >&2; exit 1; }
[ "$(stat_field "$FBASE" role)" = "leader" ] || { echo "FAIL: promoted node still role=$(stat_field "$FBASE" role)" >&2; exit 1; }

APPLIED=$(stat_field "$FBASE" applied_seq)
[ "$APPLIED" -ge "$WATERMARK" ] || { echo "FAIL: promoted applied_seq=$APPLIED lost acknowledged batches (watermark $WATERMARK)" >&2; exit 1; }

echo "== lookup consistency across failover: the leader's whole label map"
"$CTL" -addr "$FBASE" labels > "$FDIR.labels"
cmp -s "$LDIR.labels" "$FDIR.labels" || {
  echo "FAIL: promoted labels differ from the leader's pre-kill map in $(diff "$LDIR.labels" "$FDIR.labels" | grep -c '^<') vertices" >&2; exit 1; }

echo "== promoted node accepts writes"
curl -fsS -X POST --data-binary "+ 5 6 2" "$FBASE/v1/mutate" >/dev/null || { echo "FAIL: promoted node refused a write" >&2; exit 1; }
NEW_APPLIED=$(stat_field "$FBASE" applied_seq)
[ "$NEW_APPLIED" -gt "$APPLIED" ] || sleep 0.5
NEW_APPLIED=$(stat_field "$FBASE" applied_seq)
[ "$NEW_APPLIED" -gt "$APPLIED" ] || { echo "FAIL: post-promotion write never journaled ($APPLIED -> $NEW_APPLIED)" >&2; exit 1; }

stop_daemon "$FPID"
FPID=""
echo "replication smoke: OK"

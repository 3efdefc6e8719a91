#!/usr/bin/env bash
# recovery_smoke.sh — end-to-end crash-recovery smoke for the durable
# serving daemon (CI job).
#
# Boots a durable spinnerd on a synthetic graph, drives mutation batches
# at it over HTTP, records the pre-crash partition of a sample of
# vertices, then kill -9s the process mid-churn. On top of the plain
# crash, the script simulates dying DURING an in-flight background
# checkpoint: the newest checkpoint file is removed — install
# is atomic, so an interrupted checkpoint simply never appears — and a
# torn temp file is left in the checkpoint directory. A second spinnerd
# over the same data dir must recover (previous checkpoint + LONGER
# journal tail replay, temp file ignored), answer /v1/healthz, report zero
# cut drift from the post-recovery exact reconcile, and resolve every
# sampled vertex to a valid partition — identical to the pre-crash
# answer for the quiesced prefix.
#
# Usage: scripts/recovery_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

PORT="${1:-18573}"
BASE="http://127.0.0.1:$PORT"
BIN=$(mktemp -d)/spinnerd
DIR=$(mktemp -d)
PID=""
cleanup() {
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

stat_field() { # stat_field <jq-ish key> — crude JSON number extraction, no jq dependency
  curl -fsS "$BASE/v1/stats" | tr ',{}' '\n\n\n' | grep -m1 "\"$1\":" | sed 's/.*: *//'
}

echo "== boot durable spinnerd (fsync=never, checkpoint-every=4, keep-checkpoints=2)"
# -degrade keeps the cut trigger from firing. Restabilization no longer
# makes labels differ (recovery adopts every journaled relabel), but a run
# the trigger started before the kill would restart on the recovered
# leader and move labels after the pre-crash lookups were taken.
# -keep-checkpoints/-fsync-interval exercise the durability knobs.
"$BIN" -k 4 -synthetic 2000 -seed 11 -addr "127.0.0.1:$PORT" \
  -degrade 999999 -data-dir "$DIR" -fsync never -fsync-interval 25ms \
  -checkpoint-every 4 -keep-checkpoints 2 &
PID=$!
wait_healthy

# The API is /v1 only: the pre-versioning aliases are gone.
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz")
[ "$CODE" = "404" ] || { echo "FAIL: unversioned /healthz returned $CODE, want 404" >&2; exit 1; }

# A periodic checkpoint is due only once the journal outweighs the boot
# checkpoint (about 335 KB here), so each batch adds its 20 edges 60
# times: their weights merge, the checkpoint barely grows, and the
# journal grows about 14 KB a batch, enough for one periodic checkpoint.
echo "== churn: 40 mutation batches over HTTP"
for i in $(seq 1 40); do
  edges=""
  for j in $(seq 1 20); do
    u=$(( (i * 131 + j * 17) % 2000 ))
    v=$(( (i * 37 + j * 113 + 1) % 2000 ))
    [ "$u" -eq "$v" ] && v=$(( (v + 1) % 2000 ))
    edges+="+ $u $v 2"$'\n'
  done
  body=""
  for _ in $(seq 1 60); do body+="$edges"; done
  curl -fsS -X POST --data-binary "$body" "$BASE/v1/mutate" >/dev/null
done

# Let the store drain far enough that a checkpoint exists, then record
# the pre-crash lookups we will compare after recovery.
sleep 1
APPLIED_BEFORE=$(stat_field applied)
SAMPLE="1 42 500 999 1500 1999"
declare -A BEFORE
for v in $SAMPLE; do
  BEFORE[$v]=$(curl -fsS "$BASE/v1/lookup?v=$v" | tr ',{}' '\n\n\n' | grep -m1 '"partition":' | sed 's/.*: *//')
done
echo "   applied=$APPLIED_BEFORE before crash"

echo "== crash: kill -9 mid-churn"
curl -fsS -X POST --data-binary "+ 3 4 2" "$BASE/v1/mutate" >/dev/null || true
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== simulate crash during an in-flight background checkpoint"
# The newest checkpoint never finished installing (atomic rename → it
# simply does not exist) and the writer died mid-write (leftover .tmp).
# Recovery must ignore the temp file, fall back to the previous retained
# checkpoint, and replay the longer journal tail to the same answers.
CKPTS=( "$DIR"/checkpoints/ckpt-*.ckpt )
[ "${#CKPTS[@]}" -ge 2 ] || { echo "FAIL: need >= 2 checkpoints to lose one, have ${#CKPTS[@]}" >&2; exit 1; }
NEWEST="${CKPTS[${#CKPTS[@]}-1]}"
echo "   dropping $NEWEST (of ${#CKPTS[@]} checkpoints)"
rm "$NEWEST"
printf 'torn checkpoint write' > "$DIR/checkpoints/ckpt-0123456789abcdef.tmp"

echo "== recover from $DIR"
"$BIN" -addr "127.0.0.1:$PORT" -degrade 999999 -data-dir "$DIR" -fsync never -fsync-interval 25ms \
  -checkpoint-every 4 -keep-checkpoints 2 &
PID=$!
wait_healthy

VERTICES=$(stat_field vertices)
DURABLE=$(stat_field durable)
DRIFT=$(stat_field CutDrift)
RECONCILES=$(stat_field CutReconciles)
APPLIED_AFTER=$(stat_field applied)
REPLAYED=$(stat_field ReplayedRecords)
CKPT_PENDING=$(stat_field CheckpointsPending)
echo "   vertices=$VERTICES durable=$DURABLE applied=$APPLIED_AFTER reconciles=$RECONCILES drift=$DRIFT replayed=$REPLAYED ckpt-pending=$CKPT_PENDING"
[ "$VERTICES" = "2000" ] || { echo "FAIL: vertex space not recovered" >&2; exit 1; }
[ "$DURABLE" = "true" ] || { echo "FAIL: recovered store not durable" >&2; exit 1; }
[ "$DRIFT" = "0" ] || { echo "FAIL: cut drift $DRIFT after recovery" >&2; exit 1; }
[ "$RECONCILES" -ge 1 ] || { echo "FAIL: post-recovery reconcile never ran" >&2; exit 1; }
[ "$APPLIED_AFTER" -ge "$APPLIED_BEFORE" ] || { echo "FAIL: applied went backwards ($APPLIED_BEFORE -> $APPLIED_AFTER)" >&2; exit 1; }
# The fallback checkpoint covers at least -checkpoint-every fewer applied
# batches than the one we deleted, so the replayed tail must be non-empty.
[ "$REPLAYED" -ge 1 ] || { echo "FAIL: fallback recovery replayed nothing" >&2; exit 1; }

echo "== lookup consistency on $SAMPLE"
for v in $SAMPLE; do
  part=$(curl -fsS "$BASE/v1/lookup?v=$v" | tr ',{}' '\n\n\n' | grep -m1 '"partition":' | sed 's/.*: *//')
  if [ -z "$part" ] || [ "$part" -lt 0 ] || [ "$part" -ge 4 ]; then
    echo "FAIL: lookup($v) = '$part' out of [0,4)" >&2; exit 1
  fi
  if [ "$part" != "${BEFORE[$v]}" ]; then
    echo "FAIL: lookup($v) = $part, pre-crash ${BEFORE[$v]}" >&2; exit 1
  fi
done

stop_daemon "$PID"
PID=""
echo "recovery smoke: OK"

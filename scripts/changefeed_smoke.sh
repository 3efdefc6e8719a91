#!/usr/bin/env bash
# changefeed_smoke.sh — end-to-end smoke for the /v1 change feed and for
# recovery through journaled relabels (CI job).
#
# Boots a durable spinnerd with a small delta ring, tails /v1/watch with
# a live spinnerctl consumer while mutation batches churn the graph, then
# asserts the consumer-facing contract end to end:
#
#   1. a live `spinnerctl watch` stream delivers delta frames while the
#      writes are in flight;
#   2. `spinnerctl feed-labels` — which builds the label map purely from
#      the change feed, falling back to the /v1/lookup resync when its
#      cursor is compacted out of the small ring (the documented 410
#      path) — converges to exactly the `spinnerctl labels` lookup truth;
#   3. 50 concurrent watchers tailing the same cursor under churn all
#      receive identical deltas (the encode-once fan-out), the server
#      encoded each publication exactly once regardless of stream count
#      (DeltaEncodes == DeltasPublished), and the WatchStreams gauge
#      drains back to zero when they hang up;
#   4. a `spinnerctl resize` lands in the journal above the newest
#      checkpoint as a relabel record, and so does its repair merge (the
#      churn is far too small for the journal to outweigh the boot
#      checkpoint, so no periodic checkpoint covers them);
#   5. after a kill -9, a second spinnerd over the same data dir, started
#      with another -seed, recovers from that full checkpoint plus the
#      journal tail, replaying every record above it: it answers
#      /v1/healthz at the new k and merge
#      epoch, reports zero cut drift, answers every lookup as before the
#      crash, and the feed-vs-lookup convergence holds again on the
#      recovered incarnation.
#
# Usage: scripts/changefeed_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

PORT="${1:-18577}"
BASE="http://127.0.0.1:$PORT"
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

stat_field() { # crude JSON number extraction, no jq dependency
  curl -fsS "$BASE/v1/stats" | tr ',{}' '\n\n\n' | grep -m1 "\"$1\":" | sed 's/.*: *//'
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

echo "== boot durable spinnerd (delta-ring=32, checkpoint-every=4)"
# -degrade suppresses background restabilization so the feed-vs-lookup
# comparison races no relabeling; the tiny ring forces the 410 resync.
"$BINDIR/spinnerd" -k 4 -synthetic 2000 -seed 11 -addr "127.0.0.1:$PORT" \
  -degrade 999999 -data-dir "$DIR" -fsync never -checkpoint-every 4 \
  -delta-ring 32 &
PID=$!
wait_healthy

echo "== live /v1/watch consumer under churn"
WATCHOUT="$BINDIR/watch.out"
$CTL watch -count 3 > "$WATCHOUT" &
WATCHPID=$!
churn 8 0
wait "$WATCHPID"
DELTALINES=$(grep -c '^seq=' "$WATCHOUT" || true)
[ "$DELTALINES" -ge 3 ] || { echo "FAIL: live watch printed $DELTALINES delta lines, want >= 3" >&2; cat "$WATCHOUT" >&2; exit 1; }
echo "   live consumer streamed $DELTALINES deltas"

echo "== churn past the 32-slot ring, then feed-labels must resync and converge"
churn 30 7
sleep 1  # drain
FLOOR=$(stat_field delta_floor)
NEXT=$(stat_field delta_next)
[ "$FLOOR" -gt 1 ] || { echo "FAIL: delta floor $FLOOR, ring never compacted" >&2; exit 1; }
$CTL feed-labels > "$BINDIR/feed.txt"
$CTL labels > "$BINDIR/lookup.txt"
if ! diff -q "$BINDIR/feed.txt" "$BINDIR/lookup.txt" >/dev/null; then
  echo "FAIL: feed-reconstructed labels differ from lookup truth" >&2
  diff "$BINDIR/feed.txt" "$BINDIR/lookup.txt" | head >&2
  exit 1
fi
LINES=$(wc -l < "$BINDIR/feed.txt")
echo "   feed == lookup over $LINES vertices (retention [$FLOOR,$NEXT))"

# WatchStreams is a gauge of open streams (0 once consumers hang up);
# the monotonic accepted-stream count is WatchStreamsTotal.
WATCHES=$(stat_field WatchStreamsTotal)
PUBLISHED=$(stat_field DeltasPublished)
[ "$WATCHES" -ge 2 ] || { echo "FAIL: WatchStreamsTotal=$WATCHES, want >= 2" >&2; exit 1; }
[ "$PUBLISHED" -ge 32 ] || { echo "FAIL: DeltasPublished=$PUBLISHED, want >= 32" >&2; exit 1; }

echo "== fan-out: 50 concurrent watchers under churn see identical deltas"
# All watchers tail from the same cursor while mutations churn the ring
# underneath (and compact it past older sequences). The encode-once
# fan-out hands every stream the same memoized frames, so after
# normalizing away the per-connection handshake line the outputs must be
# byte-identical — and the server must have encoded each delta exactly
# once no matter how many streams were attached.
FROM=$(( $(stat_field delta_next) - 1 ))
WDIR="$BINDIR/fanout"
mkdir -p "$WDIR"
WPIDS=()
for i in $(seq 1 50); do
  $CTL watch -from "$FROM" -count 5 > "$WDIR/w$i.out" &
  WPIDS+=("$!")
done
sleep 1 # let the streams connect before churn compacts FROM away
churn 10 41
for p in "${WPIDS[@]}"; do wait "$p"; done
for i in $(seq 1 50); do
  grep '^seq=' "$WDIR/w$i.out" > "$WDIR/w$i.seqs" || true
done
for i in $(seq 2 50); do
  diff -q "$WDIR/w1.seqs" "$WDIR/w$i.seqs" >/dev/null || {
    echo "FAIL: watcher $i deltas differ from watcher 1 (fan-out not identical)" >&2
    diff "$WDIR/w1.seqs" "$WDIR/w$i.seqs" | head >&2
    exit 1
  }
done
NSEQS=$(wc -l < "$WDIR/w1.seqs")
[ "$NSEQS" -eq 5 ] || { echo "FAIL: watchers saw $NSEQS deltas, want 5" >&2; cat "$WDIR/w1.out" >&2; exit 1; }
sleep 1 # drain the churn so the two counters are sampled at rest
PUB=$(stat_field DeltasPublished)
ENC=$(stat_field DeltaEncodes)
[ "$PUB" = "$ENC" ] || { echo "FAIL: DeltaEncodes=$ENC != DeltasPublished=$PUB (encode-once broken)" >&2; exit 1; }
for _ in $(seq 1 50); do
  [ "$(stat_field WatchStreams)" = "0" ] && break
  sleep 0.1
done
[ "$(stat_field WatchStreams)" = "0" ] || { echo "FAIL: WatchStreams gauge stuck at $(stat_field WatchStreams)" >&2; exit 1; }
# And the feed still reconstructs lookup truth after the fan-out churn.
$CTL feed-labels > "$BINDIR/feed-fanout.txt"
$CTL labels > "$BINDIR/lookup-fanout.txt"
diff -q "$BINDIR/feed-fanout.txt" "$BINDIR/lookup-fanout.txt" >/dev/null \
  || { echo "FAIL: post-fan-out feed differs from lookup truth" >&2; exit 1; }
echo "   50 watchers, identical frames, $ENC encodes for $PUB publications, streams drained"

echo "== resize 4 -> 5: the resize and its repair merge are journaled as relabel records"
EPOCH0=$(stat_field epoch)
SEQ0=$(stat_field applied_seq)
$CTL resize 5 >/dev/null
for _ in $(seq 1 100); do
  [ "$(stat_field epoch)" -gt "$EPOCH0" ] && break
  sleep 0.1
done
EPOCH=$(stat_field epoch)
SEQ=$(stat_field applied_seq)
[ "$EPOCH" -gt "$EPOCH0" ] || { echo "FAIL: the resize's repair never merged (epoch $EPOCH0)" >&2; exit 1; }
[ "$SEQ" -ge $((SEQ0 + 2)) ] || { echo "FAIL: journal went $SEQ0 -> $SEQ, want the resize's relabel and its repair merge's" >&2; exit 1; }
CKPT=$(ls "$DIR"/checkpoints/ckpt-*.ckpt | tail -n 1)
CKSEQ=$((16#$(basename "$CKPT" .ckpt | sed 's/^ckpt-//')))
[ "$CKSEQ" -le "$SEQ0" ] || { echo "FAIL: checkpoint $CKSEQ covers the resize at $((SEQ0 + 1)); it must be in the journal tail" >&2; exit 1; }
if ls "$DIR"/checkpoints/*.dckp >/dev/null 2>&1; then
  echo "FAIL: delta checkpoint files on disk" >&2; ls -la "$DIR/checkpoints" >&2; exit 1
fi
$CTL labels > "$BINDIR/precrash.txt"
echo "   epoch $EPOCH0 -> $EPOCH, journal $SEQ0 -> $SEQ above checkpoint $CKSEQ"

echo "== crash: kill -9 with the relabel in the journal tail"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
PID=""

echo "== recover from the full checkpoint plus the journal tail, with -seed 12"
# Not the boot's -seed 11: the journal holds the resize's relabel, so
# replay adopts it and the seed does not change what is recovered.
"$BINDIR/spinnerd" -seed 12 -addr "127.0.0.1:$PORT" -degrade 999999 -data-dir "$DIR" \
  -fsync never -checkpoint-every 4 -delta-ring 32 &
PID=$!
wait_healthy
VERTICES=$(stat_field vertices)
DRIFT=$(stat_field CutDrift)
REPLAYED=$(stat_field ReplayedRecords)
NEWK=$(stat_field k)
NEWEPOCH=$(stat_field epoch)
echo "   vertices=$VERTICES k=$NEWK epoch=$NEWEPOCH drift=$DRIFT replayed=$REPLAYED"
[ "$VERTICES" = "2000" ] || { echo "FAIL: vertex space not recovered" >&2; exit 1; }
[ "$DRIFT" = "0" ] || { echo "FAIL: cut drift $DRIFT after recovery" >&2; exit 1; }
[ "$REPLAYED" = "$((SEQ - CKSEQ))" ] || { echo "FAIL: replayed $REPLAYED records, want the $((SEQ - CKSEQ)) above checkpoint $CKSEQ" >&2; exit 1; }
[ "$NEWK" = "5" ] && [ "$NEWEPOCH" = "$EPOCH" ] || { echo "FAIL: recovered k=$NEWK epoch=$NEWEPOCH, want k=5 epoch=$EPOCH" >&2; exit 1; }
$CTL labels > "$BINDIR/recovered.txt"
diff -q "$BINDIR/precrash.txt" "$BINDIR/recovered.txt" >/dev/null || {
  echo "FAIL: recovered lookups differ from the pre-crash answers" >&2
  diff "$BINDIR/precrash.txt" "$BINDIR/recovered.txt" | head >&2
  exit 1
}
echo "   every lookup equals its pre-crash answer"

echo "== post-recovery: sequences reset, feed still converges"
# The new incarnation starts its feed over: a consumer from seq 0 sees
# the fresh baseline (or a 410 "reset"/"compacted" it recovers from).
churn 3 23
sleep 1
$CTL feed-labels > "$BINDIR/feed2.txt"
$CTL labels > "$BINDIR/lookup2.txt"
diff -q "$BINDIR/feed2.txt" "$BINDIR/lookup2.txt" >/dev/null \
  || { echo "FAIL: post-recovery feed differs from lookup truth" >&2; exit 1; }
echo "   feed == lookup on the recovered incarnation"

echo "== SIGTERM: drain, checkpoint and exit 0 within 5 s"
stop_daemon "$PID"
PID=""

echo "PASS: change feed + relabel recovery smoke"

#!/usr/bin/env bash
# profile_serve.sh — where a leader's and a follower's CPU goes under a
# write flood (make profile-serve).
#
# Boots a durable leader with serve-write's flags (-synthetic 50000 -k 32
# -seed 7 -fsync always -checkpoint-every 1024) and a follower tailing it,
# both with -pprof-addr, then floods the leader with serve-write's batch
# shape (20 "+ u v" lines, scripts/flood) from nproc connections for
# DURATION seconds. Over the middle DURATION-4 seconds it takes a CPU
# profile and an allocation profile of each process and reads each
# process's CPU time from /proc/<pid>/stat and its applied-batch count from
# /v1/stats. It prints, per process, batches/s, CPU µs per batch, the top 15
# functions by CPU, the module's top 15 by cumulative CPU (a function with
# everything it calls) and the top 10 by allocated bytes. Everything it writes
# goes under out/profile-serve/ (report.txt holds the printed report). It
# is a measuring tool, not a gate.
#
# Usage: scripts/profile_serve.sh [duration-seconds] [base-port]
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

DURATION="${1:-14}"
PORT="${2:-18611}"
[ "$DURATION" -ge 6 ] || { echo "duration must be at least 6 s" >&2; exit 2; }
WINDOW=$((DURATION - 4))
OUT=out/profile-serve
mkdir -p "$OUT"
rm -rf "$OUT/leader-data" "$OUT/follower-data"
LADDR=127.0.0.1:$PORT
FADDR=127.0.0.1:$((PORT + 1))
LPPROF=127.0.0.1:$((PORT + 2))
FPPROF=127.0.0.1:$((PORT + 3))
LPID=""
FPID=""
cleanup() {
  [ -n "$FPID" ] && { stop_daemon "$FPID" || true; }
  [ -n "$LPID" ] && { stop_daemon "$LPID" || true; }
  rm -rf "$OUT/leader-data" "$OUT/follower-data"
}
trap cleanup EXIT

echo "== build spinnerd and the flood client"
go build -o "$OUT/spinnerd" ./cmd/spinnerd
go build -o "$OUT/flood" ./scripts/flood

wait_healthy() { # wait_healthy <addr>
  for _ in $(seq 1 600); do
    if curl -fsS "http://$1/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "spinnerd at $1 never became healthy" >&2
  return 1
}

# cpu_ticks <pid> — user plus system CPU time of the process, in clock ticks.
cpu_ticks() { awk '{print $14 + $15}' "/proc/$1/stat"; }
applied() { curl -fsS "http://$1/v1/stats" | jq .applied; }

echo "== boot a leader and a follower (serve-write's flags)"
"$OUT/spinnerd" -addr "$LADDR" -k 32 -seed 7 -synthetic 50000 -data-dir "$OUT/leader-data" \
  -fsync always -checkpoint-every 1024 -pprof-addr "$LPPROF" >"$OUT/leader.log" 2>&1 &
LPID=$!
wait_healthy "$LADDR"
"$OUT/spinnerd" -addr "$FADDR" -k 32 -seed 7 -follow "$LADDR" -data-dir "$OUT/follower-data" \
  -pprof-addr "$FPPROF" >"$OUT/follower.log" 2>&1 &
FPID=$!
wait_healthy "$FADDR"

CONNS=$(nproc)
echo "== flood from $CONNS connections for $DURATION s; profile the middle $WINDOW s"
"$OUT/flood" -addr "$LADDR" -conns "$CONNS" -seconds "$DURATION" >"$OUT/flood.txt" &
FLOOD=$!
sleep 2
declare -A T0 A0 T1 A1
GRABS=()
for p in leader follower; do
  if [ $p = leader ]; then pid=$LPID addr=$LADDR pp=$LPPROF; else pid=$FPID addr=$FADDR pp=$FPPROF; fi
  T0[$p]=$(cpu_ticks "$pid")
  A0[$p]=$(applied "$addr")
  curl -fsS -o "$OUT/$p.cpu.pb.gz" "http://$pp/debug/pprof/profile?seconds=$WINDOW" &
  GRABS+=($!)
  curl -fsS -o "$OUT/$p.allocs.pb.gz" "http://$pp/debug/pprof/allocs?seconds=$WINDOW" &
  GRABS+=($!)
done
START=$(date +%s.%N)
wait "${GRABS[@]}"
for p in leader follower; do
  if [ $p = leader ]; then pid=$LPID addr=$LADDR; else pid=$FPID addr=$FADDR; fi
  T1[$p]=$(cpu_ticks "$pid")
  A1[$p]=$(applied "$addr")
done
END=$(date +%s.%N)
wait "$FLOOD"
TCK=$(getconf CLK_TCK)

{
  echo "# profile-serve: nproc=$CONNS duration=${DURATION}s window=${WINDOW}s flood: $(cat "$OUT/flood.txt")"
  for p in leader follower; do
    awk -v p=$p -v t0="${T0[$p]}" -v t1="${T1[$p]}" -v a0="${A0[$p]}" -v a1="${A1[$p]}" \
      -v s="$START" -v e="$END" -v tck="$TCK" 'BEGIN {
        b = a1 - a0; secs = e - s; cpu = (t1 - t0) / tck
        printf "## %s: %d batches in %.1f s = %.0f batches/s, %.1f s CPU = %.0f µs CPU per batch\n",
          p, b, secs, b / secs, cpu, cpu * 1e6 / (b ? b : 1) }'
    echo "### $p: top 15 by CPU"
    go tool pprof -top -nodecount 15 "$OUT/$p.cpu.pb.gz" 2>/dev/null
    echo "### $p: top 15 of the module's functions by cumulative CPU"
    go tool pprof -top -cum -show '^repro/' -nodecount 15 "$OUT/$p.cpu.pb.gz" 2>/dev/null
    echo "### $p: top 10 by allocated bytes"
    go tool pprof -sample_index=alloc_space -top -nodecount 10 "$OUT/$p.allocs.pb.gz" 2>/dev/null
  done
} | tee "$OUT/report.txt"

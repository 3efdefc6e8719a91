#!/usr/bin/env bash
# against.sh — before/after pairs of the repository's one benchmark
# (BENCHMARK.json): the working tree against a commit, and a ledger of
# what the pairs said.
#
#   scripts/against.sh REF [PAIRS] [WORKLOAD...]   make against REF=… PAIRS=… WORKLOAD=…
#   scripts/against.sh -summarize RUNS             print the table of a run file
#
# REF is checked out as a detached git worktree under out/, removed on
# every exit path. A pair runs `go -C <tree>/benchmark run . -workload W
# -seed S` for REF and the same for the working tree, on every workload
# (default: the four of BENCHMARK.json); PAIRS (default 6) pairs alternate
# which side runs first, REF in the first pair. SEED (default 7) picks the
# inputs. Every run's
# result line is kept in out/against/<time>.jsonl, after a first line that
# records the host: nproc, GOMAXPROCS, the Go version and both commits.
#
# The table gives, per workload and end-to-end metric, both medians, the
# relative change, wins/N — the pairs in which the working tree did
# better, in the direction BENCHMARK.json gives — and each side's relative
# IQR (interquartile range ÷ median); a `failed` row gives each side's
# share of failed operations and a `correct` row how many runs passed
# their checks. One JSON line per workload, every per-pair value in it,
# is appended to docs/bench-ledger.jsonl. The script gives no verdict
# beyond the driver's own `correct` and `failed`.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/against.sh REF [PAIRS] [WORKLOAD...] | -summarize RUNS" >&2
  exit 2
}

# summarize <runs> <table|ledger>
summarize() {
  jq -r -s --slurpfile bench BENCHMARK.json --arg mode "$2" -f scripts/against.jq "$1"
}

# table <runs> — the host line, then one aligned row per TSV row.
table() {
  jq -r 'select(.host) | .host | "# host: nproc=\(.nproc) GOMAXPROCS=\(.gomaxprocs) go=\(.go) parent=\(.parent) child=\(.child) seed=\(.seed)"' "$1"
  summarize "$1" table | awk -F'\t' '
    BEGIN { printf "%-18s %-11s %12s %12s %8s %6s %9s %9s\n", "workload", "metric", "parent", "child", "change", "wins", "riqr-par", "riqr-chi" }
    function num(x) { return x == "-" ? sprintf("%12s", "-") : sprintf("%12.6g", x) }
    function pct(x, w) { return x == "-" ? sprintf("%" w "s", "-") : sprintf("%+" (w - 1) ".1f%%", 100 * x) }
    function rel(x) { return x == "-" ? sprintf("%9s", "-") : sprintf("%8.1f%%", 100 * x) }
    function share(x) { return x == "-" ? sprintf("%12s", "-") : sprintf("%11.2f%%", 100 * x) }
    $2 == "failed" { printf "%-18s %-11s %s %s\n", $1, $2, share($3), share($4); next }
    $2 == "correct" { printf "%-18s %-11s %12s %12s %8s %6s\n", $1, $2, $3, $4, "", $6; next }
    { printf "%-18s %-11s %s %s %s %6s %s %s\n", $1, $2, num($3), num($4), pct($5, 8), $6, rel($7), rel($8) }'
}

if [ "${1:-}" = "-summarize" ]; then
  [ $# -eq 2 ] || usage
  table "$2"
  exit 0
fi
[ $# -ge 1 ] || usage
REF=$1
PAIRS=${2:-6}
shift $(($# >= 2 ? 2 : 1))
WORKLOADS=("$@")
[ ${#WORKLOADS[@]} -gt 0 ] || mapfile -t WORKLOADS < <(jq -r '.workloads[].name' BENCHMARK.json)
SEED=${SEED:-7}

PARENT=$(git rev-parse --short "$REF^{commit}")
CHILD=$(git rev-parse --short HEAD)
# The ledger is left out: this script appends to it, so its own append
# would mark the next run's child dirty.
git diff --quiet HEAD -- . ':(exclude)docs/bench-ledger.jsonl' || CHILD="$CHILD+dirty"
mkdir -p out/against
TREE=out/against-tree-$$
RUNS=out/against/$(date -u +%Y%m%dT%H%M%SZ).jsonl
LOG=${RUNS%.jsonl}.log
cleanup() {
  git worktree remove --force "$TREE" 2>/dev/null || rm -rf "$TREE"
  git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --detach "$TREE" "$PARENT" >/dev/null 2>&1

jq -nc --arg parent "$PARENT" --arg child "$CHILD" --arg go "$(go env GOVERSION)" \
  --argjson nproc "$(nproc)" --argjson gomaxprocs "${GOMAXPROCS:-$(nproc)}" \
  --argjson seed "$SEED" --arg date "$(date -u +%Y-%m-%d)" \
  '{host: {nproc: $nproc, gomaxprocs: $gomaxprocs, go: $go, parent: $parent, child: $child, seed: $seed, date: $date}}' >"$RUNS"

# run <tree> <side> <pair> <workload> — one benchmark run, its result line
# tagged and appended to the run file.
run() {
  local out line
  out=$(go -C "$1/benchmark" run . -workload "$4" -seed "$SEED" 2>>"$LOG") || true
  line=$(printf '%s\n' "$out" | tail -1)
  case "$line" in
    '{'*) ;;
    *) echo "against: $2 $4 pair $3 printed no result line (see $LOG)" >&2; exit 1 ;;
  esac
  printf '%s\n' "$line" | jq -c --arg side "$2" --arg w "$4" --argjson pair "$3" \
    '{side: $side, workload: $w, pair: $pair} + .' >>"$RUNS"
}

for pair in $(seq 1 "$PAIRS"); do
  for w in "${WORKLOADS[@]}"; do
    echo "against: pair $pair/$PAIRS $w" >&2
    if [ $((pair % 2)) -eq 1 ]; then
      run "$TREE" parent "$pair" "$w"
      run . child "$pair" "$w"
    else
      run . child "$pair" "$w"
      run "$TREE" parent "$pair" "$w"
    fi
  done
done

table "$RUNS"
summarize "$RUNS" ledger >>docs/bench-ledger.jsonl
echo "against: runs in $RUNS, ledger lines appended to docs/bench-ledger.jsonl" >&2

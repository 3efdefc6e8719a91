#!/usr/bin/env bash
# coverage_map.sh — which functions does the system run, and who runs them?
#
# Runs four sources of traffic with coverage instrumentation
# (GOFLAGS='-cover -coverpkg=repro/...'), each with its own GOCOVERDIR
# under out/cov/:
#
#   bench     the four benchmark workloads, 3 s of measuring each
#   drills    the five scripts/*_smoke.sh drills
#   examples  make examples-smoke
#   unit      go test -coverpkg=repro/... ./...
#
# and joins them into out/coverage-map.txt: one row per function with the
# share of its statements each source reached and a class (benchmark,
# drills, examples-only, unit-only or nothing, first match wins), then a
# per-package count of functions in each class. A unit-only or nothing row
# carries the decision that scripts/coverage_decisions.txt records for it,
# or UNDECIDED; the script fails, after writing the map and listing them,
# when any row is undecided.
#
# Usage: scripts/coverage_map.sh    (make coverage-map)
set -euo pipefail
cd "$(dirname "$0")/.."

COV=$PWD/out/cov
MAP=out/coverage-map.txt
rm -rf "$COV"
mkdir -p "$COV/bench" "$COV/drills" "$COV/examples"

instrumented() { # instrumented <source> <command...>
  local src=$1
  shift
  GOFLAGS='-cover -coverpkg=repro/...' GOCOVERDIR="$COV/$src" "$@"
}

echo "== bench: four workloads"
for w in partition-scratch adapt-elastic serve-read serve-write; do
  instrumented bench go -C benchmark run . -workload "$w" -seconds 3 > "$COV/bench-$w.log" 2>&1 \
    || { echo "FAIL: workload $w (log: $COV/bench-$w.log)" >&2; exit 1; }
done

echo "== drills"
for d in scripts/*_smoke.sh; do
  instrumented drills "$d" > "$COV/drill-$(basename "$d" .sh).log" 2>&1 \
    || { echo "FAIL: $d (log: $COV/drill-$(basename "$d" .sh).log)" >&2; exit 1; }
done

echo "== examples"
instrumented examples make examples-smoke > "$COV/examples.log" 2>&1 \
  || { echo "FAIL: make examples-smoke (log: $COV/examples.log)" >&2; exit 1; }

echo "== unit tests"
go test -coverpkg=repro/... -coverprofile="$COV/unit.prof" ./... > "$COV/unit.log" 2>&1 \
  || { echo "FAIL: go test (log: $COV/unit.log)" >&2; exit 1; }

# go tool cover resolves every block's package from the root module, which
# does not contain the benchmark driver (module repro/benchmark).
for src in bench drills examples; do
  go tool covdata textfmt -i="$COV/$src" -o "$COV/$src.raw"
  grep -v '^repro/benchmark/' "$COV/$src.raw" > "$COV/$src.prof"
done
for src in bench drills examples unit; do
  go tool cover -func="$COV/$src.prof" | grep -v '^total:' > "$COV/$src.func"
done

# Join the four tables on "file:line function" into one row per function.
awk -v decisions=scripts/coverage_decisions.txt '
  BEGIN {
    ns = split("bench drills examples unit", src, " ")
    while ((getline line < decisions) > 0) {
      if (line ~ /^#/ || line ~ /^[ \t]*$/) continue
      split(line, f, " ")
      nd++; dprefix[nd] = f[1]; dfunc[nd] = f[2]
      d = line; sub(/^[^ ]+ +[^ ]+ +/, "", d); dtext[nd] = d
    }
  }
  FNR == 1 { s = FILENAME; sub(/.*\//, "", s); sub(/\.func$/, "", s) }
  {
    file = $1; sub(/:$/, "", file); sub(/^repro\//, "", file)
    key = file " " $2
    if (!(key in seen)) { seen[key] = 1; keys[++nk] = key }
    pct[key, s] = $NF
  }
  END {
    for (i = 1; i <= nk; i++) {
      key = keys[i]; split(key, kf, " ")
      file = kf[1]; sub(/:[0-9]+$/, "", file)
      class = "nothing"
      if (reached(key, "unit")) class = "unit-only"
      if (reached(key, "examples")) class = "examples-only"
      if (reached(key, "drills")) class = "drills"
      if (reached(key, "bench")) class = "benchmark"
      decision = ""
      if (class == "unit-only" || class == "nothing") {
        decision = "UNDECIDED"
        for (j = 1; j <= nd; j++)
          if (index(file, dprefix[j]) == 1 && (dfunc[j] == "*" || dfunc[j] == kf[2])) { decision = dtext[j]; break }
      }
      row = sprintf("%-48s %-28s", kf[1], kf[2])
      for (j = 1; j <= ns; j++) row = row sprintf(" %6s", ((key, src[j]) in pct) ? pct[key, src[j]] : "-")
      printf "%s  %-13s %s\n", row, class, decision
    }
  }
  function reached(k, s) { return ((k, s) in pct) && pct[k, s] != "0.0%" }
' "$COV/bench.func" "$COV/drills.func" "$COV/examples.func" "$COV/unit.func" | sort -t: -k1,1 -k2,2n > "$COV/rows"
# The same rows keyed by package, for the per-package counts.
awk '{ p = $1; if (!sub(/\/[^\/]*$/, "", p)) p = "."; $1 = p; print }' "$COV/rows" > "$COV/rows.pkg"

{
  echo "# Coverage map at $(git rev-parse --short HEAD)$(git diff --quiet HEAD -- '*.go' || echo ' (with uncommitted changes)'), made by scripts/coverage_map.sh."
  echo "#"
  echo "# Columns: function, then the share of its statements reached by the"
  echo "# benchmark's four workloads (3 s each), the five drills, make"
  echo "# examples-smoke and go test ./... ('-' = not linked into that source),"
  echo "# then the class and, for unit-only and nothing rows, the decision from"
  echo "# scripts/coverage_decisions.txt."
  echo "#"
  echo "# Blind spot: a process killed with SIGKILL writes no coverage counters."
  echo "# The drills end their daemons with SIGTERM, except for the crashes they"
  echo "# stage. The benchmark SIGKILLs every daemon it starts, so its column"
  echo "# covers only its in-process driver (core, pregel, graph, the client)."
  echo "#"
  cat "$COV/rows"
  echo
  echo "# Functions per package and class: benchmark drills examples-only unit-only nothing"
  awk '{ c[$1 " " $7]++; p[$1] = 1 }
    END { for (k in p) printf "# %-32s %5d %5d %5d %5d %5d\n", k, c[k " benchmark"], c[k " drills"], c[k " examples-only"], c[k " unit-only"], c[k " nothing"] }
  ' "$COV/rows.pkg" | sort
  awk '$7 == "unit-only" || $7 == "nothing" { t[$7]++; if ($8 == "UNDECIDED") u++ }
    END { printf "# Totals: %d functions, %d unit-only, %d nothing, %d of those undecided\n", NR, t["unit-only"], t["nothing"], u }
  ' "$COV/rows.pkg"
} > "$MAP"
tail -n 1 "$MAP"
echo "wrote $MAP"
if grep -q ' UNDECIDED$' "$COV/rows"; then
  echo "FAIL: functions with no decision in scripts/coverage_decisions.txt:" >&2
  grep ' UNDECIDED$' "$COV/rows" >&2
  exit 1
fi

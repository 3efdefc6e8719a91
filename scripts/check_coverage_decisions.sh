#!/usr/bin/env bash
# check_coverage_decisions.sh — fails on a stale line of the coverage
# decisions file (default scripts/coverage_decisions.txt): one whose path
# no longer exists, or whose function (when not *) has no func
# declaration in the non-test Go files under that path. make lint runs it
# from the repository root, so a change that deletes or moves a function
# cannot leave its decision behind.
set -euo pipefail
decisions=${1:-scripts/coverage_decisions.txt}
stale=0
while read -r path fn _; do
  case "$path" in '' | '#'*) continue ;; esac
  if [ ! -e "$path" ]; then
    echo "$decisions: $path: no such file or directory" >&2
    stale=1
    continue
  fi
  [ "$fn" = '*' ] && continue
  if ! grep -rqE --include='*.go' --exclude='*_test.go' "^func (\([^)]*\) )?$fn[[(]" "$path"; then
    echo "$decisions: $path: no func $fn" >&2
    stale=1
  fi
done <"$decisions"
exit "$stale"

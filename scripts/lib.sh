# lib.sh — shared by the scripts/*_smoke.sh drills, which source it.

# stop_daemon <pid> — end a daemon the way an operator does: SIGTERM, then
# wait up to 5 s while it drains its listener, writes its final checkpoint
# and exits. Fails if the daemon exits non-zero or is still running after
# 5 s (it is then killed with SIGKILL). A daemon that exits this way also
# writes its coverage counters (scripts/coverage_map.sh); a SIGKILLed one
# writes none.
stop_daemon() {
  local pid=$1 status=0
  kill -TERM "$pid" 2>/dev/null || true
  for _ in $(seq 1 50); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$pid" 2>/dev/null; then
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    echo "FAIL: pid $pid still running 5 s after SIGTERM" >&2
    return 1
  fi
  wait "$pid" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "FAIL: pid $pid exited with status $status after SIGTERM" >&2
    return 1
  fi
}

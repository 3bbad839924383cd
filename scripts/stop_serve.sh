#!/usr/bin/env bash
# Stop a background `repro-ftes serve` and check that it stopped cleanly.
#
#   bash scripts/stop_serve.sh PID_FILE STATUS_FILE
#
# PID_FILE holds the server's pid.  STATUS_FILE receives the server's exit
# status from the subshell that started it, e.g.
#
#   ( repro-ftes serve ... & echo $! > serve.pid
#     status=0; wait $! || status=$?; echo "$status" > serve.status ) &
#
# SIGTERM takes the Ctrl-C path: the server seals running jobs as cancelled,
# releases its pool workers and exits 0.  This script exits 1 if the server
# is still up 30 s after SIGTERM, exits non-zero, or leaves any of its pool
# workers running; survivors are killed.  A missing PID_FILE means no server
# was started, which is not an error here.
set -u
pid_file="$1"
status_file="$2"
if [ ! -s "$pid_file" ]; then
  echo "no server recorded in $pid_file"
  exit 0
fi
pid="$(cat "$pid_file")"
workers="$(pgrep -P "$pid" || true)"
echo "server $pid, pool workers:" $workers
kill -TERM "$pid" || true
deadline=$((SECONDS + 30))
while :; do
  alive=""
  for worker in $workers; do
    if kill -0 "$worker" 2>/dev/null; then alive="$alive $worker"; fi
  done
  if [ -s "$status_file" ] && [ -z "$alive" ]; then break; fi
  if [ "$SECONDS" -ge "$deadline" ]; then break; fi
  sleep 0.2
done
failed=0
if [ ! -s "$status_file" ]; then
  echo "::error::the server is still running 30 s after SIGTERM"
  kill -KILL "$pid" 2>/dev/null || true
  failed=1
elif [ "$(cat "$status_file")" != 0 ]; then
  echo "::error::the server exited with status $(cat "$status_file")"
  failed=1
fi
if [ -n "$alive" ]; then
  echo "::error::pool workers outlived the server:$alive"
  kill -KILL $alive 2>/dev/null || true
  failed=1
fi
exit "$failed"

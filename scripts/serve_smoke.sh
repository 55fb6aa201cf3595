#!/usr/bin/env bash
# serve_smoke.sh — boot the real `tomo serve` daemon, drive its HTTP and
# job-API surface with curl, and shut it down gracefully via SIGTERM.
#
# The EXIT/INT/TERM trap guarantees the daemon PID dies on every exit
# path — success, assertion failure, or a signal from the CI runner — so
# a wedged smoke test can never leave an orphaned daemon holding the job
# open. This is the transcript README.md's "Service API" section shows.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
BIN="$WORK/tomo"
LOG="$WORK/serve.log"
PID=""

cleanup() {
  status=$?
  if [[ -n "$PID" ]] && kill -0 "$PID" 2>/dev/null; then
    kill "$PID" 2>/dev/null || true
    # Escalate if the graceful path wedges: CI must never hang here.
    for _ in $(seq 1 50); do
      kill -0 "$PID" 2>/dev/null || break
      sleep 0.1
    done
    kill -9 "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
  fi
  if [[ $status -ne 0 && -f "$LOG" ]]; then
    echo "--- daemon log ---"
    cat "$LOG"
  fi
  rm -rf "$WORK"
  exit "$status"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$BIN" ./cmd/tomo

echo "== boot daemon (random port)"
"$BIN" serve -addr 127.0.0.1:0 -interval 50ms -workers 2 -queue-depth 8 >"$LOG" 2>&1 &
PID=$!

ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's#^tomo serve listening on http://\([^ ]*\).*#\1#p' "$LOG" | head -1)
  [[ -n "$ADDR" ]] && break
  kill -0 "$PID" 2>/dev/null || { echo "daemon exited before binding"; exit 1; }
  sleep 0.1
done
[[ -n "$ADDR" ]] || { echo "no listen banner in daemon output"; exit 1; }
BASE="http://$ADDR"
echo "daemon pid $PID at $BASE"

echo "== readiness"
for _ in $(seq 1 100); do
  curl -fsS "$BASE/readyz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -fsS "$BASE/readyz"

echo "== health and metrics"
curl -fsS "$BASE/healthz"
# Read the whole body before matching: grep -q exits at the first match,
# and under pipefail a curl still writing into the closed pipe fails the
# check.
METRICS=$(curl -fsS "$BASE/metrics")
grep -q '^tomo_service_queue_depth' <<<"$METRICS" \
  || { echo "metrics missing service families"; exit 1; }

echo "== submit a selection job"
SUBMIT=$(curl -fsS -X POST "$BASE/api/v1/jobs" \
  -H 'Content-Type: application/json' \
  -d '{
        "links": 6,
        "paths": [[0,1],[1,2],[2,3],[3,4],[4,5],[0,5],[0,1,2],[3,4,5]],
        "probs": [0.1,0.05,0.2,0.1,0.15,0.08],
        "budget": 4,
        "algorithm": "probrome"
      }')
echo "$SUBMIT"
ID=$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p')
[[ -n "$ID" ]] || { echo "submission returned no job id"; exit 1; }

echo "== poll status until done"
STATE=""
for _ in $(seq 1 100); do
  STATE=$(curl -fsS "$BASE/api/v1/jobs/$ID" | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
  [[ "$STATE" == "done" ]] && break
  sleep 0.1
done
[[ "$STATE" == "done" ]] || { echo "job stuck in state '$STATE'"; exit 1; }

echo "== fetch result"
curl -fsS "$BASE/api/v1/jobs/$ID/result" | grep -q '"Selected"' \
  || { echo "result payload missing selection"; exit 1; }

echo "== resubmission is a cache hit"
curl -fsS -X POST "$BASE/api/v1/jobs" -H 'Content-Type: application/json' \
  -d '{
        "links": 6,
        "paths": [[0,1],[1,2],[2,3],[3,4],[4,5],[0,5],[0,1,2],[3,4,5]],
        "probs": [0.1,0.05,0.2,0.1,0.15,0.08],
        "budget": 4,
        "algorithm": "probrome"
      }' | grep -q '"cached": true' \
  || { echo "resubmission was not served from cache"; exit 1; }

echo "== service stats"
curl -fsS "$BASE/api/v1/stats" | grep -q '"executed": 1' \
  || { echo "stats do not show exactly one execution"; exit 1; }

echo "== graceful shutdown via SIGTERM"
kill -TERM "$PID"
for _ in $(seq 1 100); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$PID" 2>/dev/null; then
  echo "daemon ignored SIGTERM"
  exit 1
fi
wait "$PID" 2>/dev/null || true
PID=""
grep -q "tomo serve: shut down" "$LOG" || { echo "no shutdown banner"; exit 1; }

echo "serve smoke: OK"

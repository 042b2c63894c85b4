#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the campaign service binary.
#
# Boots `cmd/serve` on a local fleet, drives one tiny campaign over the
# HTTP API (create, SSE event stream, frontier, /metrics), SIGTERMs the
# process and requires a clean drain and a checkpoint with a header first
# and a state line last, then restarts it on the same
# checkpoint directory and requires the campaign — frontier included —
# to have survived the bounce byte-for-byte.
#
# Usage:
#   scripts/serve_smoke.sh          # CI entry point
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18931
BASE="http://$ADDR"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "serve_smoke: $1" >&2
    shift
    for f in "$@"; do
        echo "--- $f ---" >&2
        cat "$f" >&2 || true
    done
    exit 1
}

# wait_line FILE PATTERN — readiness handshake on the serve log.
wait_line() {
    for _ in $(seq 1 100); do
        grep -q "$2" "$1" && return 0
        if [[ -n "$SERVE_PID" ]] && ! kill -0 "$SERVE_PID" 2>/dev/null; then
            fail "serve exited while waiting for \"$2\"" "$1"
        fi
        sleep 0.1
    done
    fail "timed out waiting for \"$2\"" "$1"
}

go build -o "$WORK/serve" ./cmd/serve

"$WORK/serve" -addr "$ADDR" -workers 2 -checkpoint-dir "$WORK/ckpt" >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
wait_line "$WORK/serve.log" "serve listening on"

create="$(curl -sSf -X POST "$BASE/v1/campaigns" \
    -H 'Content-Type: application/json' \
    -d '{"tenant":"smoke","name":"tiny","runs":1,"pop_size":5,"generations":2,"base_seed":7}')"
id="$(printf '%s' "$create" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[[ -n "$id" ]] || fail "create returned no campaign id: $create"

# The SSE stream replays the full event backlog and closes itself once
# the campaign is terminal, so this curl doubles as the run-to-done wait.
curl -sSf -N -m 60 -H 'Accept: text/event-stream' \
    "$BASE/v1/campaigns/$id/events" >"$WORK/events.sse"
grep -q 'event: generation' "$WORK/events.sse" || fail "SSE stream has no generation events" "$WORK/events.sse"
grep -q 'event: done' "$WORK/events.sse" || fail "SSE stream never reached done" "$WORK/events.sse"

status="$(curl -sSf "$BASE/v1/campaigns/$id")"
case "$status" in
*'"state":"done"'*) ;;
*) fail "campaign not done after SSE close: $status" ;;
esac

curl -sSf "$BASE/v1/campaigns/$id/frontier" >"$WORK/frontier.json"
grep -q '"points"' "$WORK/frontier.json" || fail "frontier has no points" "$WORK/frontier.json"
curl -sSf "$BASE/metrics" | grep -q 'repro_service_campaigns{state="done"} 1' \
    || fail "metrics missing done-campaign gauge"
curl -sSf "$BASE/healthz" >/dev/null

# Graceful drain: on SIGTERM the process must checkpoint and exit 0.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "serve exited non-zero on SIGTERM" "$WORK/serve.log"
SERVE_PID=""
grep -q 'shutdown_done' "$WORK/serve.log" || fail "no shutdown_done in log" "$WORK/serve.log"
ckpt="$WORK/ckpt/$id.json"
[[ -f "$ckpt" ]] || fail "no checkpoint written for $id" "$WORK/serve.log"
# The checkpoint is append-only: line 1 is the header, the last line is
# the state the drain (or the finished campaign) left it in.
head -n 1 "$ckpt" | grep -q '"format":"repro-service-campaign"' \
    || fail "line 1 of the checkpoint is not a service-checkpoint header" "$ckpt"
tail -n 1 "$ckpt" | grep -Eq '^\{"state":"(suspended|done)"' \
    || fail "last line of the checkpoint is not a suspended/done state line" "$ckpt"

# Bounce: a restarted serve restores the campaign from its checkpoint
# and serves the identical frontier document.
"$WORK/serve" -addr "$ADDR" -workers 2 -checkpoint-dir "$WORK/ckpt" >"$WORK/serve2.log" 2>&1 &
SERVE_PID=$!
wait_line "$WORK/serve2.log" "serve listening on"
status2="$(curl -sSf "$BASE/v1/campaigns/$id")"
case "$status2" in
*'"state":"done"'*) ;;
*) fail "campaign lost across bounce: $status2" "$WORK/serve2.log" ;;
esac
curl -sSf "$BASE/v1/campaigns/$id/frontier" >"$WORK/frontier2.json"
cmp -s "$WORK/frontier.json" "$WORK/frontier2.json" \
    || fail "frontier changed across bounce" "$WORK/frontier.json" "$WORK/frontier2.json"

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "restarted serve exited non-zero on SIGTERM" "$WORK/serve2.log"
SERVE_PID=""

echo "serve smoke OK (campaign $id survived the bounce)"

#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the campaign service binary.
#
# Boots `cmd/serve` on a local fleet, drives one tiny campaign over the
# HTTP API (create, SSE event stream, frontier, /metrics), SIGTERMs the
# process and requires a clean drain and a checkpoint with a header first
# and a state line last, then restarts it on the same
# checkpoint directory and requires the campaign — frontier included —
# to have survived the bounce byte-for-byte.  A second leg starts serve
# with no in-process workers and one `cluster` worker process dialing
# its -workers-listen address, and requires that worker to run the whole
# tiny campaign.
#
# Usage:
#   scripts/serve_smoke.sh          # CI entry point
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18931
WORKERS_ADDR=127.0.0.1:18932
BASE="http://$ADDR"
WORK="$(mktemp -d)"
SERVE_PID=""
WORKER_PID=""
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
    [[ -n "$WORKER_PID" ]] && kill "$WORKER_PID" 2>/dev/null || true
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
go build -o "$WORK/cluster" ./cmd/cluster

# create_and_wait TAG — creates the tiny campaign and prints its id once
# the SSE stream (saved to $WORK/events-TAG.sse) reports it done.
create_and_wait() {
    local create id
    create="$(curl -sSf -X POST "$BASE/v1/campaigns" \
        -H 'Content-Type: application/json' \
        -d '{"tenant":"smoke","name":"tiny","runs":1,"pop_size":5,"generations":2,"base_seed":7}')"
    id="$(printf '%s' "$create" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
    [[ -n "$id" ]] || fail "create returned no campaign id: $create"
    # The SSE stream replays the full event backlog and closes itself once
    # the campaign is terminal, so this curl doubles as the run-to-done wait.
    curl -sSf -N -m 60 -H 'Accept: text/event-stream' \
        "$BASE/v1/campaigns/$id/events" >"$WORK/events-$1.sse"
    grep -q 'event: generation' "$WORK/events-$1.sse" || fail "SSE stream has no generation events" "$WORK/events-$1.sse"
    grep -q 'event: done' "$WORK/events-$1.sse" || fail "SSE stream never reached done" "$WORK/events-$1.sse"
    printf '%s' "$id"
}

"$WORK/serve" -addr "$ADDR" -workers 2 -checkpoint-dir "$WORK/ckpt" >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
wait_line "$WORK/serve.log" "serve listening on"

id="$(create_and_wait local)"

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

# Remote-worker leg: serve hosts the scheduler with no worker of its own;
# a `cluster` worker process dials -workers-listen and runs the campaign.
"$WORK/serve" -addr "$ADDR" -workers 0 -workers-listen "$WORKERS_ADDR" >"$WORK/serve3.log" 2>&1 &
SERVE_PID=$!
wait_line "$WORK/serve3.log" "serve listening on .* (workers on $WORKERS_ADDR)"
"$WORK/cluster" -addr "$WORKERS_ADDR" -name remote-0 >"$WORK/worker.log" 2>&1 &
WORKER_PID=$!
id3="$(create_and_wait remote)"
curl -sSf "$BASE/v1/campaigns/$id3/frontier" | grep -q '"points"' \
    || fail "remote-worker campaign has no frontier" "$WORK/serve3.log" "$WORK/worker.log"
curl -sSf "$BASE/metrics" | grep -Eq '^repro_cluster_worker_completed_total\{worker="remote-0"\} [1-9]' \
    || fail "the remote worker completed no task" "$WORK/serve3.log" "$WORK/worker.log"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || fail "serve exited non-zero on SIGTERM" "$WORK/serve3.log"
SERVE_PID=""
kill "$WORKER_PID"
wait "$WORKER_PID" 2>/dev/null || true
WORKER_PID=""

echo "serve smoke OK (campaign $id survived the bounce; campaign $id3 ran on a remote worker)"

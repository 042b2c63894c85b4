#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the campaign service binary.
#
# Boots `cmd/serve` on a local fleet, drives one tiny campaign over the
# HTTP API (create, long-polled event feed, frontier, /metrics), SIGTERMs the
# process and requires a clean drain and a checkpoint with a header first
# and a state line last, then restarts it on the same
# checkpoint directory and requires the campaign — frontier and /result
# campaign log included — to have survived the bounce byte-for-byte.  A second leg starts serve
# with no in-process workers and one `cluster` worker process dialing
# its -workers-listen address, and requires that worker to run the whole
# tiny campaign.  Also requires `serve -lease` and `cluster -task-timeout`
# and `-heartbeat` to be rejected by the flag package: the fleet's time
# limits are declared once in the code, and a script that still passes
# one of those flags must fail loudly.  `serve -no-memo` is gone too: the
# shared memo cache is always on.  So is a spec's `eval_timeout_ms`: the
# worker's execution cap is the only one, and a POST carrying it gets 400.
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

# A binary that accepted one of these would start serving; `timeout`
# turns that into a failure instead of a hang.
for gone in serve:lease serve:no-memo cluster:task-timeout cluster:heartbeat; do
    bin="${gone%%:*}" flag="${gone#*:}"
    if timeout 10 "$WORK/$bin" "-$flag" 1s >"$WORK/$bin.$flag.log" 2>&1; then
        fail "$bin -$flag was accepted" "$WORK/$bin.$flag.log"
    fi
    grep -q "flag provided but not defined: -$flag" "$WORK/$bin.$flag.log" ||
        fail "$bin -$flag failed for another reason" "$WORK/$bin.$flag.log"
done

# create_and_wait TAG — creates the tiny campaign and prints its id once
# its event feed (saved to $WORK/events-TAG.json) reports it done.
create_and_wait() {
    local create id batch after=0 deadline=$((SECONDS + 60))
    create="$(curl -sSf -X POST "$BASE/v1/campaigns" \
        -H 'Content-Type: application/json' \
        -d '{"tenant":"smoke","name":"tiny","runs":1,"pop_size":5,"generations":2,"base_seed":7}')"
    id="$(printf '%s' "$create" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
    [[ -n "$id" ]] || fail "create returned no campaign id: $create"
    # Follow the feed as a client does: each poll returns the events past
    # the cursor, waiting up to 10 s for one, and its "next" is the cursor
    # of the next poll.  The first terminal event doubles as the run-to-done wait.
    : >"$WORK/events-$1.json"
    until grep -Eq '"type":"(done|failed|cancelled|suspended)"' "$WORK/events-$1.json"; do
        ((SECONDS < deadline)) || fail "campaign $id reached no terminal event in 60 s" "$WORK/events-$1.json"
        batch="$(curl -sSf -m 20 "$BASE/v1/campaigns/$id/events?after=$after&wait_ms=10000")"
        printf '%s\n' "$batch" >>"$WORK/events-$1.json"
        after="$(printf '%s' "$batch" | sed -n 's/.*"next":\([0-9]*\)}$/\1/p')"
        [[ -n "$after" ]] || fail "event poll returned no next cursor: $batch"
    done
    grep -q '"type":"generation"' "$WORK/events-$1.json" || fail "event feed has no generation events" "$WORK/events-$1.json"
    grep -q '"type":"done"' "$WORK/events-$1.json" || fail "event feed never reached done" "$WORK/events-$1.json"
    # The cursor is the end of the feed: polling from it returns nothing.
    batch="$(curl -sSf "$BASE/v1/campaigns/$id/events?after=$after&wait_ms=0")"
    [[ "$batch" == "{\"events\":[],\"next\":$after}" ]] || fail "poll past the end after $after returned $batch"
    printf '%s' "$id"
}

"$WORK/serve" -addr "$ADDR" -workers 2 -checkpoint-dir "$WORK/ckpt" >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
wait_line "$WORK/serve.log" "serve listening on"

code="$(curl -sS -o "$WORK/eval_timeout.json" -w '%{http_code}' -X POST "$BASE/v1/campaigns" \
    -H 'Content-Type: application/json' \
    -d '{"tenant":"smoke","runs":1,"pop_size":2,"generations":0,"eval_timeout_ms":1000}')"
[[ "$code" == 400 ]] && grep -q 'eval_timeout_ms' "$WORK/eval_timeout.json" ||
    fail "a spec carrying eval_timeout_ms got $code, want 400 naming the field" "$WORK/eval_timeout.json"

id="$(create_and_wait local)"

status="$(curl -sSf "$BASE/v1/campaigns/$id")"
case "$status" in
*'"state":"done"'*) ;;
*) fail "campaign not done after its done event: $status" ;;
esac

curl -sSf "$BASE/v1/campaigns/$id/frontier" >"$WORK/frontier.json"
grep -q '"points"' "$WORK/frontier.json" || fail "frontier has no points" "$WORK/frontier.json"
# /result is hpo's campaign log: a header line, then one record per
# (run, generation) — 1 run × 3 rounds here.
curl -sSf "$BASE/v1/campaigns/$id/result" >"$WORK/result.log"
head -n 1 "$WORK/result.log" | grep -qx '{"format":"repro-hpo-campaign","version":2,"runs":1}' \
    || fail "line 1 of /result is not the campaign-log header" "$WORK/result.log"
[[ "$(wc -l <"$WORK/result.log")" -eq 4 ]] || fail "/result does not hold 3 records" "$WORK/result.log"
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
curl -sSf "$BASE/v1/campaigns/$id/result" >"$WORK/result2.log"
cmp -s "$WORK/result.log" "$WORK/result2.log" \
    || fail "/result changed across bounce" "$WORK/result.log" "$WORK/result2.log"

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

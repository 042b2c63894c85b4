#!/usr/bin/env bash
# train_smoke.sh — end-to-end smoke of the training binaries.
#
# Generates a 16-frame dataset with `cmd/mdgen`, trains a tiny network
# for 5 steps with `cmd/train` on one core and on four, and requires the
# two lcurve.out files to be the same bytes (Threads defaults to
# GOMAXPROCS, so the pair covers one replica and several).  Also requires
# `train -fast` and `hpo -fast` to be rejected by the flag package: the
# flag is gone, and a script that still passes it must fail loudly.
#
# Usage:
#   scripts/train_smoke.sh          # CI entry point
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
    echo "train_smoke: $1" >&2
    shift
    for f in "$@"; do
        echo "--- $f ---" >&2
        cat "$f" >&2 || true
    done
    exit 1
}

go build -o "$WORK/bin/" ./cmd/mdgen ./cmd/train ./cmd/hpo

"$WORK/bin/mdgen" -out "$WORK/data" -frames 16 -equil 60 -every 4 -seed 3 >"$WORK/mdgen.log" 2>&1 ||
    fail "mdgen failed" "$WORK/mdgen.log"

mkdir "$WORK/run"
cat >"$WORK/run/input.json" <<'EOF'
{
  "model": {
    "type_map": ["Al", "K", "Cl"],
    "descriptor": {
      "type": "se_e2_a",
      "rcut": 5.0, "rcut_smth": 2.0,
      "neuron": [8, 16], "axis_neuron": 4,
      "activation_function": "tanh"
    },
    "fitting_net": {"neuron": [24], "activation_function": "tanh"}
  },
  "learning_rate": {"type": "exp", "start_lr": 0.002, "stop_lr": 0.0001, "scale_by_worker": "none"},
  "loss": {"start_pref_e": 0.02, "limit_pref_e": 1, "start_pref_f": 1000, "limit_pref_f": 1},
  "training": {"numb_steps": 30, "batch_size": 2, "seed": 1, "disp_freq": 1,
    "systems": ["../data/train"], "validation_data": {"systems": ["../data/val"]}}
}
EOF

for procs in 1 4; do
    GOMAXPROCS=$procs "$WORK/bin/train" -input "$WORK/run/input.json" -steps 5 -workers 6 -valframes 2 \
        >"$WORK/train$procs.log" 2>&1 || fail "train failed at GOMAXPROCS=$procs" "$WORK/train$procs.log"
    mv "$WORK/run/lcurve.out" "$WORK/lcurve$procs.out"
done
[[ "$(grep -vc '^#' "$WORK/lcurve1.out")" -eq 5 ]] ||
    fail "lcurve.out does not have one record per step" "$WORK/lcurve1.out"
cmp "$WORK/lcurve1.out" "$WORK/lcurve4.out" ||
    fail "lcurve.out differs between GOMAXPROCS=1 and GOMAXPROCS=4" "$WORK/lcurve1.out" "$WORK/lcurve4.out"

for bin in train hpo; do
    if "$WORK/bin/$bin" -fast >"$WORK/$bin.fast.log" 2>&1; then
        fail "$bin -fast was accepted" "$WORK/$bin.fast.log"
    fi
    grep -q 'flag provided but not defined: -fast' "$WORK/$bin.fast.log" ||
        fail "$bin -fast failed for another reason" "$WORK/$bin.fast.log"
done

echo "train_smoke: ok (5 steps, 6 workers; lcurve.out identical on 1 and 4 cores)"

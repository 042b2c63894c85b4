#!/usr/bin/env bash
# train_smoke.sh — end-to-end smoke of the training binaries.
#
# Generates a 16-frame dataset with `cmd/mdgen`, trains a tiny network
# for 5 steps with `cmd/train` on one core and on four, and requires the
# two lcurve.out files to be the same bytes (Threads defaults to
# GOMAXPROCS, so the pair covers one replica and several) and each log
# to carry train's lcurve summary (`5 records`) and both of its charts.
# Trains once more out-of-core (`-cache-bytes 1`: every frame the cache
# lacks is re-read from its shard) and requires the same lcurve.out bytes
# as the resident run.  Then runs one two-individual real-backend campaign through `cmd/hpo`,
# which streams the same dataset, and requires two CSV rows, at least
# one of them on the frontier (`on_frontier` is 1), and no failed
# evaluation.  Also requires `-fast`, `-data-dir` and `-prefetch` (a
# frame is a cache hit or one shard read) to be rejected by the flag
# package in both binaries, `hpo -timeout` (the evaluation cap is
# ea.PaperEvalTimeout, declared once), `hpo -no-memo` (the memo cache is
# always on) and `mdgen -val` (the split is dataset.PaperValFraction):
# those flags are gone, and a script that still passes one must fail
# loudly.  Last, `hpo -steps 0` and `train -workers 0` must exit 2
# before any work.
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
    for want in '^5 records, steps ' '^rmse_f_val over training' '^rmse_e_val over training'; do
        grep -q "$want" "$WORK/train$procs.log" ||
            fail "train at GOMAXPROCS=$procs printed no line matching '$want'" "$WORK/train$procs.log"
    done
    mv "$WORK/run/lcurve.out" "$WORK/lcurve$procs.out"
done
[[ "$(grep -vc '^#' "$WORK/lcurve1.out")" -eq 5 ]] ||
    fail "lcurve.out does not have one record per step" "$WORK/lcurve1.out"
cmp "$WORK/lcurve1.out" "$WORK/lcurve4.out" ||
    fail "lcurve.out differs between GOMAXPROCS=1 and GOMAXPROCS=4" "$WORK/lcurve1.out" "$WORK/lcurve4.out"

"$WORK/bin/train" -input "$WORK/run/input.json" -steps 5 -workers 6 -valframes 2 -cache-bytes 1 \
    >"$WORK/train_ooc.log" 2>&1 || fail "train -cache-bytes 1 failed" "$WORK/train_ooc.log"
grep -Eq '^stream: [0-9]+ hits, [0-9]+ misses, [1-9][0-9]* evictions' "$WORK/train_ooc.log" ||
    fail "train -cache-bytes 1 evicted nothing" "$WORK/train_ooc.log"
cmp "$WORK/lcurve1.out" "$WORK/run/lcurve.out" ||
    fail "lcurve.out differs between the resident and the -cache-bytes 1 run" "$WORK/lcurve1.out" "$WORK/run/lcurve.out"

"$WORK/bin/hpo" -backend real -data "$WORK/data" -runs 1 -pop 2 -gens 0 -steps 1 -workers 1 -par 2 \
    >"$WORK/hpo.csv" 2>"$WORK/hpo.log" || fail "hpo -backend real failed" "$WORK/hpo.log"
[[ "$(tail -n +2 "$WORK/hpo.csv" | grep -c .)" -eq 2 ]] ||
    fail "hpo did not print one CSV row per individual" "$WORK/hpo.csv" "$WORK/hpo.log"
[[ "$(awk -F, 'NR > 1 && $NF == 1' "$WORK/hpo.csv" | grep -c .)" -ge 1 ]] ||
    fail "hpo marked no row on_frontier" "$WORK/hpo.csv"
grep -q '^hpo: done in .*, 0 failures$' "$WORK/hpo.log" ||
    fail "hpo campaign had failed evaluations" "$WORK/hpo.log"

for gone in train:fast train:data-dir train:prefetch hpo:fast hpo:data-dir hpo:prefetch hpo:timeout hpo:no-memo mdgen:val; do
    bin="${gone%%:*}" flag="${gone#*:}"
    if "$WORK/bin/$bin" "-$flag" x >"$WORK/$bin.$flag.log" 2>&1; then
        fail "$bin -$flag was accepted" "$WORK/$bin.$flag.log"
    fi
    grep -q "flag provided but not defined: -$flag" "$WORK/$bin.$flag.log" ||
        fail "$bin -$flag failed for another reason" "$WORK/$bin.$flag.log"
done

status=0
"$WORK/bin/hpo" -backend real -data "$WORK/data" -runs 1 -pop 2 -gens 0 -steps 0 -workers 1 \
    >"$WORK/hpo_steps0.csv" 2>"$WORK/hpo_steps0.log" || status=$?
[[ $status -eq 2 ]] || fail "hpo -steps 0 exited $status, want 2" "$WORK/hpo_steps0.log"
grep -q '^hpo: -steps 0: need at least 1$' "$WORK/hpo_steps0.log" ||
    fail "hpo -steps 0 failed for another reason" "$WORK/hpo_steps0.log"
status=0
"$WORK/bin/train" -input "$WORK/run/input.json" -workers 0 >"$WORK/train_workers0.log" 2>&1 || status=$?
[[ $status -eq 2 ]] || fail "train -workers 0 exited $status, want 2" "$WORK/train_workers0.log"
grep -q '^train: -workers 0: need at least 1$' "$WORK/train_workers0.log" ||
    fail "train -workers 0 failed for another reason" "$WORK/train_workers0.log"

echo "train_smoke: ok (5 steps, 6 workers; lcurve.out identical on 1 and 4 cores and out-of-core, and charted; real hpo campaign streamed, frontier marked; invalid flag values refused)"

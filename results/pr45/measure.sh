#!/bin/bash
# Alternating live replays of traces/steady-mixed.json against several
# epolserve configurations; one cmd/loadgen build drives all of them.
#
#   BIN=dir-with-binaries RUNS=5 CONFIGS="parent-tuned q64 q24 q16" OUT=batch1 ./measure.sh
#
# BIN must hold epolserve-parent (built from the parent commit), epolserve
# (this commit) and loadgen (this commit). Run from the repository root.
set -u
BIN=${BIN:?}
OUT=${OUT:-runs}
RUNS=${RUNS:-5}
CONFIGS=${CONFIGS:-"parent-tuned q64 q24 q16"}
mkdir -p "$OUT"
export GOMAXPROCS=2
port=18810
for i in $(seq 1 "$RUNS"); do
  set -- $CONFIGS
  # rotate the order each round so no configuration always goes first
  cfgs=("$@"); n=${#cfgs[@]}; order=()
  for k in $(seq 0 $((n-1))); do order+=("${cfgs[$(( (k + i - 1) % n ))]}"); done
  for c in "${order[@]}"; do
    port=$((port+1))
    case $c in
      parent-tuned) cmd="$BIN/epolserve-parent -workers 2 -threads 1 -queue 64 -observe=false -slo-p99 300ms -slo-min-qps 55 -slo-interval 250ms";;
      q*) cmd="$BIN/epolserve -workers 2 -threads 1 -queue ${c#q} -observe=false";;
    esac
    $cmd -addr 127.0.0.1:$port > "$OUT/$c-$i.serve.log" 2>&1 &
    spid=$!
    for t in $(seq 1 100); do curl -sf http://127.0.0.1:$port/healthz >/dev/null && break; sleep 0.1; done
    echo "run $i $c (GOMAXPROCS=$GOMAXPROCS)"
    "$BIN/loadgen" -trace traces/steady-mixed.json -target http://127.0.0.1:$port -o "$OUT/$c-$i.json" > "$OUT/$c-$i.out"
    head -1 "$OUT/$c-$i.out"
    kill -TERM $spid; wait $spid
  done
done

#!/bin/sh
# File-based workflow: generate a reference run, learn tensors from it,
# extrapolate, reconstruct the kernel, and analyze the long-time state.
# Every product is a JSON document (or a tab-separated table) that the
# next stage reads back; nothing is held in memory between stages.
set -e

TTM="python3 -m ttmkit.cli"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
echo "working in $WORK"

# 1. short hierarchy reference run (the expensive part)
$TTM generate --model heom --dt 0.05 --steps 160 \
    --lambda 0.2 --gamma 1.0 --beta 1.0 --heom-depth 5 \
    --out "$WORK/reference.json"

# 2. learn transfer tensors; the cutoff rule trims the memory depth
# (a window too short for the requested tolerance exits with code 3)
$TTM learn "$WORK/reference.json" --cutoff-tol 1e-6 \
    --out "$WORK/tensors.json"

# 3. extrapolate far beyond the learning window
$TTM propagate "$WORK/tensors.json" --initial e11 --steps 2000 \
    --out "$WORK/long_run.json"

# 4. reconstruct the memory kernel and tabulate two elements
$TTM kernel "$WORK/tensors.json" --fit-liouvillian \
    --out "$WORK/kernel.json" \
    --table "$WORK/kernel.tsv" --elements "00->00,01->10"

# 5. stationary state twice: the settled tail of the extrapolated
# trajectory, and the fixed point read straight off the tensors
$TTM analyze "$WORK/long_run.json" "$WORK/tensors.json" --tol 1e-9 \
    --window 100 --out "$WORK/equilibrium.tsv"

echo
echo "products:"
ls -l "$WORK"
echo
echo "equilibrium report:"
cat "$WORK/equilibrium.tsv"
echo
echo "first kernel table rows:"
head -n 5 "$WORK/kernel.tsv"

#!/usr/bin/env bash
# Sampled-simulation smoke test (CI and `make sample-smoke`): run the
# Table 2 sweep full and sampled at the same budget, and require
#   1. the sampled run to carry the ci95 error-bar columns,
#   2. every sampled IPC to land near its full-run value (smoke-sized
#      budgets leave few intervals per workload, so the tolerance here
#      is loose; the <1% validation lives in the experiments tests),
#   3. two identical sampled runs to be byte-identical — the sampled
#      path must be exactly as deterministic as the full one,
#   4. a serial (-j 1) sampled run to be byte-identical to them: the
#      sweep's shared plan cache must not make results depend on which
#      request builds a plan first.
set -euo pipefail

cd "$(dirname "$0")/.."

insts=${SAMPLE_SMOKE_INSTS:-100000}
tol_bench=${SAMPLE_SMOKE_TOL:-0.15}  # per-benchmark relative IPC error
tol_mean=0.05                        # MEAN-row relative IPC error

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

go build -o "$tmp/figures" ./cmd/figures

echo "sample-smoke: full-detail reference sweep (t2, $insts insts)" >&2
"$tmp/figures" -fig t2 -insts "$insts" -j 4 -quiet -no-cache > "$tmp/full.txt"

echo "sample-smoke: sampled sweep, twice" >&2
sampled_flags=(-fig t2 -insts "$insts" -j 4 -quiet -no-cache -sample)
"$tmp/figures" "${sampled_flags[@]}" > "$tmp/s1.txt"
"$tmp/figures" "${sampled_flags[@]}" > "$tmp/s2.txt"

if ! cmp "$tmp/s1.txt" "$tmp/s2.txt"; then
  echo "sample-smoke: FAIL — two identical sampled runs differ" >&2
  diff "$tmp/s1.txt" "$tmp/s2.txt" | head -20 >&2 || true
  exit 1
fi

echo "sample-smoke: sampled sweep at -j 1" >&2
"$tmp/figures" "${sampled_flags[@]}" -j 1 > "$tmp/serial.txt"

if ! cmp "$tmp/s1.txt" "$tmp/serial.txt"; then
  echo "sample-smoke: FAIL — sampled runs at -j 4 and -j 1 differ" >&2
  diff "$tmp/s1.txt" "$tmp/serial.txt" | head -20 >&2 || true
  exit 1
fi

if ! grep -q "ci95-4w" "$tmp/s1.txt"; then
  echo "sample-smoke: FAIL — sampled t2 lacks the ci95 error-bar columns" >&2
  exit 1
fi

# Compare the IPC-4w (col 2) and IPC-8w (col 4) columns row by row.
awk -v tol="$tol_bench" -v tolmean="$tol_mean" '
  FNR == NR { if (NF >= 5) { f4[$1] = $2; f8[$1] = $4 }; next }
  NF >= 5 && $1 in f4 && $2 + 0 > 0 {
    t = ($1 == "MEAN") ? tolmean : tol
    e4 = ($2 - f4[$1]) / f4[$1]; if (e4 < 0) e4 = -e4
    e8 = ($4 - f8[$1]) / f8[$1]; if (e8 < 0) e8 = -e8
    if (e4 > t || e8 > t) {
      printf "sample-smoke: FAIL — %s sampled IPC off by %.1f%%/%.1f%% (full %s/%s, sampled %s/%s)\n",
        $1, e4 * 100, e8 * 100, f4[$1], f8[$1], $2, $4
      bad = 1
    }
    n++
  }
  END {
    if (n < 13) { printf "sample-smoke: FAIL — only %d comparable rows\n", n; bad = 1 }
    exit bad
  }
' "$tmp/full.txt" "$tmp/s1.txt" >&2

echo "sample-smoke: ok — sampled t2 deterministic at -j 4 and -j 1, and near the full-detail sweep" >&2

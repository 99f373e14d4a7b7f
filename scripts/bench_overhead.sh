#!/usr/bin/env bash
# Regenerates BENCH_<name>.json and optionally gates on the overhead one
# feature adds to the hot epoch path. Each row of the table below names
# a benchmark with a disabled and an enabled variant of a full manager
# epoch; this script compares the two.
#
# Defenses against shared-machine noise: the variants run in separate
# processes in ABBA order (disabled, enabled, enabled, disabled) so
# slow-machine drift hits both sides equally; the MINIMUM ns/op per
# variant is compared — scheduler noise only ever adds time, so the min
# is the honest estimate; and a failing gate accumulates another round
# of samples before giving up, since noise can make true overhead look
# bigger but never smaller.
#
# Usage: scripts/bench_overhead.sh trace          # writes BENCH_trace.json
#        GATE=1 scripts/bench_overhead.sh slo     # exit 1 if overhead > the row's bound
#        COUNT=5 MAX_OVERHEAD_PCT=3 GATE=1 scripts/bench_overhead.sh provenance
# Names: trace, slo, provenance, writepath. (The ledger's cost is below
# process-to-process drift and needs the paired in-process method of
# scripts/bench_ledger.sh.)
set -euo pipefail
cd "$(dirname "$0")/.."

# name → benchmark, default bound (%), default benchtime, what the note
# says is measured.
NAME="${1:-}"
case "$NAME" in
  trace)
    # The bound is relative, so it tightened as the epoch got ~3x faster
    # (258us -> 94us) around a span tree whose absolute cost did not
    # change; map-free spans brought the overhead back to ~2%, and the
    # bound sits at 10% to absorb shared-machine noise without hiding a
    # real regression. BenchmarkEpochSpanTree prices the tree in isolation.
    BENCH=BenchmarkTraceOverhead BOUND=10 TIME=200x
    WHAT="Tracing overhead on a full manager epoch (100 accesses + collect/kmeans/decide)" ;;
  slo)
    # Enabled adds what the daemon sampler and the experiment harnesses
    # do once per tick: a snapshot into the preallocated history ring and
    # a handful of batched windowed delta queries.
    BENCH=BenchmarkSLOOverhead BOUND=5 TIME=300x
    WHAT="Live SLO evaluation overhead on the hot epoch path (manager epoch of 100 accesses + collect/decide; enabled adds one history Sample + burn-rate Evaluate per epoch, the daemon/experiment per-tick work)" ;;
  provenance)
    # 2000x per sample: capture scratch (per-micro cache, counterfactual
    # backing) warms over the first epochs, and shorter samples price
    # that one-time warm-up as if it were steady-state overhead.
    BENCH=BenchmarkProvenanceOverhead BOUND=5 TIME=2000x
    WHAT="Decision provenance capture overhead on the hot epoch path (manager epoch of 100 accesses + collect/decide; enabled adds per-DC attribution, swap counterfactual scoring, and the online regret estimator per epoch)" ;;
  writepath)
    # Disabled is WriteFraction 0 (byte-identical decisions); the write
    # path prices its work once per epoch.
    BENCH=BenchmarkWritePathOverhead BOUND=5 TIME=200x
    WHAT="Write-path overhead on a read-dominated manager epoch (100 accesses + collect/kmeans/decide; leader election and write-fanout costing run per epoch)" ;;
  *)
    echo "usage: $0 trace|slo|provenance|writepath" >&2
    exit 2 ;;
esac

# Deterministic benchmark environment: strip ambient Go knobs that skew
# numbers between machines and runs (build flags, debug toggles, GC
# tuning), and pin the C locale so awk number formatting is stable.
export GOFLAGS= GODEBUG= GOGC=100 LC_ALL=C LANG=C

BENCHTIME="${BENCHTIME:-$TIME}"
COUNT="${COUNT:-3}"
OUT="${OUT:-BENCH_$NAME.json}"
MAX_OVERHEAD_PCT="${MAX_OVERHEAD_PCT:-$BOUND}"
ATTEMPTS="${ATTEMPTS:-3}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# Compile the bench binary once so the measured processes skip the build,
# and fail fast and loudly if the package no longer builds — a broken
# build must read as FAIL, not as a mysteriously empty summary.
if ! go test -run=NONE -c -o /dev/null .; then
  echo "FAIL: benchmark package does not build" >&2
  exit 1
fi

measure() {
  for variant in disabled enabled enabled disabled; do
    go test -run=NONE -bench="^$BENCH/$variant\$" -benchmem \
      -benchtime="$BENCHTIME" -count="$COUNT" . | tee -a "$TMP" >&2
  done
}

summarize() {
  awk -v bench="$BENCH" -v what="$WHAT" -v name="$NAME" -v bound="$BOUND" -v benchtime="$BENCHTIME" \
      -v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" -v goversion="$(go env GOVERSION)" '
  index($1, bench "/disabled") == 1 { n["d"]++; if (!("d" in min) || $3 < min["d"]) { min["d"] = $3; bytes["d"] = $5; allocs["d"] = $7 } }
  index($1, bench "/enabled") == 1  { n["e"]++; if (!("e" in min) || $3 < min["e"]) { min["e"] = $3; bytes["e"] = $5; allocs["e"] = $7 } }
  END {
    if (!("d" in min) || !("e" in min)) { print "missing benchmark output" > "/dev/stderr"; exit 1 }
    overhead = 100 * (min["e"] - min["d"]) / min["d"]
    printf("{\n")
    printf("  \"note\": \"%s: min ns_per_op over %d ABBA-ordered samples per variant at %s. Regenerate with scripts/bench_overhead.sh %s; GATE=1 fails the run when overhead_pct exceeds the bound (default %s).\",\n", what, n["d"], benchtime, name, bound)
    printf("  \"goos\": \"%s\", \"goarch\": \"%s\", \"goversion\": \"%s\",\n", goos, goarch, goversion)
    printf("  \"disabled\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", min["d"], bytes["d"], allocs["d"])
    printf("  \"enabled\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", min["e"], bytes["e"], allocs["e"])
    printf("  \"overhead_pct\": %.2f\n", overhead)
    printf("}\n")
  }
  ' "$TMP" > "$OUT"
}

attempt=1
while :; do
  measure
  summarize
  echo "wrote $OUT" >&2
  if [[ "${GATE:-0}" == "0" ]]; then
    break
  fi
  overhead="$(awk -F': ' '/"overhead_pct"/ { gsub(/[ ,}]/, "", $2); print $2 }' "$OUT")"
  echo "$NAME overhead: ${overhead}% (max ${MAX_OVERHEAD_PCT}%)" >&2
  if awk -v o="$overhead" -v max="$MAX_OVERHEAD_PCT" 'BEGIN { exit (o > max) ? 1 : 0 }'; then
    break
  fi
  if (( attempt >= ATTEMPTS )); then
    echo "FAIL: $NAME overhead ${overhead}% exceeds ${MAX_OVERHEAD_PCT}% after ${ATTEMPTS} rounds" >&2
    exit 1
  fi
  attempt=$((attempt + 1))
  echo "over the bound; accumulating another round of samples (attempt ${attempt}/${ATTEMPTS})" >&2
done

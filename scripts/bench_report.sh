#!/usr/bin/env bash
# Prints the benchmark trajectory: one row per committed BENCH_*.json,
# with each subsystem's headline figure (gate overheads, the scale-out
# flatness factor, the multi-object amortization ratio). The committed
# JSONs are the repo's performance record — this report puts the whole
# trajectory in one table in the CI logs so a regression in any gated
# number is visible next to its neighbours, not just in its own job.
#
# Reads only the committed files; run scripts/bench_overhead.sh <name>
# and the other scripts/bench_*.sh to refresh them. awk-only on purpose:
# no jq dependency.
#
# Usage: scripts/bench_report.sh
set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
files=(BENCH_*.json)
if (( ${#files[@]} == 0 )); then
  echo "no BENCH_*.json files found" >&2
  exit 1
fi

echo "Benchmark trajectory (committed BENCH_*.json):"
echo
printf '%-18s %-36s %s\n' "bench" "headline" "detail"
printf '%-18s %-36s %s\n' "-----" "--------" "------"
for f in "${files[@]}"; do
  awk -v name="${f%.json}" '
  # Pull the first number that follows "key": on the line, tolerating
  # the one-line-object style the bench scripts emit.
  function val(line, key,   re) {
    re = "\"" key "\":[[:space:]]*-?[0-9.]+"
    if (match(line, re)) {
      sub(".*\"" key "\":[[:space:]]*", "", line)
      sub("[^0-9.eE+-].*", "", line)
      return line + 0
    }
    return ""
  }
  /"overhead_pct"/        { overhead = val($0, "overhead_pct"); has_ov = 1 }
  /"disabled"/            { v = val($0, "ns_per_op"); if (v != "") dis = v }
  /"enabled"/             { v = val($0, "ns_per_op"); if (v != "") en = v }
  /"full_cycle_disabled"/ { dis = val($0, "ns_per_op") }
  /"full_cycle_enabled"/  { en = val($0, "ns_per_op") }
  /"flat_factor"/         { flat = val($0, "flat_factor"); has_flat = 1 }
  /"ingest_ns_per_access"/ { ingest1m = val($0, "1000000") }
  /"amortization_factor"/ { amort = val($0, "amortization_factor"); has_amort = 1 }
  /"group_dispatch"/      { disp = val($0, "ns_per_object") }
  END {
    if (has_ov) {
      printf "%-18s %-36s %s\n", name, sprintf("overhead %+.2f%%", overhead),
        sprintf("%d -> %d ns/op (off -> on)", dis, en)
    } else if (has_flat) {
      printf "%-18s %-36s %s\n", name, sprintf("flat_factor %.2fx across populations", flat),
        sprintf("%.1f ns/access at 1M clients, 0 allocs", ingest1m)
    } else if (has_amort) {
      printf "%-18s %-36s %s\n", name, sprintf("amortization %.0fx vs per-object solve", amort),
        sprintf("%.2f ns/object group dispatch", disp)
    } else {
      printf "%-18s %-36s %s\n", name, "(no recognized headline metric)", ""
    }
  }
  ' "$f"
done

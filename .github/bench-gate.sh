#!/usr/bin/env bash
# The benchmark gate: runs every workload of BENCHMARK.json once on a
# parent checkout and once on this one (two seconds of rounds, GOMAXPROCS=2)
# and fails, naming the workload and the metric, when this checkout's run
# has a failed op or when an allocation count or a quality digit is worse
# than the parent's by more than that metric's bound in BENCHMARK.json.
# Timings are not gated here: they need paired, order-alternated runs.
#
#   bash .github/bench-gate.sh PARENT_DIR [CHANGE_DIR]
#
# CHANGE_DIR defaults to the current directory. Each side's bench/ builds
# against its own tree (bench/go.mod replaces costream with ../).
set -euo pipefail

parent=$1
change=${2:-.}
spec=$change/BENCHMARK.json
gated='["allocs_per_op", "alloc_kb_per_op", "heldout_qerr_p50", "placement_speedup_p50"]'
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
export GOMAXPROCS=2

# run SIDE WORKLOAD writes SIDE's result line to $out/SIDE.json.
run() {
  if ! go run -C "${!1}/bench" costream/bench -workload "$2" -seconds 2 -json >"$out/$1.json"; then
    echo "FAIL $2: the $1's run exited non-zero" >&2
    exit 1
  fi
}

report=$out/report.txt
echo '| workload | metric | parent | change | change % | bound % |' >"$report"
echo '|---|---|---|---|---|---|' >>"$report"
for w in $(jq -r '.workloads[].name' "$spec"); do
  if ! jq -e --arg w "$w" 'any(.workloads[]; .name == $w)' "$parent/BENCHMARK.json" >/dev/null; then
    echo "$w: not a workload of the parent, nothing to compare" >&2
    continue
  fi
  run parent "$w"
  run change "$w"
  jq -rn --arg w "$w" --argjson gated "$gated" --slurpfile spec "$spec" \
    --slurpfile parent "$out/parent.json" --slurpfile change "$out/change.json" '
    def r: . * 1e6 | round / 1e6;
    ($spec[0].end_to_end | map({(.name): .}) | add) as $metric
    | $parent[0].metrics as $p | $change[0] as $c
    | if $c.failed > 0 then "FAIL \($w) failed: \($c.failed) of \($c.attempted) ops failed their output check" else empty end,
      ($gated[] as $m
       | $p[$m].value as $old | $c.metrics[$m].value as $new | $metric[$m] as $d
       | "| \($w) | \($m) | \($old | r) | \($new | r) | \(if $old == 0 then "" else ($new / $old - 1) * 10000 | round / 100 end) | \($d.bound * 100) |",
         if ($d.better == "lower" and $new > $old * (1 + $d.bound))
           or ($d.better == "higher" and $new < $old * (1 - $d.bound))
         then "FAIL \($w) \($m): \($new | r) against \($old | r) on the parent, worse by more than \($d.bound * 100) %"
         else empty end)' >>"$report"
done

grep -v '^FAIL' "$report" | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
if grep '^FAIL' "$report" >&2; then
  exit 1
fi

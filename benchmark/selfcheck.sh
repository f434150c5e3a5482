#!/usr/bin/env bash
# Repeatability self-check: runs every workload in two sets of five
# invocations (same code, same seed) and fails if, for any gated metric,
# the two set medians differ by more than the metric's bound in
# BENCHMARK.json or either set's spread exceeds that bound. Spread is
# the distance between the quartiles over the median, the statistic the
# benchmark's bounds are stated in; the min-max range is printed beside
# it (on a shared box one run in five can fall in a slow spell).
# msg_bytes_per_query must repeat exactly. Prints the table that
# README.md records. Takes about 21 minutes at the default run length.
#
# usage: benchmark/selfcheck.sh [seed]      (from the repository root)
set -euo pipefail

cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
out="benchmark/out/selfcheck"
rm -rf "$out"
mkdir -p "$out"

cargo build --release --quiet --manifest-path benchmark/Cargo.toml

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for set in A B; do
  for workload in $workloads; do
    for run in 1 2 3 4 5; do
      cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 > "$out/$set-$workload-$run.json"
    done
  done
done

python3 - "$out" <<'EOF'
import glob, json, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
failures = []
print(f"{'workload':<18} {'metric':<20} {'median A':>12} {'median B':>12} {'B vs A':>8} "
      f"{'spread A':>8} {'spread B':>8} {'range A':>8} {'range B':>8} {'bound':>6}")
for workload in (w["name"] for w in spec["workloads"]):
    runs = {s: [json.load(open(f)) for f in sorted(glob.glob(f"{out}/{s}-{workload}-*.json"))]
            for s in "AB"}
    for s, rs in runs.items():
        if len(rs) != 5 or not all(r["correct"] for r in rs):
            failures.append(f"{workload}: set {s} has an incorrect or missing run")
        if len({r["failed"] for r in rs}) != 1:
            failures.append(f"{workload}: set {s} failed counts differ between runs")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = {s: [r["metrics"][name]["value"] for r in rs] for s, rs in runs.items()}
        med = {s: statistics.median(v) for s, v in values.items()}
        quartiles = {s: statistics.quantiles(v, n=4) for s, v in values.items()}
        spread = {s: (q[2] - q[0]) / med[s] for s, q in quartiles.items()}
        span = {s: (max(v) - min(v)) / med[s] for s, v in values.items()}
        shift = (med["B"] - med["A"]) / med["A"]
        print(f"{workload:<18} {name:<20} {med['A']:>12.6g} {med['B']:>12.6g} {shift:>+8.2%} "
              f"{spread['A']:>8.2%} {spread['B']:>8.2%} {span['A']:>8.2%} {span['B']:>8.2%} "
              f"{bound:>6.0%}")
        if abs(shift) > bound:
            failures.append(f"{workload} {name}: set medians differ by {shift:+.2%}")
        if max(spread.values()) > bound:
            failures.append(f"{workload} {name}: a set spreads over {max(spread.values()):.2%}")
        if name == "msg_bytes_per_query" and len(set(values["A"] + values["B"])) != 1:
            failures.append(f"{workload} {name}: not identical across runs of one seed")
for line in failures:
    print("FAIL", line)
print("selfcheck:", "FAILED" if failures else "passed")
sys.exit(1 if failures else 0)
EOF

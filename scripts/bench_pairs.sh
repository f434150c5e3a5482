#!/usr/bin/env bash
# Alternating parent/change pairs of the BENCHMARK.json command.
#
#   scripts/bench_pairs.sh <parent-rev> [workload...]
#
# Builds `benchmark/` twice — the parent from `git archive <parent-rev>`
# in a scratch directory, the change from this working tree as it stands
# (uncommitted edits included) — then runs N pairs per workload, pair i
# at seed i, odd pairs parent first, and prints the table and the
# per-run lines docs/PERF.md's "(measured)" sections use: median
# [q1, q3] per side, the median's move, and "change better k/N".
# Exits 1, after the table, if any run exited nonzero, reported
# `correct: false` or a failed query, or if `msg_bytes_per_query` differs
# within a pair: a table from such a run is not a measurement.
#
# Environment: PAIRS (default 10), SECONDS_PER_RUN (default: BENCHMARK.json's
# run_seconds), OUT (default: a fresh mktemp directory; raw run logs are
# kept there). Workloads default to all of BENCHMARK.json's. Run it on a
# quiet box, and read docs/PERF.md "A run thread per live run" before
# comparing a shell's numbers with the driver's.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent_rev=$1
shift

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
field() { python3 -c "import json,sys; b=json.load(open('BENCHMARK.json')); print($1)"; }
pairs=${PAIRS:-10}
seconds=${SECONDS_PER_RUN:-$(field "b['run_seconds']")}
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(field "'\n'.join(w['name'] for w in b['workloads'])")
fi
out=${OUT:-$(mktemp -d)}
mkdir -p "$out/parent" "$out/runs"
: > "$out/nonzero"

echo "parent $(git rev-parse --short "$parent_rev"), change $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+uncommitted'), $pairs pairs x ${seconds}s, $(nproc) logical cpu(s), logs in $out"
git archive "$parent_rev" | tar -x -C "$out/parent"
(cd "$out/parent" && cargo build --release --quiet --manifest-path benchmark/Cargo.toml)
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
# Copies, so a rebuild of the working tree mid-measurement changes nothing.
cp "$out/parent/benchmark/target/release/edgelet-benchmark" "$out/parent-bench"
cp benchmark/target/release/edgelet-benchmark "$out/change-bench"

run() { # side workload seed
    local dir=$root
    [ "$1" = parent ] && dir=$out/parent
    (cd "$dir" && "$out/$1-bench" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0) \
        > "$out/runs/$2.$1.$3.log" 2>&1 ||
        echo "$2 $1 seed $3: the benchmark exited nonzero" | tee -a "$out/nonzero" >&2
}

for workload in "${workloads[@]}"; do
    for seed in $(seq 1 "$pairs"); do
        if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do run "$side" "$workload" "$seed"; done
        echo "  $workload pair $seed/$pairs done" >&2
    done
done

python3 - "$out" "$pairs" "${workloads[@]}" <<'PY'
import json, sys
out, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
runs = out + "/runs"
gated = {m["name"]: m for m in json.load(open("BENCHMARK.json"))["end_to_end"]}

def quantile(xs, q):
    xs = sorted(xs)
    at = q * (len(xs) - 1)
    lo = int(at)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (at - lo)

def summary(xs):
    return "%.4g [%.4g, %.4g]" % (quantile(xs, .5), quantile(xs, .25), quantile(xs, .75))

def load(workload, side, seed):
    log = "%s/%s.%s.%d.log" % (runs, workload, side, seed)
    try:
        return json.loads(open(log).read().strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.exit("%s does not end in a result line; no table" % log)

lines, bad = [], open(out + "/nonzero").read().splitlines()
print("| Workload | Metric (bound) | Parent | This change | Median delta | Change better |")
print("|----------|----------------|--------|-------------|--------------|---------------|")
for w in workloads:
    results = {side: [load(w, side, s) for s in range(1, pairs + 1)] for side in ("parent", "change")}
    for side, rs in results.items():
        bad += ["%s %s seed %d: correct=%s failed=%s" % (w, side, i + 1, r["correct"], r["failed"])
                for i, r in enumerate(rs) if not r["correct"] or r["failed"]]
    for name, m in gated.items():
        p, c = ([r["metrics"][name]["value"] for r in results[side]] for side in ("parent", "change"))
        if name == "msg_bytes_per_query":
            same = "both sides" if p == c else "DIFFERS: parent %s; change" % " ".join("%.1f" % x for x in p)
            bad += ["%s seed %d: msg_bytes_per_query parent %r, change %r" % (w, i + 1, a, b)
                    for i, (a, b) in enumerate(zip(p, c)) if a != b]
            lines.append("%s %s (%s): %s" % (w, name, same, " ".join("%.1f" % x for x in c)))
            continue
        higher = m["better"] == "higher"
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        delta = 100 * (quantile(c, .5) / quantile(p, .5) - 1)
        iqr = quantile(p, .75) - quantile(p, .25)
        print("| `%s` | `%s` (%s%.0f %%) | %s | %s | %+.1f %% | %d/%d |" % (
            w, name, "−" if higher else "+", 100 * m["bound"], summary(p), summary(c), delta, wins, pairs))
        lines.append("%s %s: parent %s; change %s  (parent inter-quartile distance %.4g %s)" % (
            w, name, " ".join("%.4g" % x for x in p), " ".join("%.4g" % x for x in c), iqr, m["unit"]))
print("\nEvery run, pair order (odd pairs ran the parent first):\n")
print("\n".join(lines))
print("\n" + ("\n".join(bad) if bad else "every run: exit 0, correct true, failed 0, msg_bytes_per_query equal pair by pair"))
sys.exit(1 if bad else 0)
PY

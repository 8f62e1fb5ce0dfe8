#!/usr/bin/env bash
# A/A tool: two interleaved sets of N untraced runs (default 5) plus one traced
# run of every workload, from one build of one commit.
#
#   benchmark/aa.sh [N] [SEED] [vary]
#
# Prints, per end-to-end metric x workload, both medians, both interquartile
# ranges, the gap between the medians and the bound from BENCHMARK.json, and
# checks that virt_ms and every exact (`*`) per-layer metric are identical in
# every run of a seed. Exits non-zero when a gap exceeds its bound or an exact
# metric differs. With `vary`, run i uses seed SEED+i in both sets (what the
# driver does); otherwise every run uses SEED, so exact metrics must agree
# across all runs. Run it from the repo root on an otherwise idle host.
set -euo pipefail

N=${1:-5}
SEED=${2:-1}
VARY=${3:-fixed}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
cd "$ROOT"
SECONDS_PER_RUN=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
WORKLOADS=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
TARGET=${CARGO_TARGET_DIR:-$ROOT/benchmark/target}
OUT=$(mktemp -d "${TMPDIR:-/tmp}/amr-aa.XXXXXX")
trap 'rm -rf "$OUT"' EXIT

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN=$TARGET/release/amr-benchmark
"$BIN" --exact-names > "$OUT/exact"

echo "host: $(nproc) cores, $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | xargs), $(rustc --version), commit $(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
echo "protocol: 2 interleaved sets x $N untraced runs + 1 traced run, $SECONDS_PER_RUN s each, seed $SEED ($VARY)"

run() { # set index workload trace
    local seed=$SEED
    [ "$VARY" = vary ] && seed=$((SEED + $2))
    local line
    line=$("$BIN" --workload "$3" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace "$4" | tail -n 1)
    echo "{\"set\": \"$1\", \"workload\": \"$3\", \"seed\": $seed, \"trace\": $4, \"result\": $line}" >> "$OUT/runs.jsonl"
}

for i in $(seq 1 "$N"); do
    for set in A B; do
        for w in $WORKLOADS; do run "$set" "$i" "$w" 0; done
    done
done
for set in A B; do
    for w in $WORKLOADS; do run "$set" 0 "$w" 1; done
done

python3 - "$OUT/runs.jsonl" "$OUT/exact" <<'PY'
import json, statistics, sys

runs = [json.loads(l) for l in open(sys.argv[1])]
exact = set(open(sys.argv[2]).read().split())
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
bad = []

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]

for r in runs:
    if not r["result"]["correct"] or r["result"]["failed"]:
        bad.append(f'{r["workload"]} set {r["set"]}: run reported failed checks')

print("\n| workload | metric | median A | IQR A | median B | IQR B | gap | bound | |")
print("|---|---|---:|---:|---:|---:|---:|---:|---|")
for w in [x["name"] for x in spec["workloads"]]:
    for name, bound in bounds.items():
        med, iqr = {}, {}
        for s in "AB":
            v = [r["result"]["metrics"][name]["value"] for r in runs
                 if r["workload"] == w and r["set"] == s and r["trace"] == 0]
            med[s] = statistics.median(v)
            lo, hi = quartiles(v)
            iqr[s] = (hi - lo) / med[s]
        gap = abs(med["B"] - med["A"]) / med["A"]
        ok = gap <= bound
        if not ok:
            bad.append(f"{w}/{name}: gap {gap:.2%} exceeds bound {bound:.0%}")
        print(f'| {w} | {name} | {med["A"]:.6g} | {iqr["A"]:.2%} | {med["B"]:.6g} | {iqr["B"]:.2%} '
              f'| {gap:.2%} | {bound:.0%} | {"ok" if ok else "EXCEEDED"} |')

# Exact metrics: identical in every run of one (workload, seed).
checked = 0
by_key = {}
for r in runs:
    for name, m in r["result"]["metrics"].items():
        if name == "virt_ms" or name in exact:
            by_key.setdefault((r["workload"], r["seed"], name), set()).add(m["value"])
for (w, seed, name), values in sorted(by_key.items()):
    checked += 1
    if len(values) != 1:
        bad.append(f"{w}/{name} (seed {seed}): not identical across runs: {sorted(values)}")
print(f"\nexact metrics: {checked} (workload, seed, metric) groups compared across runs, "
      f"{sum(1 for b in bad if 'not identical' in b)} differ")

for b in bad:
    print("A/A FAILED:", b)
sys.exit(1 if bad else 0)
PY

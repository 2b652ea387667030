#!/usr/bin/env bash
# Runs the benchmark N times, seeds 1 to N, and prints for every workload
# and metric the median, the quartiles and the spread (q3 - q1) / median
# over all runs, with quartiles as Python's statistics.quantiles(values,
# n=4) gives them. It also splits the runs into two interleaved sets, odd
# and even seeds, and prints each set's median and how much worse the
# even set's is than the odd set's (for a metric where higher is better,
# a drop counts as worse). BENCHMARK.json's bounds are set from these
# numbers.
#
# Usage: benchmark/repeat.sh N [benchmark arguments...]
#   benchmark/repeat.sh 10
#   benchmark/repeat.sh 10 --workload serve_hot --trace 1
#
# The raw output of each run is kept in benchmark/out/repeat-<seed>.txt.
set -euo pipefail
n=${1:?usage: benchmark/repeat.sh N [benchmark arguments...]}
shift
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
files=()
for ((seed = 1; seed <= n; seed++)); do
  file=benchmark/out/repeat-$seed.txt
  if ! cargo run --release -q --manifest-path benchmark/Cargo.toml -- --seed "$seed" "$@" >"$file"; then
    echo "repeat.sh: the run with seed $seed failed; see $file" >&2
  fi
  files+=("$file")
done
python3 - "${files[@]}" <<'EOF'
import json
import statistics
import sys

with open("BENCHMARK.json") as f:
    declared = json.load(f)
higher = {m["name"] for section in ("end_to_end", "per_layer")
          for m in declared[section] if m["better"] == "higher"}

values = {}
for seed, path in enumerate(sys.argv[1:], start=1):
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 4 and not line.startswith("{"):
                workload, metric, value, unit = parts
                values.setdefault((workload, metric, unit), []).append((seed, float(value)))

print(f"{'workload':16} {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
      f"{'odd':>12} {'even':>12} {'worse':>7} {'runs':>4} unit")
for (workload, metric, unit), runs in values.items():
    v = [x for _, x in runs]
    q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    spread = (q3 - q1) / med if med else 0.0
    odd = statistics.median([x for s, x in runs if s % 2] or [0.0])
    even = statistics.median([x for s, x in runs if not s % 2] or [0.0])
    worse = ((odd - even) if metric in higher else (even - odd)) / odd if odd else 0.0
    print(f"{workload:16} {metric:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.4f} "
          f"{odd:12.6g} {even:12.6g} {worse:7.4f} {len(v):4} {unit}")
EOF

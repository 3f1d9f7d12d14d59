#!/usr/bin/env bash
# run_all.sh — run the perf-ledger grid in scripts/bench/experiments.json:
# repeats x sets x seeds x workloads x {untraced, traced}.
#
#   bash scripts/bench/run_all.sh [OUT_DIR]
#
# Each entry of "sets" maps a label to a checkout, relative to this
# repository's root. Two labels on "." measure one commit twice, which
# is how a metric's bound is checked; pointing "b" at a checkout of
# another commit compares the two. The order alternates from one
# (repeat, seed) step to the next: sets a,b then b,a, and
# untraced/traced likewise, so slow drift of the machine falls on both
# sides evenly.
#
# Output, under bench-runs/<stamp>/ unless OUT_DIR is given:
#   <set>/rep<k>/<workload>-<mode>-seed<s>.json   one report per run
#   <set>/rep<k>/*.ndjson                         spans of traced runs
#   logs/...                                      each run's stderr
#   <set>-spread.txt                              median, quartiles and spread per metric
#   compare.txt                                   with two sets: wins and verdict per metric
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
cfg="$root/scripts/bench/experiments.json"
stamp=$(date +%Y-%m-%d_%H%M%S)
out=$(mkdir -p "${1:-$root/bench-runs/$stamp}" && cd "${1:-$root/bench-runs/$stamp}" && pwd)
echo "config: $cfg"
echo "output: $out"

python3 - "$cfg" "$out" "$root" <<'PY'
import json, os, subprocess, sys

cfg_path, out, root = sys.argv[1:4]
cfg = json.load(open(cfg_path))
repeats = int(cfg["repeats"])
sets = list(cfg["sets"].items())
modes = cfg["modes"]
os.makedirs(os.path.join(out, "logs"), exist_ok=True)

runs = repeats * len(sets) * len(cfg["seeds"]) * len(cfg["workloads"]) * len(modes)
print(f"planned: {runs} runs of {cfg['seconds']} s")
done = failed = 0
for rep in range(repeats):
    for i, seed in enumerate(cfg["seeds"]):
        k = rep * len(cfg["seeds"]) + i
        order = sets if k % 2 == 0 else sets[::-1]
        mode_order = modes if k % 2 == 0 else modes[::-1]
        for label, checkout in order:
            cwd = os.path.normpath(os.path.join(root, checkout))
            dest = os.path.join(out, label, f"rep{rep}")
            for workload in cfg["workloads"]:
                for mode in mode_order:
                    cmd = ["bash", "bench/run.sh", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(cfg["seconds"]),
                           "--trace", "1" if mode == "traced" else "0", "--out", dest]
                    log = os.path.join(out, "logs", f"{label}-rep{rep}-{workload}-{mode}-seed{seed}.log")
                    with open(log, "w") as lf:
                        p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=lf)
                    done += 1
                    status = "ok" if p.returncode == 0 else f"exit {p.returncode} (see {log})"
                    failed += p.returncode != 0
                    print(f"[{done}/{runs}] {label} rep{rep} {workload} {mode} seed {seed}: {status}", flush=True)
sys.exit(1 if failed else 0)
PY

cd "$root"
read -r -a labels <<< "$(python3 -c 'import json,sys; print(" ".join(json.load(open(sys.argv[1]))["sets"]))' "$cfg")"
for label in "${labels[@]}"; do
    bash bench/run.sh --compare "$out/$label" > "$out/$label-spread.txt"
    echo "spread: $out/$label-spread.txt"
done
if [ "${#labels[@]}" -eq 2 ]; then
    bash bench/run.sh --compare "$out/${labels[0]}" "$out/${labels[1]}" > "$out/compare.txt"
    echo "compare: $out/compare.txt"
fi

#!/usr/bin/env bash
# run.sh — build and run the jsonski perf ledger (bench/) from the
# repository root:
#
#   bash bench/run.sh --workload large-scan --seed 42 --seconds 25 --trace 0
#   bash bench/run.sh --compare bench-runs/<stamp>/a bench-runs/<stamp>/b
#
# The ledger is its own Go module (bench/go.mod, which replaces jsonski
# with the enclosing checkout). Everything a run builds or writes — the
# Go build cache, the binaries, generated inputs, span files — stays
# under .bench_build/ in the checkout. No module is downloaded.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/jsonski" ] || [ ! -f "$root/bench/go.mod" ]; then
    echo "bench/run.sh: run from the jsonski repository root" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/bin/ledger" .)
exec "$build/bin/ledger" -repo "$root" "$@"

#!/usr/bin/env bash
# benchguard.sh BASE.txt HEAD.txt [MAX_REGRESSION_PCT]
#
# Compares the mean ns/op of the guarded benchmarks between two `go test
# -bench` output files and fails when any head mean regresses more than
# MAX_REGRESSION_PCT (default 2) over its base mean. Guarded benchmarks:
#
#   BenchmarkRunLarge           — the disabled-telemetry count-only hot
#                                 path (the zero-overhead-when-off
#                                 telemetry contract)
#   BenchmarkRunLargeSinkStream — the zero-copy streaming-sink output
#                                 path (the sink layer must not tax the
#                                 per-match emit). Also the
#                                 tracing-disabled gate: RunSink is what
#                                 jsonskid's /query path runs for
#                                 unsampled requests, so the tracing
#                                 layer when off (one nil check, DESIGN
#                                 §5g) must keep it within the limit
#   BenchmarkRunFilterSkip      — the skip-eligible filter probe plan
#                                 (mini child-chain DFA probes over
#                                 candidate spans)
#   BenchmarkRunFilterFullParse — the full-parse filter fallback (DOM
#                                 per candidate span)
#   BenchmarkOnDemandGet        — the lazy navigation substrate: one
#                                 indexed single-field lookup per record
#                                 (what jsonskid's /doc endpoint runs).
#                                 Every hop is a G1-G5 movement, so this
#                                 doubles as a guard on the Navigator's
#                                 dispatch overhead
#   BenchmarkRunRecordsStream/query
#                               — the per-record path: NDJSON through
#                                 RunReaderSink into a StreamSink (what
#                                 the CLI's -records scan runs)
#   BenchmarkRunRecordsStream/set
#                               — a three-path QuerySet over small
#                                 records (what jsonskid's /multi runs
#                                 per record)
#   BenchmarkQuerySet/shared-pass
#                               — a QuerySet's shared pass over one
#                                 large record
#
# A benchmark absent from the base file is skipped, not failed: it did
# not exist at the base commit. Both files must be produced on the SAME
# machine in the SAME CI run — cross-machine comparisons are noise,
# which is why the checked-in bench_baseline.txt is informational only.
set -euo pipefail

base_file=${1:?usage: benchguard.sh BASE.txt HEAD.txt [MAX_PCT]}
head_file=${2:?usage: benchguard.sh BASE.txt HEAD.txt [MAX_PCT]}
max_pct=${3:-2}

# BENCH_*.json files are jsonskibench trajectory snapshots (machine-
# readable experiment reports, e.g. `jsonskibench -exp store -json
# BENCH_6.json`), not `go test -bench` output; there is nothing in them
# to guard, so passing one — e.g. from a glob over checked-in bench
# artifacts — is a no-op, not an error.
for f in "$base_file" "$head_file"; do
    case "$(basename "$f")" in
    BENCH_*.json)
        echo "$(basename "$f") is a bench trajectory snapshot, not go-test bench output; nothing to guard"
        exit 0
        ;;
    esac
done

# mean FILE BENCH — mean ns/op of BENCH's samples (optionally suffixed
# -N by GOMAXPROCS), empty when the file has none.
mean() {
    awk -v bench="^$2(-[0-9]+)?[ \t]" '$0 ~ bench { sum += $3; n++ }
         END { if (n > 0) printf "%.0f\n", sum / n }' "$1"
}

fail=0
for bench in BenchmarkRunLarge BenchmarkRunLargeSinkStream \
             BenchmarkRunFilterSkip BenchmarkRunFilterFullParse \
             BenchmarkOnDemandGet \
             BenchmarkRunRecordsStream/query BenchmarkRunRecordsStream/set \
             BenchmarkQuerySet/shared-pass; do
    head_mean=$(mean "$head_file" "$bench")
    if [ -z "$head_mean" ]; then
        echo "$bench: no samples in $head_file" >&2
        fail=1
        continue
    fi
    base_mean=$(mean "$base_file" "$bench")
    if [ -z "$base_mean" ]; then
        echo "$bench: absent from base; skipping (new benchmark)"
        continue
    fi
    awk -v bench="$bench" -v base="$base_mean" -v head="$head_mean" -v max="$max_pct" 'BEGIN {
        delta = (head - base) * 100.0 / base
        printf "%s mean: base %.0f ns/op, head %.0f ns/op, delta %+.2f%% (limit +%s%%)\n",
               bench, base, head, delta, max
        if (delta > max) {
            printf "FAIL: %s regressed beyond the limit\n", bench > "/dev/stderr"
            exit 1
        }
        print "OK: within limit"
    }' || fail=1
done
exit "$fail"

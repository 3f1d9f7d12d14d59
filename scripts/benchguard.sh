#!/usr/bin/env bash
# benchguard.sh BASE.txt HEAD.txt [MAX_REGRESSION_PCT]
#
# Compares the guarded benchmarks between two `go test -bench -benchmem`
# output files and fails a benchmark on either of two gates:
#
#   time   — its head mean ns/op regresses more than MAX_REGRESSION_PCT
#            (default 2) over its base mean;
#   allocs — its smallest head allocs/op exceeds its largest base
#            allocs/op. Allocation counts do not depend on the machine,
#            so this gate holds the zero-allocation paths (RunLarge,
#            RunLargeSinkStream, OnDemandGet) at zero exactly, while a
#            pooled path that wobbles by one allocation between samples
#            stays inside the base's range.
#
# Guarded benchmarks:
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
#   BenchmarkDescendant/descendant-nfa
#                               — a descendant path ($..tx over one
#                                 large GMD record): the engine's
#                                 state-set side, which takes no G1, G4
#                                 or G5. Every other guarded path keeps
#                                 one state live
#   BenchmarkServerDocHot/query
#   BenchmarkServerDocHot/doc   — jsonskid's hot single-document path
#                                 (./internal/server): /query and /doc
#                                 over a 256 KiB document whose index
#                                 is cached. The allocation gate holds
#                                 the body read to a recycled buffer
#
# A benchmark absent from the base file is skipped, not failed: it did
# not exist at the base commit. So is the allocation gate of a benchmark
# whose base samples carry no allocs/op (a base run without -benchmem);
# head samples without allocs/op fail it. Both files must be produced on
# the SAME machine in the SAME CI run — cross-machine timings are noise,
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

# allocs FILE BENCH min|max — the smallest or largest allocs/op of
# BENCH's samples, empty when none carries one. The count is the field
# before "allocs/op": SetBytes benchmarks add an MB/s column, so its
# position varies.
allocs() {
    awk -v bench="^$2(-[0-9]+)?[ \t]" -v mode="$3" '$0 ~ bench {
            for (i = 2; i <= NF; i++) {
                if ($i != "allocs/op") continue
                v = $(i - 1) + 0
                if (n == 0 || (mode == "min" && v < r) || (mode == "max" && v > r)) r = v
                n++
            }
        }
        END { if (n > 0) printf "%d\n", r }' "$1"
}

fail=0
for bench in BenchmarkRunLarge BenchmarkRunLargeSinkStream \
             BenchmarkRunFilterSkip BenchmarkRunFilterFullParse \
             BenchmarkOnDemandGet \
             BenchmarkRunRecordsStream/query BenchmarkRunRecordsStream/set \
             BenchmarkQuerySet/shared-pass \
             BenchmarkDescendant/descendant-nfa \
             BenchmarkServerDocHot/query BenchmarkServerDocHot/doc; do
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
    base_allocs=$(allocs "$base_file" "$bench" max)
    head_allocs=$(allocs "$head_file" "$bench" min)
    if [ -z "$base_allocs" ]; then
        echo "$bench: no allocs/op in base; skipping the allocation gate"
    elif [ -z "$head_allocs" ]; then
        echo "$bench: no allocs/op in $head_file (run with -benchmem)" >&2
        fail=1
    elif [ "$head_allocs" -gt "$base_allocs" ]; then
        echo "$bench allocs: base max $base_allocs allocs/op, head min $head_allocs allocs/op" >&2
        echo "FAIL: $bench allocates more than the base" >&2
        fail=1
    else
        echo "$bench allocs: base max $base_allocs allocs/op, head min $head_allocs allocs/op"
        echo "OK: no more allocations"
    fi
done
exit "$fail"

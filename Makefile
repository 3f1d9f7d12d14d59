# The repository is a two-module workspace (go.work): the stdlib-only
# library at the root and the lint suite under tools/lint. `go build
# ./...` from the root does not cross the nested module boundary, so the
# targets below spell both out.

.PHONY: all build test test-386 cross race lint lint-one fuzz-smoke bench-smoke

all: build test lint

build:
	go build ./...
	cd tools/lint && go build ./...

# test also runs every paper benchmark once at a tiny size, serially and
# at two workers, as CI's test job does, so §5's tables stay wired to
# working code.
test:
	go test ./...
	cd tools/lint && go test ./...
	JSONSKI_BENCH_BYTES=65536 go test -run '^$$' -bench '^Benchmark(Fig1[0-4]|Table6|Ablation(NoFastForward|ScalarSkip|Groups)|MultiQuery|RepeatedDocument)$$' -benchtime 1x -cpu 1,2 .

# test-386 mirrors the CI test-386 job: the whole suite on the SWAR
# classifier. 386 binaries run natively on amd64 hosts and build
# without the amd64 AVX2 kernel, so no switch is needed (and -race is
# not available on 386).
test-386:
	GOARCH=386 go test ./...

# cross mirrors the CI cross-compile job: darwin and windows check that
# the library and the commands build there, and arm64 builds
# internal/bits' non-amd64 path, where there is no vector kernel. One
# non-test file pair is gated on GOOS: cmd/jsonski maps its input on
# unix (mmap_unix.go) and reads it elsewhere (mmap_other.go), so
# cmd/jsonski is also vetted on darwin (the unix half) and windows (the
# other).
cross:
	GOOS=darwin go build ./...
	GOOS=darwin go vet ./cmd/jsonski
	GOOS=windows go build ./...
	GOOS=windows go vet ./cmd/jsonski
	GOARCH=arm64 go build ./...

race:
	go test -race ./...
	cd tools/lint && go test -race ./...

lint:
	./scripts/lint.sh

# lint-one exercises a single jsonskilint analyzer: its fixture tests
# first, then the pass alone over the whole tree. Usage:
#
#   make lint-one PASS=poolpair
lint-one:
	@test -n "$(PASS)" || { echo "usage: make lint-one PASS=<analyzer>" >&2; exit 2; }
	cd tools/lint && go test ./passes/$(PASS)/...
	go run ./tools/lint/cmd/jsonskilint -run $(PASS) ./...

# fuzz-smoke is the CI fuzz-smoke job: a short budget per native fuzz
# target, enough to replay the seed corpus and catch shallow
# regressions. Override with FUZZTIME=60s for longer runs.
# -fuzzminimizetime caps minimizing each new-coverage input, which
# otherwise spends most of a short budget with no execs.
FUZZTIME ?= 10s

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzValidate$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	go test -run '^$$' -fuzz '^FuzzCompileJSONPath$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	go test -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	go test -run '^$$' -fuzz '^FuzzOnDemandDifferential$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	go test -run '^$$' -fuzz '^FuzzNDJSONFraming$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/ndjson
	go test -run '^$$' -fuzz '^FuzzClassify$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/bits

# bench-smoke mirrors the CI bench-smoke job: the perf ledger under
# bench/ is its own module outside go.work, so it is vetted and tested
# with GOWORK=off. Its tests build the real jsonski and jsonskid, run
# every workload at tiny sizes and check each answer against the DOM
# reference. -count=1: the test cache does not track the sources those
# binaries are built from, so a cached pass could hide a broken daemon.
bench-smoke:
	cd bench && GOWORK=off go vet .
	cd bench && GOWORK=off go test -count=1 .

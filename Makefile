# The repository is a two-module workspace (go.work): the stdlib-only
# library at the root and the lint suite under tools/lint. `go build
# ./...` from the root does not cross the nested module boundary, so the
# targets below spell both out.

.PHONY: all build test race lint lint-one fuzz-smoke bench-smoke

all: build test lint

build:
	go build ./...
	cd tools/lint && go build ./...

test:
	go test ./...
	cd tools/lint && go test ./...

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

# fuzz-smoke mirrors the CI fuzz-smoke job: a short budget per native
# fuzz target, enough to replay the seed corpus and catch shallow
# regressions locally. Override with FUZZTIME=60s for longer runs.
FUZZTIME ?= 10s

fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzValidate$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzCompileJSONPath$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzDifferential$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzOnDemandDifferential$$' -fuzztime $(FUZZTIME) .
	go test -run '^$$' -fuzz '^FuzzStoreRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/store

# bench-smoke mirrors the CI bench-smoke job: the perf ledger under
# bench/ is its own module outside go.work, so it is vetted and tested
# with GOWORK=off. Its tests build the real jsonski and jsonskid, run
# every workload at tiny sizes and check each answer against the DOM
# reference. -count=1: the test cache does not track the sources those
# binaries are built from, so a cached pass could hide a broken daemon.
bench-smoke:
	cd bench && GOWORK=off go vet .
	cd bench && GOWORK=off go test -count=1 .

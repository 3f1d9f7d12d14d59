#!/usr/bin/env bash
# lint.sh — run the full lint suite exactly as CI's lint job does:
#
#   gofmt         `gofmt -l .` must print nothing: every Go file in the
#                 tree, testdata fixtures included, is gofmt-formatted
#   go vet        over both workspace modules (the library and tools/lint)
#   jsonskilint   the custom invariant analyzers (poolpair, escapespan,
#                 navgen; see DESIGN §5d and §5i): the rules Go's type
#                 system cannot express. All three are path-sensitive:
#                 they reason over the CFG, so "released on some paths
#                 but not all" is a finding, not a false negative.
#   inline gate   `go build -gcflags=-m` must report that
#                 (*FF).charge and (*Trace).Record can inline: a nil
#                 *telemetry.Trace (explain off) then costs one branch
#                 per fast-forward movement. Exact on any machine,
#                 unlike a timing bound.
#   staticcheck   over both workspace modules (CI pins the version;
#                 locally the step is skipped with a warning when not
#                 installed). `staticcheck ./...` from the root does not
#                 cross the nested module boundary, so tools/lint gets
#                 its own invocation — the analyzers are load-bearing
#                 code and lint themselves.
#   shellcheck    over scripts/*.sh (same skip rule)
#   deps guard    `go list -deps . ./cmd/jsonski` must not list
#                 net/http: the library and the jsonski CLI stay off the
#                 HTTP (and TLS) stack, which costs every CLI start about
#                 1 ms. The span exporter lives in internal/traceexport,
#                 which only jsonskid imports.
#
# Usage: scripts/lint.sh   (from anywhere; it cds to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "==> gofmt -l ."
if unformatted=$(gofmt -l .); then
    if [ -n "$unformatted" ]; then
        echo "gofmt: these files need formatting (run gofmt -w):" >&2
        echo "$unformatted" >&2
        fail=1
    fi
else
    fail=1
fi

echo "==> go vet ./... (library module)"
go vet ./... || fail=1

echo "==> go vet ./... (tools/lint module)"
(cd tools/lint && go vet ./...) || fail=1

echo "==> jsonskilint ./..."
go run ./tools/lint/cmd/jsonskilint ./... || fail=1

echo "==> untraced hot path stays inlined"
for check in './internal/fastforward can inline (*FF).charge' \
             './internal/telemetry can inline (*Trace).Record'; do
    pkg=${check%% *}
    want=${check#* }
    if out=$(go build -gcflags=-m "$pkg" 2>&1); then
        if ! grep -qF "$want" <<<"$out"; then
            echo "inline gate: go build -gcflags=-m $pkg no longer prints \"$want\"" >&2
            fail=1
        fi
    else
        echo "$out" >&2
        fail=1
    fi
done

if command -v staticcheck >/dev/null 2>&1; then
    echo "==> staticcheck ./... (library module)"
    staticcheck ./... || fail=1
    echo "==> staticcheck ./... (tools/lint module)"
    (cd tools/lint && staticcheck ./...) || fail=1
else
    echo "warning: staticcheck not installed; skipping (CI installs honnef.co/go/tools/cmd/staticcheck, pinned)" >&2
fi

echo "==> shellcheck scripts/*.sh"
if command -v shellcheck >/dev/null 2>&1; then
    shellcheck scripts/*.sh || fail=1
else
    echo "warning: shellcheck not installed; skipping" >&2
fi

echo "==> net/http stays out of the library and cmd/jsonski"
if deps=$(go list -deps . ./cmd/jsonski); then
    if grep -qx 'net/http' <<<"$deps"; then
        echo "net/http is linked into the library or cmd/jsonski; only jsonskid may depend on it" >&2
        fail=1
    fi
else
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "lint: FAILED" >&2
else
    echo "lint: OK"
fi
exit "$fail"

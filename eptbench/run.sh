#!/usr/bin/env bash
# Builds the eptest binary and the benchmark from this checkout's sources,
# then runs one workload:
#
#   bash eptbench/run.sh --workload matrix-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, the two binaries, scratch stores and
# trace files. A checkout without the repository's sources fails to build,
# and the script exits non-zero before printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# With telemetry on, the go command starts a detached sidecar process
# that outlives the build. Turning it off in this private config dir
# (what `go telemetry off` writes) keeps every process the run starts
# inside the run.
mkdir -p "$build/config/go/telemetry"
printf 'off %s' "$(date -u +%Y-%m-%d)" > "$build/config/go/telemetry/mode"

go build -o "$build/eptest" ./cmd/eptest
(cd eptbench && go build -o "$build/eptbench" .)
exec "$build/eptbench" -root "$root" -eptest "$build/eptest" "$@"

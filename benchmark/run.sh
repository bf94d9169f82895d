#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout and runs it with the
# given arguments. Everything the build writes — the Go build cache
# included — stays under .bench_build at the root of the checkout.
#
#   bash benchmark/run.sh -workload erp-hit -seed 1
#   bash benchmark/run.sh -workload all -seed 1 -out benchmark/out/a.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

# The harness is a module of its own (benchmark/go.mod) that replaces the
# engine's module with the parent directory; no network, no toolchain
# download, no VCS stamping (the driver's checkout is not a repository).
# HOME, the config dir and TMPDIR point into the build directory so the go
# command's cache, telemetry counters and work files land there too.
mkdir -p "$build/home" "$build/tmp"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" \
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS=-buildvcs=false \
GOTOOLCHAIN=local GOPROXY=off \
	go -C "$root/benchmark" build -o "$build/aggbench" .

cd "$root"
exec "$build/aggbench" "$@"

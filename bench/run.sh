#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it from the repository
# root; every argument is passed to it. The build cache, the binary and the
# benchmark's scratch directories all live under .bench_build in the
# checkout, and nothing is fetched: the bench module's only dependency is
# the repository's own module, through the replace in bench/go.mod.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/mvcbench" .)
cd "$root"
exec "$out/mvcbench" "$@"

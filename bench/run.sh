#!/usr/bin/env bash
# Builds idcbench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload fig4-smooth --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced runs' spans stay under .bench_build/ in the repository root, and
# the build never touches the network. The build fails (and nothing is
# run) when the repository's Go sources are not present.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/bench" && go build -o "$out/idcbench" ./cmd/idcbench)
cd "$root"
exec "$out/idcbench" "$@"

#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload metro-day --seed 1 --seconds 15 --trace 0
#
# Run from the root of the repository. Every file the build and the run
# write stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of the cellfi repository (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOENV=off \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

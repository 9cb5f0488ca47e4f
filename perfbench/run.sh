#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# arguments given, e.g.
#   bash perfbench/run.sh --workload fig7-sweep --seed 1 --seconds 15 --trace 0
# Run it from the root of the repository. Build caches and the
# benchmark's scratch files stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/xdg"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/xdg" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"

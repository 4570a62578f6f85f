#!/usr/bin/env bash
# Builds the perfbench command from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload aaa --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write (Go build cache, temporary files, checkpoints, traces) stays
# under $CARGO_TARGET_DIR, default .bench_build, in the current
# directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/perfbench
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"

# Keep the Go tool's caches, config and telemetry inside the checkout.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	HOME=$out/home XDG_CONFIG_HOME=$out/home XDG_CACHE_HOME=$out/home \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"

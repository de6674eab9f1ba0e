#!/usr/bin/env bash
# Builds the perfbench binary from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload batch|serve|stream --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository. Every build artifact and the
# Go build cache stay inside the checkout, under $CARGO_TARGET_DIR when
# it is set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOPATH=$out/gopath
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp
mkdir -p "$GOTMPDIR"

go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"

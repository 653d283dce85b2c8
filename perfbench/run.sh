#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from and
# runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload chase --seed 5 --seconds 40 --trace 0
#
# The build cache, the binary and the traced run's span and profile
# files all stay under .bench_build/perfbench in the checkout.
set -euo pipefail
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build/perfbench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C "$src" build -o "$build/perfbench" .
exec "$build/perfbench" -out "$build" "$@"

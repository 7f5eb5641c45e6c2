#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with
# the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload matrix-cold --seed 1 --seconds 14 --trace 0
#
# Every build and run artifact (Go build cache, the perfbench binary, the
# daemons' cache and trace directories, CPU profiles) stays under
# .bench_build/ in the checkout. The build fails, and this script exits
# non-zero without printing a result, when the repository's sources are
# not next to perfbench/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --workdir "$build/tmp" "$@"

#!/usr/bin/env bash
# Builds the Converse benchmark from the checkout this script sits in
# and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload msg-sim --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root: the Go build cache, the binary and
# the benchmark's scratch state all stay under .bench_build/ there.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

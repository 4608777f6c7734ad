#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash eacbench/run.sh --workload metro-knee --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporaries, the go
# command's own config and telemetry files) stays under .bench_build/ in the
# current directory, and the toolchain never reaches for the network.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOMODCACHE="$out/go-mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/eacbench" .)
exec "$out/eacbench" "$@"

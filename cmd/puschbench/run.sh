#!/usr/bin/env bash
# Builds puschbench from source and runs it with the given flags.
# Run from the repository root:
#
#   bash cmd/puschbench/run.sh -workload slot-mempool64 -seed 1 -seconds 10 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, and the
# benchmark's traces and child-run files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/gopath" "$out/config" "$out/bin"

# The go command's config and telemetry live under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

go build -C cmd/puschbench -o "$out/bin/puschbench" .
exec "$out/bin/puschbench" "$@"

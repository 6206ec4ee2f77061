#!/usr/bin/env bash
# Builds the DarKnight benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-deep-1ms --seed 1 --seconds 16 --trace 0
#
# Everything the build writes (the binary, the Go build cache, the go
# command's own state) stays under .bench_build in the current directory.
# The build never touches the network: the benchmark needs only the
# standard library and the repository itself.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off GOSUMDB=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

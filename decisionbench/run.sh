#!/usr/bin/env bash
# Builds the decision benchmark from source and runs it with the given
# arguments, from the repository root:
#
#   bash decisionbench/run.sh --workload sim-paper --seed 1 --seconds 20 --trace 0
#
# The binary and everything the Go toolchain writes (build cache,
# temporary files, module cache, telemetry under the config directory)
# stay under .bench_build/ at the repository root. Build output goes to
# standard error, so the last line of standard output is the
# benchmark's result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/decisionbench" && go build -o "$out/decisionbench" .) >&2
exec "$out/decisionbench" "$@"

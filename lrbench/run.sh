#!/usr/bin/env bash
# Builds the LOGRES benchmark from the source tree it sits in and runs it
# from the tree's root, passing every argument through:
#
#   bash lrbench/run.sh --workload commit_oo --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the run's scratch stores all live
# under .bench_build/ at the root of the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$root/lrbench" -buildvcs=false -o "$out/bin/lrbench" .
cd "$root"
exec "$out/bin/lrbench" "$@"

#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Usage, from the repository root:
#   bash benchmark/run.sh --workload exact-dense --seed 1 --seconds 20 --trace 0
# Every build and run artifact stays under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOENV=off

bin="$out/decaynet-e2ebench"
(cd "$root/benchmark" && go build -o "$bin" .)
exec "$bin" -root "$root" -out "$out" "$@"

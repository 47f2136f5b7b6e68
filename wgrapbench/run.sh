#!/usr/bin/env bash
# Builds the benchmark from source in the checkout and runs it. Run from the
# root of the checkout:
#
#   bash wgrapbench/run.sh --workload assign-paper --seed 0 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
  GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$root/wgrapbench" && go build -trimpath -o "$out/wgrapbench" .) >&2
exec "$out/wgrapbench" --root "$root" "$@"

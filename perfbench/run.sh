#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source in this checkout and
# runs it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload registry --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench.bin" .) >&2
exec "$out/perfbench.bin" "$@"

#!/usr/bin/env bash
# Builds perfbench against the surrounding checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-sparse --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (binary, Go build cache, temporary
# files, Go's own config, traces) stays under .bench_build in the working
# directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

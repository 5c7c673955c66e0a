#!/usr/bin/env bash
# Builds the KV-store benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/kv/run.sh --workload read95-zipf --seed 1 --seconds 20 --trace 0
#   bash bench/kv/run.sh agree RUNS_A RUNS_B
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, WAL directories
# and trace output.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
(cd bench/kv && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/kvbench" .)
exec "$build/kvbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#   bash perfbench/run.sh --workload table4 --seed 1 --seconds 20 --trace 0
# Run from the root of the repository. Every file the Go toolchain writes
# (build cache, module cache, temporary files, the binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ expected)" >&2
	exit 2
fi
build="$root/.bench_build/perfbench"
mkdir -p "$build/cache" "$build/mod" "$build/tmp" "$build/home"
export GOCACHE="$build/cache" GOMODCACHE="$build/mod" GOPATH="$build/home/go"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/spans" "$@"

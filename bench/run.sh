#!/bin/sh
# Builds the benchmark from the sources of the checkout it is run in and
# executes it with the given flags. Run from the repository root:
#
#	sh bench/run.sh -workload ocean2d-nospec -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run leave behind (Go build cache, temp
# files, the binary, scratch data) stays under .bench_build in the
# repository root.
set -eu

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache"
GOTMPDIR="$build/tmp"
GOPATH="$build/gopath"
XDG_CONFIG_HOME="$build/config"
GOTOOLCHAIN=local
GOPROXY=off
GOFLAGS=
export GOCACHE GOTMPDIR GOPATH XDG_CONFIG_HOME GOTOOLCHAIN GOPROXY GOFLAGS

(cd "$root/bench" && go build -o "$build/topobench" .)
exec "$build/topobench" "$@"

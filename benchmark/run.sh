#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. A run may write only inside its checkout, so everything the
# toolchain writes goes to .bench_build/ there: the binary, the build
# cache, temp files, and (XDG_CONFIG_HOME) the counters the go command
# keeps about itself. GOENV=off and GOFLAGS= keep the user's Go settings
# out of the build; GOTOOLCHAIN=local keeps it from fetching another go.
# The program replaces this shell (exec), so one process does the work
# and receives the signals.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" TMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
	go build -o "$build/benchmark" .
)
cd "$root"
exec "$build/benchmark" "$@"

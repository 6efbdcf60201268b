#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it:
#
#   bash perfbench/run.sh --workload ingest|view|live --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache and the traced runs' spans all go under
# .bench_build at the checkout root, so nothing is read from or written to
# the user's Go caches. The benchmark imports the repository's internal
# packages through the replace directive in perfbench/go.mod; without the
# repository around it the build fails and so does this script.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"

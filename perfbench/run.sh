#!/usr/bin/env bash
# Builds the benchmark and the palladium-serve daemon it drives from the
# checkout it is run in, then runs one benchmark run. Run from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload serve-shared --seed 1 --seconds 20 --trace 0
#
# Build products, the Go build cache, temporary files, the template
# image and span dumps all stay under .bench_build/ in the checkout.
# The build fails (and the script exits non-zero, printing no result)
# when the repository's sources are not beside the perfbench directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off

cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
go build -o "$out/palladium-serve" repro/cmd/palladium-serve >&2
cd "$root"
exec "$out/perfbench" -daemon "$out/palladium-serve" -workdir "$out" "$@"

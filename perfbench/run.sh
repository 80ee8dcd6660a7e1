#!/usr/bin/env bash
# Builds the benchmark and the shipped disasm/disasmd binaries from the
# sources of the checkout it is started in, then runs one workload.
# Everything the build and the run write stays under .bench_build/.
#
# Run from the repository root:
#
#	bash perfbench/run.sh --workload real-batch --seed 1 --seconds 20 --trace 0
#	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --steady 10
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/" ./cmd/disasm ./cmd/disasmd >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"

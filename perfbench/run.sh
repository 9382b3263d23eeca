#!/usr/bin/env bash
# Builds the benchmark and the smtserved binary it drives from the source
# tree this script sits in, then runs the benchmark with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# current directory: the Go build cache, temporary files, binaries and the
# workloads' stores.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's settings and telemetry
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# Fall back to the Go toolchain's default install location when go is not on
# PATH.
command -v go >/dev/null 2>&1 || export PATH="/usr/local/go/bin:$PATH"

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/smtserved" ./cmd/smtserved >&2

exec "$out/bin/perfbench" -smtserved "$out/bin/smtserved" -work "$out/work" "$@"

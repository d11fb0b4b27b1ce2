#!/usr/bin/env bash
# Builds the broadcast benchmark from the source tree it sits in and runs
# one workload. Run it from the repository root:
#
#   bash bcastperf/run.sh --workload lmsg --seed 1 --seconds 10 --trace 0
#
# Every file it writes (Go build cache, binary, span dumps) stays under
# .bench_build/ in the current directory. Outside a full source tree the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bcastperf" && go build -o "$out/bcastperf" .)
exec "$out/bcastperf" --spans-dir "$out" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#
#   bash perfbench/run.sh --workload dense-resnet152 --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and the traced run's span files all stay under the build
# directory ($CARGO_TARGET_DIR, else .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOTMPDIR=$build GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --out "$build/perfbench-spans" "$@"

#!/usr/bin/env bash
# Builds mstxbench from source and runs it against this checkout:
#
#   bash mstxbench/run.sh --workload cold-mix --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache, the go command's own config and
# telemetry files, and scratch files all stay under .bench_build/ in
# the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$root/.bench_build/gocache" XDG_CONFIG_HOME="$root/.bench_build/config"
go build -C "$root/mstxbench" -o "$root/.bench_build/mstxbench" .
exec "$root/.bench_build/mstxbench" --root "$root" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 25 --trace 0
#
# Run it from the root of a checkout. The build cache, the binary, and
# everything a run writes (temporary data dirs, span files) stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/tmp" "${out}/bin"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/tmp" TMPDIR="${out}/tmp"
export GOPATH="${out}/gopath" GOMODCACHE="${out}/gopath/pkg/mod" XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off
(cd "${root}/perfbench" && go build -o "${out}/bin/perfbench" .) >&2
cd "${root}"
exec "${out}/bin/perfbench" "$@"

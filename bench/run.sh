#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build cache and the binary stay inside the checkout (.bench_build/),
# so the benchmark writes nowhere else. bench/ is a Go module of its own
# that imports the repository's packages through a replace directive; in a
# directory without the repository the build fails and nothing is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
XDG_CONFIG_HOME="$build/config" go build -C "$here" -o "$build/bench" . >&2
cd "$root"
exec "$build/bench" -dir "$(basename "$here")" "$@"

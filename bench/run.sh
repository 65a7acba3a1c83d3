#!/usr/bin/env bash
# Entry point of the benchmark (see BENCHMARK.json): builds the daemons
# and the bench program from the checkout it is run in, then runs the
# bench with the arguments given. Everything it writes — Go's build
# cache included — goes under .bench_build in that checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off
export TMPDIR="$out/tmp"

# The daemons come from the module the bench sits in; without it (a
# directory that holds only the benchmark) the build fails and so does
# the run.
(cd "$here/.." && go build -o "$out/bin/" ./cmd/storaged ./cmd/gatewayd) >&2
(cd "$here" && go build -o "$out/bin/ecbench" .) >&2

exec "$out/bin/ecbench" -bin "$out/bin" -work "$out/tmp" -spec "$here/../BENCHMARK.json" "$@"

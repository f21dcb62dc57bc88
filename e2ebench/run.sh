#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it from the checkout root:
#
#   bash e2ebench/run.sh --workload edge-serve --seed 1 --seconds 25 --trace 0
#
# Build output, the Go build cache and every file a run writes stay
# under .bench_build/ in the checkout. The build needs the contexp
# module one directory up (e2ebench/go.mod replaces it with ../), so in
# a directory holding only the benchmark it fails and the script exits
# non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command's user configuration (go env file, telemetry counters)
# lives under the user config directory; point it into the checkout.
(cd "$root/e2ebench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" "$@"

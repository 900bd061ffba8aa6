#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Everything the build leaves behind (binary,
# Go build cache) stays under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"
commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	go build -C "$here" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/isi-bench" . >&2
exec "$out/isi-bench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload small-chan --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build products, the Go build cache and the
# span files stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout; HOME points there too so the toolchain writes nothing outside.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the root of a full checkout (library sources not found)" >&2
	exit 2
fi
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"

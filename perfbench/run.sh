#!/usr/bin/env bash
# Builds the benchmark and propserve from the checkout's sources, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
fi
export PERFBENCH_COMMIT="${PERFBENCH_COMMIT:-unknown}"
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/bin/perfbench" . \
	&& go build -buildvcs=false -o "$out/bin/propserve" prop/cmd/propserve) >&2
exec "$out/bin/perfbench" --propserve "$out/bin/propserve" --work "$out/perfbench" "$@"

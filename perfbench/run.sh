#!/usr/bin/env bash
# Builds gridstratd, gridstratrouter and the perfbench program from this
# checkout, then runs the program with the given arguments. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload plan-options --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gridstratd || ! -d cmd/gridstratrouter ]]; then
	echo "perfbench: run from the root of a gridstrat checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/work" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/" ./cmd/gridstratd ./cmd/gridstratrouter
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"

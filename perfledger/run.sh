#!/usr/bin/env bash
# Builds the performance ledger and the daemons it drives from source, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfledger/run.sh --workload paper-hybrid --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the last report and trace go to
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfledger/go.mod" ]; then
	echo "perfledger/run.sh: run from the repository root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin"

export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd perfledger && go build -o "$build/bin/" . sufsat/cmd/sufserved sufsat/cmd/sufrouter) >&2

exec "$build/bin/perfledger" -out "$build/report.json" -trace-out "$build/trace.json" "$@"

#!/usr/bin/env bash
# Entry point of the repository's benchmark (BENCHMARK.json: "command").
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh -selfcheck [-workload <name>]
#   bash benchmark/run.sh -unit            # the harness's unit tests only
#
# It builds moved, the harness and the harness's unit tests once into
# benchmark/.build/, runs the unit tests (the nested module is invisible to
# the root `go test ./...`), then hands over to the harness. Everything the
# toolchain writes — caches, temp files, its config directory — stays
# inside benchmark/.build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/.build"

# Refuse before starting any tool when this is not a checkout of the program.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/moved" ]]; then
	echo "benchmark/run.sh: $root holds no go.mod and cmd/moved: nothing to measure" >&2
	exit 1
fi

mkdir -p "$build/tmp" "$build/config/go/telemetry" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV="$build/config/go/env"
export GOFLAGS="-buildvcs=false -mod=mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# In the default "local" telemetry mode `go` leaves a detached child behind;
# switch it off before the first go command runs.
echo off >"$build/config/go/telemetry/mode"

# A harness that was killed outright cannot remove its scratch directory.
find "$build" -maxdepth 1 -name 'run-*' -mmin +10 -exec rm -rf {} + 2>/dev/null || true

child=
trap 'if [[ -n "$child" ]]; then kill -TERM "$child" 2>/dev/null || true; wait "$child" 2>/dev/null || true; fi; exit 130' INT TERM

# run <cmd...>: run a tool so that a signal to this script reaches it.
run() {
	"$@" &
	child=$!
	local rc=0
	wait "$child" || rc=$?
	child=
	return "$rc"
}

# Build once: again only when a source file is newer than the last build.
stamp="$build/.stamp"
stale=1
if [[ -x "$build/moved" && -x "$build/harness" && -x "$build/harness.test" && -f "$stamp" ]]; then
	if [[ -z "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$stamp" -print -quit)" ]]; then
		stale=0
	fi
fi
if ((stale)); then
	echo "# building moved, the harness and its unit tests into benchmark/.build/" >&2
	cd "$root"
	run go build -o "$build/moved" ./cmd/moved
	cd "$here"
	run go build -o "$build/harness" .
	run go vet .
	run go test -c -o "$build/harness.test" .
	# The full unit tests once per build ...
	run "$build/harness.test" -test.timeout 300s >"$build/unit.log" 2>&1 || {
		cat "$build/unit.log" >&2
		echo "benchmark/run.sh: harness unit tests failed; not measuring" >&2
		exit 1
	}
	touch "$stamp"
fi

# ... and their short form before every measurement: a broken oracle or
# generator must not produce a number.
cd "$here"
short=-test.short
if [[ "${1:-}" == "-unit" || "${1:-}" == "--unit" ]]; then
	short=-test.v
fi
run "$build/harness.test" "$short" -test.timeout 300s >"$build/unit.log" 2>&1 || {
	cat "$build/unit.log" >&2
	echo "benchmark/run.sh: harness unit tests failed; not measuring" >&2
	exit 1
}
if [[ "${1:-}" == "-unit" || "${1:-}" == "--unit" ]]; then
	cat "$build/unit.log"
	exit 0
fi

cd "$root"
exec "$build/harness" -moved "$build/moved" "$@"

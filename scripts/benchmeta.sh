#!/bin/sh
# benchmeta.sh TARGET — emit one JSON metadata line for a BENCH_*.json
# record: which benchmark target produced it, from what commit, on what
# hardware, and when. Makefile bench targets append this line so every
# recorded trajectory is reproducible ("what machine was this?") without
# guessing from git history.
#
# The line rides along in the test2json stream as a foreign object;
# consumers filtering on .Action ignore it, and jq 'select(.benchmeta)'
# pulls it back out.
set -eu

target=${1:-unknown}

sha=$(git -C "$(dirname "$0")/.." rev-parse --short HEAD 2>/dev/null || echo unknown)
dirty=$(git -C "$(dirname "$0")/.." status --porcelain 2>/dev/null | head -1)
if [ -n "$dirty" ]; then
	sha="$sha-dirty"
fi

cpu=$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)
if [ -z "${cpu}" ]; then
	cpu=$(uname -m)
fi

procs=${GOMAXPROCS:-$(nproc 2>/dev/null || echo unknown)}
date=$(date -u +%Y-%m-%dT%H:%M:%SZ)
goversion=$(go version 2>/dev/null | awk '{print $3}' || echo unknown)

# Kernel version and fast-path capabilities: syscalls-per-datagram numbers
# depend on whether this kernel offers sendmmsg and UDP GSO (UDP_SEGMENT,
# >= 4.18) on the way out, recvmmsg and UDP GRO on the way in, so the stamp
# keeps records from different kernels from being compared silently. The
# probe is the same one the hub and the shared receiver run at creation
# (skychaos -egress-caps: "vectorized= gso= recvmmsg= gro="); if the probe
# binary cannot run, the caps are recorded as unknown rather than guessed.
kernel=$(uname -sr 2>/dev/null || echo unknown)
caps=$(cd "$(dirname "$0")/.." && go run ./cmd/skychaos -egress-caps 2>/dev/null || echo unknown)

printf '{"benchmeta":{"target":"%s","commit":"%s","cpu":"%s","gomaxprocs":"%s","go":"%s","kernel":"%s","egresscaps":"%s","date":"%s"}}\n' \
	"$target" "$sha" "$cpu" "$procs" "$goversion" "$kernel" "$caps" "$date"

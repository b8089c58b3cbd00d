#!/bin/sh
# bench-allocs.sh — fail when the request path allocates more than it did.
#
# Builds ./bench, runs `bench -quick -workload mlp_rpc` (stock MLP, one row
# per request over HTTP loopback: the request path itself, client included)
# and fails when its allocs_per_req exceeds its ceiling. The figure repeats to
# a few hundredths run to run (quick runs read 85.0 on Go 1.24, 101 while
# the handler derived a deadline context and the client made its body loan
# per request), so the ceiling is that count + 2. A new Go release may move
# net/http's share of it.
#
#   sh scripts/bench-allocs.sh        (or: make bench-allocs)
set -eu

GO=${GO:-go}
ceiling=87
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$GO build -o "$tmp/bench" ./bench
if ! timeout 300 "$tmp/bench" -quick -workload mlp_rpc >"$tmp/out" 2>"$tmp/err"; then
	cat "$tmp/err" >&2
	echo "bench-allocs: the benchmark failed" >&2
	exit 1
fi
allocs=$(sed -n 's/.*"allocs_per_req":{"value":\([0-9.eE+-]*\).*/\1/p' "$tmp/out")
if [ -z "$allocs" ]; then
	echo "bench-allocs: no allocs_per_req in the benchmark's output:" >&2
	cat "$tmp/out" >&2
	exit 1
fi
if awk -v a="$allocs" -v c="$ceiling" 'BEGIN { exit !(a > c) }'; then
	echo "bench-allocs: mlp_rpc allocs_per_req $allocs exceeds $ceiling" >&2
	exit 1
fi
echo "bench-allocs: PASS (mlp_rpc allocs_per_req $allocs <= $ceiling)"

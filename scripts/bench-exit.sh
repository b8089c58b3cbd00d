#!/bin/sh
# bench-exit.sh — fail when a benchmark run leaves a process behind.
#
# Builds ./bench, runs `bench -quick -workload lenet5_batch` as the leader of
# a process group of its own, and once it has exited fails if any process of
# that group is still alive, naming each; what is left is killed, so the
# check leaves nothing running either way. A non-zero exit of the benchmark
# itself (a failed correctness gate, or a run cut off after 300 s) fails the
# check too.
#
#   sh scripts/bench-exit.sh        (or: make bench-exit)
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$GO build -o "$tmp/bench" ./bench

# a background child of this shell leads no process group, so setsid makes
# it the leader of a new one without forking: the group's id is its pid, and
# timeout and the benchmark under it share that group
setsid timeout 300 "$tmp/bench" -quick -workload lenet5_batch >"$tmp/out" 2>"$tmp/err" &
pgid=$!
rc=0
wait "$pgid" || rc=$?

if kill -0 -"$pgid" 2>/dev/null; then
	echo "bench-exit: processes outlived the benchmark run (process group $pgid):" >&2
	pgrep -a -g "$pgid" >&2 || true
	kill -KILL -"$pgid" 2>/dev/null || true
	exit 1
fi
if [ "$rc" -ne 0 ]; then
	cat "$tmp/err" >&2
	echo "bench-exit: the benchmark exited $rc" >&2
	exit 1
fi
echo "bench-exit: PASS ($(grep -o '"correct":[a-z]*' "$tmp/out"), no process outlived the run)"

#!/bin/sh
# bench-gate.sh — the benchmark's CI gate: one quick run of every workload.
#
# Builds ./bench once and runs `bench -quick` (every workload, end-to-end and
# traced, one JSON document) as the leader of a process group of its own,
# cut off after 300 s. The gate fails when
#   - the benchmark exits non-zero (a failed correctness gate, or the cut),
#   - any process of its group is still alive once it has exited (a process
#     left behind keeps loading the host under whatever is measured next;
#     each one is named, then killed, so the gate leaves nothing running),
#   - any workload reports "correct":false, or
#   - mlp_rpc's allocs_per_req exceeds its ceiling. mlp_rpc is one row per
#     request over HTTP loopback, the request path itself with the client;
#     its allocations may only fall. The figure repeats to a few hundredths
#     run to run (quick runs read 85.0 on Go 1.24, 101 while the handler
#     derived a deadline context and the client made its body loan per
#     request), so the ceiling is that count + 2. A new Go release may move
#     net/http's share of it.
#
#   sh scripts/bench-gate.sh        (or: make bench-gate)
set -eu

GO=${GO:-go}
ceiling=87
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

die() {
	echo "bench-gate: $*" >&2
	exit 1
}

$GO build -o "$tmp/bench" ./bench

# a background child of this shell leads no process group, so setsid makes
# it the leader of a new one without forking: the group's id is its pid, and
# timeout and the benchmark under it share that group
setsid timeout 300 "$tmp/bench" -quick >"$tmp/out" 2>"$tmp/err" &
pgid=$!
rc=0
wait "$pgid" || rc=$?

if kill -0 -"$pgid" 2>/dev/null; then
	echo "bench-gate: processes outlived the benchmark run (process group $pgid):" >&2
	pgrep -a -g "$pgid" >&2 || true
	kill -KILL -"$pgid" 2>/dev/null || true
	exit 1
fi
if [ "$rc" -ne 0 ]; then
	cat "$tmp/err" >&2
	die "the benchmark exited $rc"
fi

# the document is the last line of standard output; one workload per line
tail -n 1 "$tmp/out" | sed 's/{"name":"/\n&/g' | grep '^{"name":"' >"$tmp/workloads" ||
	die "no workload in the benchmark's output"
if grep -q '"correct":false' "$tmp/workloads"; then
	grep '"correct":false' "$tmp/workloads" | cut -d'"' -f4 | sed 's/^/bench-gate: incorrect: /' >&2
	exit 1
fi
allocs=$(sed -n 's/^{"name":"mlp_rpc".*"allocs_per_req":{"value":\([0-9.eE+-]*\).*/\1/p' "$tmp/workloads")
[ -n "$allocs" ] || die "no allocs_per_req for mlp_rpc in the benchmark's output"
if awk -v a="$allocs" -v c="$ceiling" 'BEGIN { exit !(a > c) }'; then
	die "mlp_rpc allocs_per_req $allocs exceeds $ceiling"
fi
echo "bench-gate: PASS ($(wc -l <"$tmp/workloads") workloads correct, no process outlived the run, mlp_rpc allocs_per_req $allocs <= $ceiling)"

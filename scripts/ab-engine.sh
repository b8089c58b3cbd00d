#!/bin/sh
# ab-engine.sh — A/B the f64 engine row between a git revision and the
# working tree.
#
#   scripts/ab-engine.sh <rev> [pairs] [benchtime]
#   make ab-engine REV=<rev> [PAIRS=8] [BENCHTIME=0.5s]
#
# Builds internal/engine's test binary twice — from <rev>, exported with
# `git archive` into a directory under $TMPDIR, and from the working tree —
# then times every BenchmarkEngineRow sub-benchmark on the two binaries
# back to back, one core each, <pairs> times (default 8), the side that runs
# first alternating from pair to pair. A shared host drifts in speed for
# minutes at a time, so one run of each says little; adjacent short runs of
# two prebuilt binaries put both sides of a pair under the same drift. For
# every sub-benchmark it prints each pair's µs/row ratio old/new (> 1: the
# working tree is faster), the median ratio and each side's fastest run,
# plus the tile each binary ran on.
set -eu

if [ $# -lt 1 ]; then
	echo "usage: $0 <rev> [pairs] [benchtime]" >&2
	exit 2
fi
rev=$1
pairs=${2:-8}
benchtime=${3:-0.5s}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab-engine.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

mkdir "$tmp/old"
git -C "$root" archive "$rev" | tar -x -C "$tmp/old"
(cd "$tmp/old" && go test -c -o "$tmp/old.test" ./internal/engine)
(cd "$root" && go test -c -o "$tmp/new.test" ./internal/engine)

# bench <side> <pattern> <benchtime>: run the side's binary in its own
# package directory, as go test would, printing its output
bench() {
	if [ "$1" = old ]; then dir=$tmp/old; else dir=$root; fi
	(cd "$dir/internal/engine" && "$tmp/$1.test" -test.run '^$' -test.bench "$2" \
		-test.cpu 1 -test.benchtime "$3" -test.benchmem)
}

# one short pass names the sub-benchmarks and the tile each side runs
for side in old new; do
	bench "$side" EngineRow 1x >"$tmp/$side.warm"
	grep -m1 -o 'conv kernel: [a-z0-9]* tile' "$tmp/$side.warm" >"$tmp/$side.kernel" || true
done
names=$(awk '/^BenchmarkEngineRow\// { sub(/^BenchmarkEngineRow\//, "", $1); print $1 }' "$tmp/new.warm")

: >"$tmp/runs"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then order="old new"; else order="new old"; fi
	for name in $names; do
		for side in $order; do
			bench "$side" "^BenchmarkEngineRow\$/^${name%/*}\$/^${name#*/}\$" "$benchtime" |
				awk -v side="$side" -v pair="$i" -v name="$name" '
					/^BenchmarkEngineRow/ { for (f = 2; f < NF; f++) if ($(f+1) == "us/row") print side, pair, name, $f }
				' >>"$tmp/runs"
		done
	done
	echo "pair $i/$pairs done" >&2
	i=$((i + 1))
done

echo "old ($rev): $(cat "$tmp/old.kernel")"
echo "new (working tree): $(cat "$tmp/new.kernel")"
# per sub-benchmark, the old/new ratios in pair order, their median, and
# the ratio of each side's fastest run (contention only ever adds time, so
# the minima are the least disturbed reading of each side)
awk '
	NR == FNR {
		if (!(($1, $3) in best) || $4 < best[$1, $3]) best[$1, $3] = $4
		if ($1 == "old") old[$2 " " $3] = $4
		next
	}
	$1 == "new" && ($2 " " $3) in old {
		r = old[$2 " " $3] / $4
		if (!($3 in n)) order[++nb] = $3
		ratios[$3, ++n[$3]] = r
		line[$3] = line[$3] sprintf(" %.3f", r)
	}
	END {
		for (b = 1; b <= nb; b++) {
			name = order[b]; k = n[name]
			for (i = 1; i <= k; i++) s[i] = ratios[name, i]
			for (i = 2; i <= k; i++) { v = s[i]; for (j = i - 1; j >= 1 && s[j] > v; j--) s[j+1] = s[j]; s[j+1] = v }
			med = (k % 2) ? s[(k + 1) / 2] : (s[k / 2] + s[k / 2 + 1]) / 2
			printf "%-20s old/new%s   median %.3f   fastest %.1f → %.1f us/row (%.3f)\n", name, line[name], med,
				best["old", name], best["new", name], best["old", name] / best["new", name]
		}
	}
' "$tmp/runs" "$tmp/runs"

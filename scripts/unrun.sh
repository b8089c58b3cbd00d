#!/bin/sh
# unrun.sh — fail on any statement under internal/ that neither go test nor
# the runs of make check and make repro-check execute, unless
# scripts/unrun.allow names its function with at least that many.
#
# Builds the main packages those runs use with -cover over every package of
# the module, runs them under one GOCOVERDIR (the five soak smokes, -cost,
# the quickstart, bench -quick, the power-of-ten generator and the
# reproduction), runs go test ./... with the same -coverpkg, and merges the
# two profiles block by block: a block is run when either side counted it.
# Every unrun block is booked to the function whose source lines hold it
# (closures go with the function that holds them), and the script prints
# each such function with its count of unrun statements, then the totals.
#
# The allowlist holds one function per line as this script prints it, then
# the number of unrun statements it may keep, then a "# reason"; blank lines
# and lines that start with # are ignored. The script exits non-zero,
# naming the offender, when
#   - a function with unrun statements is not on the allowlist,
#   - a listed function has more unrun statements than its entry allows,
#   - a listed function runs every statement or is no longer defined
#     (stale),
#   - an entry has no "# reason", or
#   - a build, a run or go test fails (its output is printed).
# A listed function that has fewer unrun statements than its entry allows
# is noted on stderr, and passes.
#
#   sh scripts/unrun.sh        (or: make unrun)
set -eu
export LC_ALL=C

GO=${GO:-go}
allow=scripts/unrun.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

die() {
	echo "unrun: $*" >&2
	exit 1
}

# the allowlist: every entry carries a count and a reason
[ -r "$allow" ] || die "cannot read $allow"
awk '
	/^[ \t]*(#|$)/ { next }
	{
		if (index($0, "#") == 0) { print "unrun: " FILENAME ":" NR ": entry without a # reason: " $0 > "/dev/stderr"; bad = 1 }
		if ($2 !~ /^[0-9]+$/) { print "unrun: " FILENAME ":" NR ": entry without a count: " $0 > "/dev/stderr"; bad = 1 }
		print $1, $2
	}
	END { exit bad }' "$allow" >"$tmp/allow.raw" || exit 1
sort -u "$tmp/allow.raw" >"$tmp/allow"

mkdir "$tmp/bin" "$tmp/cov"
if ! $GO build -cover -coverpkg=reramtest/... -o "$tmp/bin/" \
	./cmd/monitor ./cmd/experiment ./examples/quickstart ./bench ./internal/wire/pow10gen 2>"$tmp/build"; then
	cat "$tmp/build" >&2
	die "go build -cover of the binaries failed"
fi

# run NAME ARGS...: one run of a built binary; its output is kept only to
# print it when the run fails
run() {
	name=$1
	shift
	echo "unrun: running $name $*" >&2
	GOCOVERDIR="$tmp/cov" "$tmp/bin/$name" "$@" >"$tmp/out" 2>&1 || {
		rc=$?
		tail -n 40 "$tmp/out" >&2
		die "$name${*:+ $*} exited $rc"
	}
}
run monitor -soak campaign -campaigns 6
run monitor -soak fleet -campaigns 3
run monitor -soak net -campaigns 2
run monitor -soak crash -campaigns 2 -devices 2
run monitor -soak lifetime -seed 5 -campaigns 3
run monitor -cost
run quickstart
run bench -quick
run pow10gen -o "$tmp/pow10tab.go"
run experiment -id all
run experiment -id ablations

echo "unrun: running go test -coverpkg=reramtest/... ./..." >&2
if ! $GO test -count=1 -coverpkg=reramtest/... -coverprofile="$tmp/test.out" ./... >"$tmp/out" 2>&1; then
	grep -v -e '^ok ' -e '^?' -e 'coverage:' "$tmp/out" | tail -n 60 >&2
	die "go test ./... failed"
fi
$GO tool covdata textfmt -i="$tmp/cov" -o "$tmp/bin.out" ||
	die "go tool covdata textfmt failed"

# one line per block under internal/: file, start line, statements, and
# whether any run counted it
awk '
	FNR == 1 || $1 !~ /^reramtest\/internal\// { next }
	{
		if (!($1 in stmts)) { stmts[$1] = $2; hit[$1] = 0 }
		if ($3 > 0) hit[$1] = 1
	}
	END {
		for (b in stmts) {
			split(b, p, ":"); split(p[2], q, ".")
			f = p[1]; sub(/^reramtest\//, "", f)
			print f, q[1], stmts[b], hit[b]
		}
	}' "$tmp/test.out" "$tmp/bin.out" | sort >"$tmp/blocks"

# the extent of every top-level function (gofmt puts its closing brace in
# column 1), named as make unreached names it
find internal -name '*.go' ! -name '*_test.go' -exec awk '
	/^func / {
		s = $0; sub(/^func /, "", s)
		if (s ~ /^\(/) {
			r = s; sub(/\).*/, "", r); sub(/^\(/, "", r); sub(/\[.*/, "", r)
			n = split(r, w, " "); t = w[n]
			if (t ~ /^\*/) t = "(" t ")"
			m = s; sub(/^\([^)]*\) */, "", m); sub(/[(\[].*/, "", m)
			name = t "." m
		} else {
			name = s; sub(/[(\[].*/, "", name)
		}
		dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
		name = dir "." name; start = FNR
		if ($0 ~ /}$/) print FILENAME, start, FNR, name
		else open = 1
		next
	}
	open && /^}/ { print FILENAME, start, FNR, name; open = 0 }' {} + >"$tmp/funcs"

# unrun statements per function, and the totals
awk -v funcs="$tmp/funcs" -v totals="$tmp/totals" '
	BEGIN {
		while ((getline l < funcs) > 0) {
			split(l, w, " "); n[w[1]]++
			lo[w[1], n[w[1]]] = w[2]; hi[w[1], n[w[1]]] = w[3]; fn[w[1], n[w[1]]] = w[4]
		}
	}
	{
		all += $3
		if ($4 || $3 == 0) next
		unrun += $3; name = $1 ":" $2
		for (i = 1; i <= n[$1]; i++)
			if (lo[$1, i] <= $2 && $2 <= hi[$1, i]) { name = fn[$1, i]; break }
		cnt[name] += $3
	}
	END {
		for (f in cnt) print f, cnt[f]
		printf "%d %d\n", unrun, all > totals
	}' "$tmp/blocks" | sort >"$tmp/unrun"
cat "$tmp/unrun"
read -r unrun all <"$tmp/totals"
echo "unrun: $unrun of $all statements under internal/ ($(awk -v u="$unrun" -v a="$all" 'BEGIN { printf "%.1f", 100 * u / a }') %) in $(wc -l <"$tmp/unrun") functions, $(wc -l <"$tmp/allow") allowlisted"

cut -d' ' -f4 "$tmp/funcs" | sort -u >"$tmp/defined"
awk -v allowf="$tmp/allow" -v defined="$tmp/defined" -v file="$allow" '
	BEGIN {
		while ((getline l < allowf) > 0) { split(l, a, " "); max[a[1]] = a[2] }
		while ((getline l < defined) > 0) def[l] = 1
	}
	{
		got[$1] = $2
		if (!($1 in max)) { print "unrun: " $1 " has " $2 " unrun statements and is not in " file; bad = 1 }
		else if ($2 > max[$1]) { print "unrun: " $1 " has " $2 " unrun statements, " file " allows " max[$1]; bad = 1 }
		else if ($2 < max[$1]) print "unrun: note: " $1 " has " $2 " unrun statements, " file " allows " max[$1]
	}
	END {
		for (f in max) {
			if (f in got) continue
			if (f in def) print "unrun: stale entry in " file ": " f " runs every statement"
			else print "unrun: stale entry in " file ": " f " is no longer defined"
			bad = 1
		}
		exit bad
	}' "$tmp/unrun" >&2

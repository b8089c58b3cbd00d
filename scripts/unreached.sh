#!/bin/sh
# unreached.sh — fail on any function under internal/ that no binary links
# unless scripts/unreached.allow names it.
#
# Builds each main package with inlining off (so a call the compiler would
# inline still shows as a linker edge) and the linker's -dumpdep dependency
# dump, collects every symbol the linker kept, and compares the text symbols
# of the internal/ packages that are not among them with the allowlist.
# Closures and compiler-made wrappers are left out: they go with the
# function that holds them.
#
# The allowlist holds one name per line as this script prints it, each with
# a "# reason"; blank lines and lines that start with # are ignored. The
# script prints every unreached name, then the count, and exits non-zero,
# naming the offender, when
#   - an unreached name is not on the allowlist,
#   - a listed name is linked by a binary or no longer defined (stale), or
#   - the build, go list or go tool nm fails (its error is printed).
#
#   sh scripts/unreached.sh        (or: make unreached)
set -eu
export LC_ALL=C

GO=${GO:-go}
allow=scripts/unreached.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

die() {
	echo "unreached: $*" >&2
	exit 1
}

# the allowlist: every entry carries a reason
[ -r "$allow" ] || die "cannot read $allow"
awk '
	/^[ \t]*(#|$)/ { next }
	{
		if (index($0, "#") == 0) { print "unreached: " FILENAME ":" NR ": entry without a # reason: " $0 > "/dev/stderr"; bad = 1 }
		print $1
	}
	END { exit bad }' "$allow" >"$tmp/allow.raw" || exit 1
sort -u "$tmp/allow.raw" >"$tmp/allow"

mains=$($GO list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...) ||
	die "go list of the main packages failed"
# the linker writes its dependency dump to stderr, interleaved with any
# compile or link error; on failure print everything that is not an edge
# shellcheck disable=SC2086
if ! $GO build -gcflags=all=-l -ldflags=-dumpdep -o "$tmp/" $mains 2>"$tmp/deps"; then
	grep -v -e ' -> ' -e '^# ' "$tmp/deps" >&2 || true
	die "go build of the main packages failed"
fi

# every symbol named on either side of a dependency edge is live
awk '/ -> / {
	sub(/ <[^>]*>/, "")
	n = split($0, side, / -> /)
	for (i = 1; i <= n; i++) print side[i]
}' "$tmp/deps" | sort -u >"$tmp/live"

# every function the internal/ packages define; a package that fails to
# compile has no export data and must not drop out of the list silently
: >"$tmp/nm"
$GO list -export -gcflags=all=-l -f '{{.ImportPath}} {{.Export}}' ./internal/... >"$tmp/archives" ||
	die "go list -export of ./internal/... failed"
while read -r pkg a; do
	[ -n "$a" ] || die "no export data for $pkg"
	$GO tool nm "$a" >>"$tmp/nm" || die "go tool nm failed on $pkg"
done <"$tmp/archives"
awk '{
	# an archive with assembly prefixes each line with its object name
	i = index($0, " T reramtest/internal/")
	if (i == 0) next
	name = substr($0, i + 3)
	if (name ~ /\.(func|gowrap|deferwrap)[0-9]/ || name ~ /\.init(\.|$)/) next
	print name
}' "$tmp/nm" | sort -u >"$tmp/defined"

# the interface types the internal/ packages declare: the compiler emits a
# method-expression wrapper for each of their methods
find internal -name '*.go' ! -name '*_test.go' -exec awk '
	/^type [A-Za-z0-9_]+ interface/ {
		dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
		print "reramtest/" dir "." $2 "."
	}' {} + | sort -u >"$tmp/ifaces"

# what the source declares: not an interface's method wrapper, not a name
# with the compiler's · in it, and not the (*T).M wrapper of a value method T.M
awk -v ifaces="$tmp/ifaces" '
	BEGIN { while ((getline l < ifaces) > 0) iface[l] = 1 }
	{ name[NR] = $0; have[$0] = 1 }
	END {
		for (i = 1; i <= NR; i++) {
			s = name[i]
			if (index(s, "·")) continue
			if (match(s, /^[^(]*\.\(\*[^)]*\)\./)) {
				v = substr(s, 1, RSTART + RLENGTH - 1)
				sub(/\.\(\*/, ".", v); sub(/\)\.$/, ".", v)
				if ((v substr(s, RSTART + RLENGTH)) in have) continue
			}
			t = s; sub(/[^.]*$/, "", t)
			if (!(t in iface)) print s
		}
	}' "$tmp/defined" | sed 's|^reramtest/||' | sort -u >"$tmp/all"
sed 's|^reramtest/||' "$tmp/live" | sort -u >"$tmp/linked"

comm -23 "$tmp/all" "$tmp/linked" >"$tmp/unreached"
cat "$tmp/unreached"
echo "unreached: $(wc -l <"$tmp/unreached") functions, $(wc -l <"$tmp/allow") allowlisted"

comm -23 "$tmp/unreached" "$tmp/allow" >"$tmp/unlisted"
comm -13 "$tmp/unreached" "$tmp/allow" >"$tmp/stale"
while read -r n; do
	echo "unreached: $n is linked by no binary and not in $allow" >&2
done <"$tmp/unlisted"
while read -r n; do
	if grep -qxF "$n" "$tmp/all"; then
		echo "unreached: stale entry in $allow: $n is now linked" >&2
	else
		echo "unreached: stale entry in $allow: $n is no longer defined" >&2
	fi
done <"$tmp/stale"
[ ! -s "$tmp/unlisted" ] && [ ! -s "$tmp/stale" ]

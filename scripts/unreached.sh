#!/bin/sh
# unreached.sh — list every function under internal/ that no binary links.
#
# Builds each main package with inlining off (so a call the compiler would
# inline still shows as a linker edge) and the linker's -dumpdep dependency
# dump, collects every symbol the linker kept, and prints the text symbols
# of the internal/ packages that are not among them, one per line, then
# their count. Closures and compiler-made wrappers are left out: they go
# with the function that holds them. A name on the list is reached only
# from tests (or from nothing). This is a report, not a gate.
#
#   sh scripts/unreached.sh        (or: make unreached)
set -eu
export LC_ALL=C

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mains=$($GO list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
# shellcheck disable=SC2086
$GO build -gcflags=all=-l -ldflags=-dumpdep -o "$tmp/" $mains 2>"$tmp/deps"

# every symbol named on either side of a dependency edge is live
awk '/ -> / {
	sub(/ <[^>]*>/, "")
	n = split($0, side, / -> /)
	for (i = 1; i <= n; i++) print side[i]
}' "$tmp/deps" | sort -u >"$tmp/live"

# every function the internal/ packages define
$GO list -export -gcflags=all=-l -f '{{.Export}}' ./internal/... |
	while read -r a; do $GO tool nm "$a"; done |
	awk '{
		# an archive with assembly prefixes each line with its object name
		i = index($0, " T reramtest/internal/")
		if (i == 0) next
		name = substr($0, i + 3)
		if (name ~ /\.(func|gowrap|deferwrap)[0-9]/ || name ~ /\.init(\.|$)/) next
		print name
	}' |
	sort -u >"$tmp/defined"

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
	}' "$tmp/defined" >"$tmp/all"

comm -23 "$tmp/all" "$tmp/live" | sed 's|^reramtest/||'
echo "unreached: $(comm -23 "$tmp/all" "$tmp/live" | wc -l) functions"

#!/bin/sh
# soak-sweep: run the deterministic soaks over a block of seeds not used in
# development (5000 onward) and print, for each run, its command line, its
# stdout, its stderr and its exit status. `make soak-sweep` diffs the output
# against the committed testdata/soak_sweep.txt, so a change that moves any
# seed's verdict or any printed number shows up as a diff. A soak that exits 1
# on a failing seed is part of the record, not a failure of the sweep.
#
# The net soak is left out: its counts depend on goroutine timing.
#
# Rewrite the record (only when a verdict moves on purpose):
#   sh scripts/soak-sweep.sh > testdata/soak_sweep.txt
set -u
GO=${GO:-go}
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
$GO build -o "$tmp/monitor" ./cmd/monitor || exit 2
for args in \
	"-soak campaign -seed 5000 -campaigns 100" \
	"-soak fleet -seed 5000 -campaigns 100" \
	"-soak lifetime -seed 5000 -campaigns 100" \
	"-soak crash -seed 5000 -campaigns 20 -devices 2"; do
	echo "== monitor $args"
	# shellcheck disable=SC2086 # args is a word list on purpose
	"$tmp/monitor" $args >"$tmp/out" 2>"$tmp/err"
	rc=$?
	cat "$tmp/out"
	echo "-- stderr"
	cat "$tmp/err"
	echo "-- exit $rc"
done

#!/usr/bin/env bash
# Test-selection census. `go test -run X` exits 0 with "no tests to run"
# when X selects nothing, and so do -bench and -fuzz, so a renamed test
# silently turns the CI step that names it into a no-op. This script
# reads every `go test` command in the workflow and fails unless each
# alternative of each -run, -bench and -fuzz pattern selects something
# in the packages that command names. The top level (before any '/')
# must match at least one function of the right kind:
#
#   -run    Test*, Fuzz* and Example* functions
#   -bench  Benchmark* functions
#   -fuzz   Fuzz* functions
#
# and each later level (a subtest or sub-benchmark) must match a whole
# '/'-separated element of some string literal in those packages, such
# as "sparse" or "decode/qb=%d", the names t.Run and b.Run are given. A
# level of '.*' is skipped, and an element built at run time (a %d verb)
# is matched as its literal text, so name such levels by their fixed
# part.
#
# The pattern '^$' (select nothing) is skipped. A level with one group,
# such as ^X(A|B)$, is split into ^XA$ and ^XB$; one with none is split
# on '|'. Functions and literals are read from the packages' _test.go
# files (a ./... package takes every directory below it), and names are
# matched with grep -E.
#
# Run from the repository root: bash .github/run-patterns.sh
set -euo pipefail

workflow=.github/workflows/ci.yml

# One line per pattern: kind, pattern and package list, tab-separated.
records=$(awk '
function flush() { if (intok) toks[++ntok] = tok; tok = ""; intok = 0 }
{
	line = $0
	while (line ~ /\\$/ && (getline nxt) > 0) {
		sub(/\\$/, "", line)
		line = line " " nxt
	}
	at = index(line, "go test ")
	if (!at) next
	cmd = substr(line, at + 8)
	ntok = 0; tok = ""; intok = 0; q = ""
	for (c = 1; c <= length(cmd); c++) {
		ch = substr(cmd, c, 1)
		if (q != "") {
			if (ch == q) q = ""; else tok = tok ch
			continue
		}
		if (ch == "\047" || ch == "\"") { q = ch; intok = 1; continue }
		if (ch == " " || ch == "\t") { flush(); continue }
		if (ch ~ /[|;&>]/) { # the go test command ends here
			if (tok ~ /^[0-9]+$/) intok = 0 # a redirect like 2>&1
			break
		}
		tok = tok ch; intok = 1
	}
	flush()
	dir = ""; pkgs = ""; n = 0
	for (i = 1; i <= ntok; i++) {
		t = toks[i]
		if (t == "-C") { dir = toks[++i]; continue }
		if (t ~ /^-(run|bench|fuzz)=/) {
			kind[++n] = substr(t, 2, index(t, "=") - 2); pat[n] = substr(t, index(t, "=") + 1)
			continue
		}
		if (t ~ /^-(run|bench|fuzz)$/) { kind[++n] = substr(t, 2); pat[n] = toks[++i]; continue }
		if (t ~ /^\./) pkgs = pkgs " " t
	}
	if (pkgs == "") pkgs = " ."
	if (dir != "") gsub(/ \./, " " dir "/.", pkgs)
	for (k = 1; k <= n; k++) printf "%s\t%s\t%s\n", kind[k], pat[k], substr(pkgs, 2)
}' "$workflow")

# testfiles lists the _test.go files of packages.
testfiles() {
	local pkg
	for pkg in "$@"; do
		case $pkg in
		*/...) find "${pkg%/...}" -name '*_test.go' ;;
		*) find "$pkg" -maxdepth 1 -name '*_test.go' ;;
		esac
	done
}

# alts splits one pattern level into the alternatives it selects, one a
# line, or fails if the level has more than one group.
alts() {
	local pre='' inner=$1 post='' alt
	if [[ $1 =~ ^([^()|]*)\(([^()]*)\)([^()|]*)$ ]]; then
		pre=${BASH_REMATCH[1]} inner=${BASH_REMATCH[2]} post=${BASH_REMATCH[3]}
	elif [[ $1 == *[\(\)]* ]]; then
		return 1
	fi
	IFS='|' read -r -a parts <<<"$inner"
	for alt in "${parts[@]}"; do
		printf '%s\n' "$pre$alt$post"
	done
}

fail=0
checked=0
while IFS=$'\t' read -r kind pattern pkgs; do
	[ "$pattern" = '^$' ] && continue
	case $kind in
	run) want='^(Test|Fuzz|Example)' ;;
	bench) want='^Benchmark' ;;
	fuzz) want='^Fuzz' ;;
	esac
	# shellcheck disable=SC2086 # pkgs is a space-separated list
	files=$(testfiles $pkgs)
	names=$(xargs -r grep -hoE '^func (Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*' <<<"$files" | cut -c6- | sort -u | grep -E "$want" || true)
	literals=$(xargs -r grep -hoE '"[^"]*"' <<<"$files" | sort -u)
	IFS=/ read -r -a levels <<<"$pattern"
	for lvl in "${!levels[@]}"; do
		level=${levels[$lvl]}
		[ "$level" = '.*' ] && continue
		if ! list=$(alts "$level"); then
			echo "$workflow: -$kind '$pattern': cannot split more than one group in '$level'"
			fail=1
			continue
		fi
		while read -r alt; do
			checked=$((checked + 1))
			if [ "$lvl" -eq 0 ]; then
				grep -qE -- "$alt" <<<"$names" && continue
			else
				# The alternative, unanchored where it is, as one
				# '/'-separated element of a quoted literal.
				elem=$alt
				if [[ $elem == ^* ]]; then elem=${elem#^}; else elem="[^\"/]*$elem"; fi
				if [[ $elem == *\$ ]]; then elem=${elem%\$}; else elem="$elem[^\"/]*"; fi
				grep -qE -- "^\"([^\"]*/)?$elem(/[^\"]*)?\"\$" <<<"$literals" && continue
			fi
			echo "$workflow: -$kind '$pattern': '$alt' (level $((lvl + 1))) selects nothing in $pkgs"
			fail=1
		done <<<"$list"
	done
done <<<"$records"

echo "run-patterns: $checked alternatives checked"
exit $fail

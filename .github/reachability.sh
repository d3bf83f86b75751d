#!/usr/bin/env bash
# File-level reachability census. Builds every main package of the module
# (cmd/*, examples/*) and the bench/ module with inlining off, maps every
# text symbol of every binary to its source file, and fails if a non-test
# file under internal/ that the host build compiles and that declares a
# func links into no binary. Files of other platforms (kernel_noasm.go,
# *_other.go) are not in the host's GoFiles, so they are never flagged.
#
# Run from the repository root: bash .github/reachability.sh
set -euo pipefail

# Files no binary links on purpose, each with its reason.
allow=(
	"internal/analysis/atest/atest.go" # imported by _test files only
	"internal/harness/enginebench.go"  # fixture for tests in other packages and CI's overhead budget
	"internal/harness/tracebench.go"   # fixture for tests in other packages and CI's overhead budget
	"internal/pum/add.go"              # the PuM oracle TestAddOpCountsMatchModel checks the model against
	"internal/pum/bank.go"             # the PuM oracle; README's "reproduces all three"
)

root=$(pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
for pkg in $mains; do
	go build -gcflags=all=-l -o "$work/bin/$(basename "$pkg")" "$pkg"
done
go build -C bench -gcflags=all=-l -o "$work/bin/bench-main" .

for bin in "$work"/bin/*; do
	go tool nm "$bin" | awk '$2 == "T" || $2 == "t" { print "0x" $1 }' |
		go tool addr2line "$bin" | awk 'NR % 2 == 0 { sub(/:[0-9]+$/, ""); print }'
done | sort -u > "$work/linked"

go list -f '{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
	sed '/^$/d' | sort -u > "$work/listed"

status=0
while read -r f; do
	rel=${f#"$root"/}
	grep -q '^func ' "$f" || continue
	grep -qxF "$f" "$work/linked" && continue
	for a in "${allow[@]}"; do
		[ "$rel" = "$a" ] && continue 2
	done
	echo "unreachable: $rel (in the host build, linked into no binary)"
	status=1
done < "$work/listed"

for a in "${allow[@]}"; do
	if grep -qxF "$root/$a" "$work/linked"; then
		echo "stale allow-list entry: $a now links into a binary"
		status=1
	fi
done
exit $status

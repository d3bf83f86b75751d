#!/usr/bin/env bash
# Reachability census. Builds every main package of the module (cmd/*,
# examples/*) and the bench/ module with inlining off, reads every
# binary's text symbols, and fails if a non-test func declared under
# internal/ in the host build links into no binary:
#
#   - file level: a file whose funcs all link into no binary;
#   - function level: one func in a file that otherwise links.
#
# A func F of package internal/p is the symbol p.F; a method M of T is
# p.(*T).M or p.T.M, and either form counts as linked. Generic funcs and
# methods of generic types match any instantiation. A declaration with no
# body (an assembly stub) is skipped. Files of other platforms
# (kernel_noasm.go, *_other.go) are not in the host's GoFiles, so they are
# never counted.
#
# Run from the repository root: bash .github/reachability.sh
set -euo pipefail

# Code no binary links on purpose, each with the test or caller it serves.
# An entry is a file (every func in it is exempt) or a qualified func as
# this script prints it. An entry that now links, or that names nothing,
# is stale and fails the check.
allow=(
	"internal/analysis/atest/atest.go" # imported by _test files only
	"internal/harness/enginebench.go"  # fixture for tests in other packages and CI's overhead budget
	"internal/harness/tracebench.go"   # fixture for tests in other packages and CI's overhead budget
	"internal/pum/add.go"              # the PuM oracle TestAddOpCountsMatchModel checks the model against
	"internal/pum/bank.go"             # the PuM oracle; README's "reproduces all three"

	# ModeClientDecrypt, the paper's add-then-decrypt path: the ground
	# truth engine/conformance_test.go and proto's persist and alias tests
	# hold every engine to (DESIGN §9).
	"internal/core.(*Server).Search"       # its server half: one Hom-Add per (residue, chunk)
	"internal/core.(*Client).ExtractHits"  # its client half: decrypt, compare to t-1
	"internal/ring.CmpEqScalarBits"        # ExtractHits' compare
	"internal/ring.cmpEqScalarEdge"        # CmpEqScalarBits' sub-word edge
	"internal/core.ExpectedCandidates"     # plaintext oracle of core's match tests and the conformance matrix
	"internal/core.(*HitWords).Equal"      # record compare of core's tests and the conformance matrix
	"internal/bfv.ParamsToy"               # the n = 64 ring the tests of core, engine, proto, ssd and fault run at
	"internal/bfv.ParamsOddQ"              # non-power-of-two q for core's, proto's and bfv's tests
	"internal/bfv.ParamsN2048"             # the root facade exports it (ciphermatch.ParamsN2048); ROADMAP item 14
	"internal/rng.NewRandomSource"         # the root facade exports it (ciphermatch.NewRandomSeed)
	"internal/ring.SetKernel"              # forces a kernel path in ring's and engine's tests
	"internal/ssd.TestConfig"              # the small drive of ssd's and engine's tests
	"internal/trace.(*Trace).StagesTotal"  # called by the allow-listed harness/tracebench.go
)

root=$(pwd)
mod=$(go list -m)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mains=$(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
for pkg in $mains; do
	go build -gcflags=all=-l -o "$work/bin/$(basename "$pkg")" "$pkg"
done
go build -C bench -gcflags=all=-l -o "$work/bin/bench-main" .

for bin in "$work"/bin/*; do
	go tool nm "$bin" | sed -n 's/^ *[0-9a-f]* [Tt] //p'
done | sort -u > "$work/linked"

go list -f '{{$p := .ImportPath}}{{$d := .Dir}}{{range .GoFiles}}{{$p}} {{$d}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
	sed '/^$/d' > "$work/listed"

printf '%s\n' "${allow[@]}" > "$work/allow"

awk -v root="$root/" -v mod="$mod/" -v allowfile="$work/allow" -v linkedfile="$work/linked" '
# The symbol with every [type arguments] group cut to "[...]".
function shape(s,   out, c, depth, i) {
	out = ""; depth = 0
	for (i = 1; i <= length(s); i++) {
		c = substr(s, i, 1)
		if (c == "[") { if (depth++ == 0) out = out "[...]"; continue }
		if (c == "]") { depth--; continue }
		if (depth == 0) out = out c
	}
	return out
}
BEGIN {
	while ((getline line < linkedfile) > 0) linked[shape(line)] = 1
	while ((getline line < allowfile) > 0) allowed[line] = 0
	status = 0
}
# Input: "importpath file" pairs, one per host-build file.
{
	pkg = $1; file = $2; rel = substr(file, length(root) + 1)
	short = pkg; sub("^" mod, "", short)
	nfile++; files[nfile] = rel; flinks[rel] = 0
	if (rel in allowed) allowed[rel] = 1
	n = 0
	while ((getline src < file) > 0) {
		n++
		if (src !~ /^func / || src !~ /\{/) continue
		d = substr(src, 6)
		recv = ""
		if (d ~ /^\(/) {
			recv = substr(d, 2, index(d, ")") - 2)
			d = substr(d, index(d, ")") + 2)
			gsub(/\[[^]]*\]/, "[...]", recv)
			k = split(recv, f, " "); recv = f[k]
		}
		match(d, /^[A-Za-z0-9_]+/); name = substr(d, 1, RLENGTH)
		if (substr(d, RLENGTH + 1, 1) == "[") name = name "[...]"
		if (recv == "") {
			qual = short "." name
			hit = (pkg "." name) in linked
			if (name == "init")
				for (s in linked) if (index(s, pkg ".init.") == 1) { hit = 1; break }
		} else {
			t = recv; sub(/^\*/, "", t)
			qual = short "." (recv ~ /^\*/ ? "(*" t ")" : t) "." name
			hit = (pkg ".(*" t ")." name) in linked || (pkg "." t "." name) in linked
		}
		if (hit) { flinks[rel] = 1; if (qual in allowed) stale[qual] = 1; continue }
		nfuncs[rel]++; fq[rel, nfuncs[rel]] = qual; fl[rel, nfuncs[rel]] = n
		if (qual in allowed) allowed[qual] = 1
	}
	close(file)
}
END {
	for (i = 1; i <= nfile; i++) {
		rel = files[i]
		if (rel in allowed) {
			if (flinks[rel]) { print "stale allow-list entry: " rel " now links into a binary"; status = 1 }
			continue
		}
		if (!nfuncs[rel]) continue
		if (!flinks[rel]) {
			print "unreachable file: " rel " (in the host build, linked into no binary)"
			status = 1
			continue
		}
		for (j = 1; j <= nfuncs[rel]; j++) {
			if (fq[rel, j] in allowed) continue
			print "unreachable func: " fq[rel, j] " (" rel ":" fl[rel, j] ", linked into no binary)"
			status = 1
		}
	}
	for (a in stale) { print "stale allow-list entry: " a " now links into a binary"; status = 1 }
	for (a in allowed) if (!allowed[a] && !(a in stale)) { print "stale allow-list entry: " a " names no func or file"; status = 1 }
	exit status
}' "$work/listed"

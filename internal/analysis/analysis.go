// Package analysis is cmvet's checker framework: a small, offline,
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// surface the repo's invariant checkers need. The build environment has
// no module proxy access, so instead of depending on x/tools the
// framework carries its own Analyzer/Pass/Diagnostic types, a package
// loader built on `go list -export` plus the standard library's gc
// export-data importer, and a `//cm:` directive table shared by every
// analyzer.
//
// The invariants the analyzers guard are the conventions five PRs of
// kernel and server work established and that reviews kept re-checking
// by hand:
//
//   - hotpath: `//cm:hotpath` functions (the fused ring kernels, the
//     engine inner loop) stay free of heap allocation, map traffic,
//     defers and calls into un-annotated code.
//   - ctbranch: inside hotpath functions, no branch or variable-index
//     load may data-flow from ciphertext coefficient parameters — the
//     zero-stores-on-miss branchless discipline.
//   - wiresize: wire decoders must bound every length read off the wire
//     before allocating from it.
//   - poolrelease: pooled results (IndexResult, HitWords) acquired from
//     `//cm:pooled` functions must be Released, returned or handed off
//     on every path.
//   - atomicfield: a field accessed through sync/atomic anywhere is
//     accessed through sync/atomic everywhere.
//
// Intentional violations are suppressed in source with
// `//cm:allow <analyzer> -- reason`, which the driver honours for the
// directive's own line and the line below it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one invariant checker. Run inspects a single type-checked
// package through its Pass and reports findings; it must not retain the
// pass.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //cm:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-line description `cmvet -list` prints.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries everything an analyzer may inspect for one package: the
// parsed files, type information and the module-wide directive table.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dirs is the directive table for the whole module (or, for ad-hoc
	// directory loads, for the loaded files), so analyzers can resolve
	// `//cm:hotpath` / `//cm:pooled` on callees in other packages.
	Dirs *Directives

	report func(Diagnostic)
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding, already resolved to a file
// position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the go-vet-style one-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// FuncFullName returns the directive-table key of a function or method
// object: the same rendering types.Func.FullName uses —
// "pkg/path.Func", "(pkg/path.T).Method", "(*pkg/path.T).Method" — so
// keys synthesised from bare syntax during the parse-only directive
// scan match objects resolved during the type-checked analysis.
func FuncFullName(fn *types.Func) string {
	if orig := fn.Origin(); orig != nil {
		fn = orig
	}
	return fn.FullName()
}

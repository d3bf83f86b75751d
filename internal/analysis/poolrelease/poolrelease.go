// Package poolrelease polices the ownership contract of pooled values:
// a result acquired from a //cm:pooled function (Store.Search returning
// an *IndexResult, core.NewHitWords) must be Released, returned, stored,
// or handed to another function before the acquiring function exits —
// otherwise the backing buffers leak out of the sync.Pool and the
// steady-state allocation profile the pools exist to flatten comes
// back.
//
// Without a CFG the check is deliberately coarse: a pooled value is
// "discharged" if the function contains any Release call on it, returns
// it, stores it anywhere, passes it to a call, sends it on a channel,
// or places it in a composite literal — ownership transfer is assumed
// at each of those points. Reported cases are therefore the flagrant
// ones: the result is bound and then only read (or never used), or the
// call's pooled result is discarded outright. Per-path leaks on early
// returns are out of scope and covered by the leak-check tests.
//
// One class of mid-path leak IS in scope: panic-isolation boundaries.
// In a function that installs a deferred recover() (the server's
// request and coalesced-batch panic isolation), a panic between a pooled
// acquisition and its inline Release is swallowed — the process keeps
// serving and the value never returns to its pool, turning every
// recovered panic into steady-state garbage. Inside such a function an
// inline Release therefore does not discharge; the Release must be
// deferred (or ownership must leave by return/store/handoff as usual).
package poolrelease

import (
	"go/ast"
	"go/token"
	"go/types"

	"ciphermatch/internal/analysis"
)

// Analyzer is the pooled-value release checker.
var Analyzer = &analysis.Analyzer{
	Name: "poolrelease",
	Doc:  "flag pooled results (//cm:pooled acquisitions) that are never Released or handed off",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// pooledCall reports whether the call acquires from a //cm:pooled
// function.
func pooledCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	return pass.Dirs.Pooled(analysis.FuncFullName(fn))
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// acquires maps each local bound to a pooled result to its binding
	// site; discardSites are pooled calls whose result is dropped.
	type acquire struct {
		obj  types.Object
		stmt *ast.AssignStmt
		id   *ast.Ident
	}
	var acquires []acquire
	var discards []*ast.CallExpr

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && pooledCall(pass, call) {
				discards = append(discards, call)
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
			if !ok || !pooledCall(pass, call) {
				return true
			}
			bound := false
			for _, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					// Assigning straight into a field, slice slot or map
					// entry (out[i] = NewHitWords(r)) is a store: the
					// value is owned by that structure now.
					bound = true
					continue
				}
				if id.Name == "_" {
					continue
				}
				var obj types.Object
				if o := info.Defs[id]; o != nil {
					obj = o
				} else {
					obj = info.Uses[id]
				}
				if obj == nil || isErrorType(obj.Type()) {
					continue
				}
				acquires = append(acquires, acquire{obj, n, id})
				bound = true
			}
			if !bound {
				// v is blank or error-only: the pooled result itself
				// was thrown away.
				discards = append(discards, call)
			}
		}
		return true
	})

	for _, call := range discards {
		pass.Reportf(call.Pos(), "result of pooled call in %s is discarded without Release", fd.Name.Name)
	}

	boundary := recoverBoundary(info, fd)
	for _, acq := range acquires {
		d := discharges(pass, fd, acq.obj, acq.stmt)
		switch {
		case d.deferRelease || d.transfer:
		case d.inlineRelease && !boundary:
		case d.inlineRelease && boundary:
			pass.Reportf(acq.id.Pos(), "pooled value %s in %s is Released inline under a recover boundary — a recovered panic before the Release leaks it; defer the Release", acq.id.Name, fd.Name.Name)
		default:
			pass.Reportf(acq.id.Pos(), "pooled value %s in %s is never Released, returned, stored or handed off", acq.id.Name, fd.Name.Name)
		}
	}
}

// recoverBoundary reports whether fd installs a deferred recover() —
// the panic-isolation pattern. Such a function swallows panics instead
// of propagating them, so its own cleanup never runs for statements
// after the panic point unless it is deferred.
func recoverBoundary(info *types.Info, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if def, ok := n.(*ast.DeferStmt); ok {
			ast.Inspect(def, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok && analysis.BuiltinName(info, call) == "recover" {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// dischargeSet classifies how obj's ownership leaves the function:
// transfer covers return, store, channel send, range, composite literal
// and handoff as a call argument; Release calls are split by whether
// they run deferred, because only the deferred form survives a panic in
// a recover-boundary function.
type dischargeSet struct {
	inlineRelease bool
	deferRelease  bool
	transfer      bool
}

// discharges scans fd for the ways obj's ownership leaves the function
// on some path: a Release call (inline or deferred), a return, an
// assignment that stores it, use as a call argument, a channel send, or
// a composite literal. Only the value itself in those positions counts —
// returning or passing a *field* of the pooled value (r.n) is a read,
// not a transfer, and must not mask a missing Release.
func discharges(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object, bind *ast.AssignStmt) dischargeSet {
	info := pass.TypesInfo
	// isObj: the expression is the pooled value itself, possibly behind
	// parens, &, or *. An IndexExpr over the value also counts: an
	// element of a pooled batch (irs[i]) carries the same ownership, so
	// aliasing, returning or handing off an element transfers tracking
	// out of this check's CFG-free scope.
	isObj := func(e ast.Expr) bool {
		for {
			switch v := ast.Unparen(e).(type) {
			case *ast.Ident:
				return info.Uses[v] == obj
			case *ast.UnaryExpr:
				if v.Op != token.AND {
					return false
				}
				e = v.X
			case *ast.StarExpr:
				e = v.X
			case *ast.IndexExpr:
				e = v.X
			default:
				return false
			}
		}
	}
	// selectorBaseIsObj: the expression is a selector chain rooted at
	// the pooled value (v, v.Hits, ...) — accepted only for Release
	// receivers, where releasing an owned sub-resource discharges it.
	selectorBaseIsObj := func(e ast.Expr) bool {
		for {
			if isObj(e) {
				return true
			}
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return false
			}
			e = sel.X
		}
	}
	var d dischargeSet
	// walk inspects a subtree, entering DeferStmt subtrees with the
	// deferred flag raised so Release calls classify by whether they run
	// on the unwind path (defer v.Release(), defer func(){v.Release()}())
	// or only on the straight-line path.
	var walk func(root ast.Node, deferred bool)
	walk = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				if !deferred {
					walk(n.Call, true)
					return false
				}
			case *ast.CallExpr:
				// v.Release() (possibly v.Hits.Release()).
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && selectorBaseIsObj(sel.X) {
					if deferred {
						d.deferRelease = true
					} else {
						d.inlineRelease = true
					}
					return true
				}
				// v handed to another function as an argument. len/cap are
				// pure reads, not transfers, so they do not discharge.
				if b := analysis.BuiltinName(info, n); b != "len" && b != "cap" {
					for _, arg := range n.Args {
						if isObj(arg) {
							d.transfer = true
						}
					}
				}
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if isObj(res) {
						d.transfer = true
					}
				}
			case *ast.AssignStmt:
				if n == bind {
					return true
				}
				// v stored somewhere (field, slice slot, another variable —
				// aliasing transfers ownership tracking out of scope).
				for _, rhs := range n.Rhs {
					if isObj(rhs) {
						d.transfer = true
					}
				}
			case *ast.SendStmt:
				if isObj(n.Value) {
					d.transfer = true
				}
			case *ast.RangeStmt:
				// Ranging over a pooled batch result (for _, r := range rs)
				// discharges the batch: the per-element Release discipline in
				// the loop body is the caller's, and per-element tracking is
				// out of scope for a CFG-free check.
				if isObj(n.X) {
					d.transfer = true
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					e := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						e = kv.Value
					}
					if isObj(e) {
						d.transfer = true
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, false)
	return d
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

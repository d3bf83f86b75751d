// Package hotpath checks that functions marked //cm:hotpath — the
// fused ring kernels and the engine inner loop — contain no heap
// allocation, no map traffic, no defers/goroutines/channel operations,
// no fmt/log calls, and no calls into functions that are not themselves
// hotpath (or on the small pure-arithmetic whitelist). The invariant
// exists because the search kernels' performance contract is "one
// streaming pass, zero allocations" (pinned dynamically by the
// AllocsPerRun tests); a refactor that reintroduces an append or an
// interface box silently turns the per-chunk loop into a GC workload.
package hotpath

import (
	"go/ast"
	"go/types"
	"strings"

	"ciphermatch/internal/analysis"
)

// Analyzer is the hotpath purity checker.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "reject allocation, map ops, defers and non-hotpath calls inside //cm:hotpath functions",
	Run:  run,
}

// calleeWhitelist lists packages whose functions are pure register
// arithmetic and may be called from hotpath code without annotation.
// sync/atomic is included for the kernel dispatch layer: reading the
// active-path word (atomic.Uint32.Load) is one MOV on every supported
// architecture, never an allocation or a lock.
var calleeWhitelist = map[string]bool{
	"math/bits":   true,
	"math":        true,
	"sync/atomic": true,
}

// calleeFuncWhitelist lists single functions outside the whitelisted
// packages that are pure register arithmetic: the fixed-width loads of
// binary.LittleEndian, which the compiler lowers to one unaligned MOV,
// so kernels read byte-layout operands (token rows) without converting
// a possibly misaligned []byte to a wider pointer. The rest of
// encoding/binary (Read, Write, the varint appenders) reflects or
// allocates and stays forbidden.
var calleeFuncWhitelist = map[string]bool{
	"(encoding/binary.littleEndian).Uint32": true,
	"(encoding/binary.littleEndian).Uint64": true,
}

// allowedBuiltins are the builtins that never allocate.
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "clear": true,
	"min": true, "max": true, "panic": true, "print": true,
	"imag": true, "real": true,
}

func run(pass *analysis.Pass) error {
	for fd := range analysis.HotpathFuncs(pass) {
		checkBody(pass, fd)
	}
	return nil
}

func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "hotpath function %s contains a closure (heap-allocates its captures)", fd.Name.Name)
			return false
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "hotpath function %s uses defer", fd.Name.Name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "hotpath function %s spawns a goroutine", fd.Name.Name)
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "hotpath function %s uses select", fd.Name.Name)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "hotpath function %s sends on a channel", fd.Name.Name)
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.Pos(), "hotpath function %s receives from a channel", fd.Name.Name)
			}
		case *ast.CompositeLit:
			pass.Reportf(n.Pos(), "hotpath function %s builds a composite literal (may heap-allocate)", fd.Name.Name)
		case *ast.MapType:
			pass.Reportf(n.Pos(), "hotpath function %s declares a map", fd.Name.Name)
		case *ast.TypeAssertExpr:
			pass.Reportf(n.Pos(), "hotpath function %s performs a type assertion", fd.Name.Name)
		case *ast.IndexExpr:
			if analysis.IsMap(analysis.TypeOf(info, n.X)) {
				pass.Reportf(n.Pos(), "hotpath function %s accesses a map", fd.Name.Name)
			}
		case *ast.RangeStmt:
			if analysis.IsMap(analysis.TypeOf(info, n.X)) {
				pass.Reportf(n.Pos(), "hotpath function %s ranges over a map", fd.Name.Name)
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if t := analysis.TypeOf(info, n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(), "hotpath function %s concatenates strings (allocates)", fd.Name.Name)
					}
				}
			}
		case *ast.CallExpr:
			checkCall(pass, fd, n)
		}
		return true
	})
	// Interface boxing through assignments and call arguments: a
	// concrete value assigned into an interface-typed slot allocates.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if analysis.IsConversion(info, call) && len(call.Args) == 1 {
			to := analysis.TypeOf(info, call.Fun)
			from := analysis.TypeOf(info, call.Args[0])
			if analysis.IsInterface(to) && !analysis.IsInterface(from) {
				pass.Reportf(call.Pos(), "hotpath function %s converts to an interface (boxes)", fd.Name.Name)
			}
			return true
		}
		sig, _ := analysis.TypeOf(info, call.Fun).(*types.Signature)
		if sig == nil {
			return true
		}
		for i, arg := range call.Args {
			var pt types.Type
			if sig.Variadic() && i >= sig.Params().Len()-1 {
				if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
					pt = s.Elem()
				}
			} else if i < sig.Params().Len() {
				pt = sig.Params().At(i).Type()
			}
			if analysis.IsInterface(pt) && !analysis.IsInterface(analysis.TypeOf(info, arg)) {
				pass.Reportf(arg.Pos(), "hotpath function %s passes a concrete value as interface argument (boxes)", fd.Name.Name)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.TypesInfo
	if b := analysis.BuiltinName(info, call); b != "" {
		switch b {
		case "make", "new", "append":
			pass.Reportf(call.Pos(), "hotpath function %s heap-allocates via %s", fd.Name.Name, b)
		case "delete":
			pass.Reportf(call.Pos(), "hotpath function %s deletes from a map", fd.Name.Name)
		default:
			if !allowedBuiltins[b] {
				pass.Reportf(call.Pos(), "hotpath function %s calls builtin %s", fd.Name.Name, b)
			}
		}
		return
	}
	if analysis.IsConversion(info, call) {
		// Conversions are handled by the boxing pass; []byte(s) and
		// string(b) allocate.
		if len(call.Args) == 1 {
			to := analysis.TypeOf(info, call.Fun)
			from := analysis.TypeOf(info, call.Args[0])
			if isStringByteConv(to, from) {
				pass.Reportf(call.Pos(), "hotpath function %s converts between string and []byte (allocates)", fd.Name.Name)
			}
		}
		return
	}
	fn := analysis.Callee(info, call)
	if fn == nil {
		pass.Reportf(call.Pos(), "hotpath function %s calls through a function value", fd.Name.Name)
		return
	}
	if pkg := fn.Pkg(); pkg != nil {
		path := pkg.Path()
		if path == "fmt" || path == "log" || strings.HasPrefix(path, "log/") {
			pass.Reportf(call.Pos(), "hotpath function %s calls %s.%s", fd.Name.Name, path, fn.Name())
			return
		}
		if calleeWhitelist[path] || calleeFuncWhitelist[fn.FullName()] {
			return
		}
	}
	if !pass.Dirs.Hotpath(analysis.FuncFullName(fn)) {
		pass.Reportf(call.Pos(), "hotpath function %s calls non-hotpath function %s", fd.Name.Name, fn.Name())
	}
}

func isStringByteConv(to, from types.Type) bool {
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// Package fixture exercises the hotpath analyzer: annotated kernels
// that follow the alloc-free discipline pass, each forbidden construct
// is flagged.
package fixture

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

//cm:hotpath
func kernelGood(a, b []uint64, out []uint64, q uint64) {
	for i := range a {
		t := a[i] + b[i]
		t -= q & (((t - q) >> 63) - 1)
		out[i] = t ^ uint64(bits.OnesCount64(t))
	}
}

//cm:hotpath
func helper(x uint64) uint64 { return x + 1 }

//cm:hotpath
func callsHotpath(x uint64) uint64 { return helper(x) }

func plain(x uint64) uint64 { return x }

//cm:hotpath
func callsPlain(x uint64) uint64 {
	return plain(x) // want `calls non-hotpath function plain`
}

//cm:hotpath
func allocates(n int) int {
	s := make([]uint64, n) // want `heap-allocates via make`
	s = append(s, 1)       // want `heap-allocates via append`
	p := new(uint64)       // want `heap-allocates via new`
	return len(s) + int(*p)
}

//cm:hotpath
func closes(x int) func() int {
	return func() int { return x } // want `contains a closure`
}

//cm:hotpath
func defers() {
	defer plain(0) // want `uses defer` `calls non-hotpath function plain`
}

//cm:hotpath
func spawns() {
	go helper(1) // want `spawns a goroutine`
}

//cm:hotpath
func mapping(m map[int]int, k int) int {
	return m[k] // want `accesses a map`
}

//cm:hotpath
func asserts(v any) int {
	return v.(int) // want `performs a type assertion`
}

//cm:hotpath
func concats(a, b string) string {
	return a + b // want `concatenates strings`
}

//cm:hotpath
func prints(x int) {
	fmt.Println(x) // want `calls fmt.Println` `passes a concrete value as interface argument`
}

//cm:hotpath
func converts(s string) int {
	b := []byte(s) // want `converts between string and \[\]byte`
	return len(b)
}

//cm:hotpath
func boxes(x int) any {
	return any(x) // want `converts to an interface`
}

//cm:hotpath
func indirect(x uint64) uint64 {
	f := helper
	return f(x) // want `calls through a function value`
}

//cm:hotpath
func composite() [2]uint64 {
	return [2]uint64{1, 2} // want `builds a composite literal`
}

//cm:hotpath
func suppressed(n int) []uint64 {
	//cm:allow hotpath -- setup path, measured cold
	return make([]uint64, n)
}

// The kernel dispatch shape: an atomic load of the active-path word
// selecting between hotpath implementations. sync/atomic is on the
// callee whitelist (a Load is one MOV, never an allocation), so this
// produces no diagnostics.
var activePath atomic.Uint32

//cm:hotpath
func dispatches(a, b, out []uint64, q uint64) {
	switch activePath.Load() {
	case 1:
		kernelGood(a, b, out, q)
	default:
		kernelGood(a, b, out, q)
	}
}

// An assembly stub: a body-less declaration may carry //cm:hotpath in
// its doc comment, satisfying the callee check for hotpath callers
// while the body checks skip it (there is no Go body to inspect).
//
//cm:hotpath
func asmStub(dst, a *uint64, q uint64)

//cm:hotpath
func callsAsmStub(dst, a []uint64, q uint64) {
	asmStub(&dst[0], &a[0], q)
}

// Byte-layout operands: binary.LittleEndian's fixed-width loads are on
// the per-function whitelist; the reflective half of encoding/binary
// is not.
//
//cm:hotpath
func readsLanes(d []byte, out []uint64) {
	for i := range out {
		out[i] = uint64(binary.LittleEndian.Uint32(d[4*i:])) + binary.LittleEndian.Uint64(d[8*i:])
	}
}

//cm:hotpath
func readsReflect(d []byte) int {
	return binary.Size(d) // want `calls non-hotpath function Size` `passes a concrete value as interface argument`
}

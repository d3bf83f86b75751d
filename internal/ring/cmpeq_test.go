package ring

import (
	"fmt"
	"testing"

	"ciphermatch/internal/rng"
)

// kernelFamilies covers both modulus families (the paper's q = 2^32 and
// a generic odd q) at degrees on both sides of the 64-coefficient
// word-at-a-time fast path.
var kernelFamilies = []struct {
	name string
	n    int
	q    uint64
}{
	{"pow2-q32-n64", 64, 1 << 32},
	{"pow2-q32-n1024", 1024, 1 << 32},
	{"pow2-q32-n16", 16, 1 << 32},
	{"generic-q40-n64", 64, (1 << 40) + 15},
	{"generic-q40-n16", 16, (1 << 40) + 15},
	{"generic-prime-n128", 128, (1 << 45) - 55}, // 2^45-55 is prime
}

// TestCmpEqScalarBits checks the standalone compare kernel against its
// scalar loop.
func TestCmpEqScalarBits(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			src := rng.NewSourceFromString(fmt.Sprintf("cmpeq-%d", n))
			a := make(Poly, n)
			for i := range a {
				a[i] = src.Uniform(8)
			}
			for _, base := range []int{0, 64, 13} {
				scalar := make([]uint64, (base+n+63)/64)
				CmpEqScalarBits(a, 3, scalar, base)
				for i := 0; i < n; i++ {
					want := a[i] == 3
					got := scalar[(base+i)>>6]&(1<<(uint(base+i)&63)) != 0
					if got != want {
						t.Fatalf("scalar base %d coeff %d: got %v, want %v", base, i, got, want)
					}
				}
			}
		})
	}
}

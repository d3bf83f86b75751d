package bfv

import (
	"fmt"

	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/ring"
)

// Evaluator performs homomorphic operations. It is stateless apart from
// parameters and may be shared across goroutines.
type Evaluator struct {
	params Params
	ring   *ring.Ring
}

// NewEvaluator returns an Evaluator for the given parameters.
func NewEvaluator(p Params) *Evaluator {
	return &Evaluator{params: p, ring: p.Ring()}
}

// Add returns a + b (Hom-Add, Eq. 4 of the paper): component-wise
// polynomial addition. Ciphertexts of different degrees are aligned by
// treating missing components as zero.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	r := ev.ring
	n := max(len(a.C), len(b.C))
	out := &Ciphertext{C: make([]ring.Poly, n)}
	for i := 0; i < n; i++ {
		out.C[i] = r.NewPoly()
		switch {
		case i < len(a.C) && i < len(b.C):
			r.Add(a.C[i], b.C[i], out.C[i])
		case i < len(a.C):
			r.Copy(out.C[i], a.C[i])
		default:
			r.Copy(out.C[i], b.C[i])
		}
	}
	return out
}

// AddInto computes out = a + b for 2-component ciphertexts without
// allocating; out may alias a or b. This is the hot path of CIPHERMATCH
// search and the operation timed by the calibration benchmarks.
func (ev *Evaluator) AddInto(a, b, out *Ciphertext) error {
	if len(a.C) != len(b.C) || len(out.C) != len(a.C) {
		return fmt.Errorf("bfv: AddInto requires equal degrees (got %d, %d, %d)",
			len(a.C), len(b.C), len(out.C))
	}
	for i := range a.C {
		ev.ring.Add(a.C[i], b.C[i], out.C[i])
	}
	return nil
}

// Sub returns a - b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	r := ev.ring
	n := max(len(a.C), len(b.C))
	out := &Ciphertext{C: make([]ring.Poly, n)}
	for i := 0; i < n; i++ {
		out.C[i] = r.NewPoly()
		switch {
		case i < len(a.C) && i < len(b.C):
			r.Sub(a.C[i], b.C[i], out.C[i])
		case i < len(a.C):
			r.Copy(out.C[i], a.C[i])
		default:
			r.Neg(b.C[i], out.C[i])
		}
	}
	return out
}

// AddPlain returns ct + pt: Δ·pt is added to the first component.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	r := ev.ring
	out := ct.Clone()
	scaled := r.NewPoly()
	r.MulScalar(pt.Coeffs, ev.params.Delta(), scaled)
	r.Add(out.C[0], scaled, out.C[0])
	return out
}

// Mul returns the homomorphic product of two degree-1 ciphertexts as a
// degree-2 ciphertext: the tensor (a0·b0, a0·b1 + a1·b0, a1·b1) is computed
// exactly over the integers on centered lifts, then each component is
// rescaled by t/q with rounding. This is the expensive operation the
// CIPHERMATCH algorithm eliminates (Key Takeaway 1).
func (ev *Evaluator) Mul(a, b *Ciphertext) (*Ciphertext, error) {
	if len(a.C) != 2 || len(b.C) != 2 {
		return nil, fmt.Errorf("bfv: Mul requires degree-1 inputs (got %d, %d)",
			len(a.C)-1, len(b.C)-1)
	}
	r := ev.ring
	n := r.N()
	la0, la1 := make([]int64, n), make([]int64, n)
	lb0, lb1 := make([]int64, n), make([]int64, n)
	r.CenterLift(a.C[0], la0)
	r.CenterLift(a.C[1], la1)
	r.CenterLift(b.C[0], lb0)
	r.CenterLift(b.C[1], lb1)

	d0 := make([]mathutil.Int128, n)
	d2 := make([]mathutil.Int128, n)
	cross1 := make([]mathutil.Int128, n)
	cross2 := make([]mathutil.Int128, n)
	r.NegacyclicConvolveExact(la0, lb0, d0)
	r.NegacyclicConvolveExact(la0, lb1, cross1)
	r.NegacyclicConvolveExact(la1, lb0, cross2)
	r.NegacyclicConvolveExact(la1, lb1, d2)
	d1 := make([]mathutil.Int128, n)
	for i := range d1 {
		d1[i] = cross1[i].Add(cross2[i])
	}

	out := &Ciphertext{C: make([]ring.Poly, 3)}
	for i, d := range [][]mathutil.Int128{d0, d1, d2} {
		out.C[i] = r.NewPoly()
		r.ScaleRoundMod(d, ev.params.T, ev.params.Q, out.C[i])
	}
	return out, nil
}

// Relinearize reduces a degree-2 ciphertext back to degree 1 using the
// relinearisation key: the quadratic component is decomposed in base
// 2^w and folded into the linear components through the key rows.
func (ev *Evaluator) Relinearize(ct *Ciphertext, rlk *RelinKey) (*Ciphertext, error) {
	if len(ct.C) != 3 {
		return nil, fmt.Errorf("bfv: Relinearize requires a degree-2 ciphertext (got degree %d)", len(ct.C)-1)
	}
	r := ev.ring
	w := rlk.BaseBits
	mask := uint64(1)<<w - 1

	c0 := r.Clone(ct.C[0])
	c1 := r.Clone(ct.C[1])
	digit := r.NewPoly()
	tmp := r.NewPoly()
	for i, row := range rlk.Rows {
		shift := uint(i) * w
		for k, c := range ct.C[2] {
			digit[k] = (c >> shift) & mask
		}
		r.Mul(row[0], digit, tmp)
		r.Add(c0, tmp, c0)
		r.Mul(row[1], digit, tmp)
		r.Add(c1, tmp, c1)
	}
	return &Ciphertext{C: []ring.Poly{c0, c1}}, nil
}

// MulRelin is Mul followed by Relinearize, the form used by the arithmetic
// baseline.
func (ev *Evaluator) MulRelin(a, b *Ciphertext, rlk *RelinKey) (*Ciphertext, error) {
	prod, err := ev.Mul(a, b)
	if err != nil {
		return nil, err
	}
	return ev.Relinearize(prod, rlk)
}

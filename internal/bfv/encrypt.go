package bfv

import (
	"fmt"
	"sync"

	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

// Plaintext is a polynomial with coefficients in [0, T).
type Plaintext struct {
	Coeffs ring.Poly
}

// Ciphertext is a BFV ciphertext of degree len(C)-1. Fresh ciphertexts have
// two components; an unrelinearised product has three.
type Ciphertext struct {
	C []ring.Poly
}

// SizeBytes returns the serialised size used by the paper's footprint
// accounting: components × n × ceil(log2 q / 8).
func (ct *Ciphertext) SizeBytes(p Params) int {
	return len(ct.C) * p.N * p.QBytes()
}

// Clone deep-copies the ciphertext.
func (ct *Ciphertext) Clone() *Ciphertext {
	out := &Ciphertext{C: make([]ring.Poly, len(ct.C))}
	for i := range ct.C {
		out.C[i] = make(ring.Poly, len(ct.C[i]))
		copy(out.C[i], ct.C[i])
	}
	return out
}

// Encoder packs integer vectors into plaintext polynomials
// (coefficient encoding, as in §4.2.1).
type Encoder struct {
	params Params
}

// NewEncoder returns an Encoder for the given parameters.
func NewEncoder(p Params) *Encoder { return &Encoder{params: p} }

// Encode places values[i] into coefficient i. Values must be < T; fewer
// than N values are zero-padded.
func (e *Encoder) Encode(values []uint64) (*Plaintext, error) {
	if len(values) > e.params.N {
		return nil, fmt.Errorf("bfv: %d values exceed ring degree %d", len(values), e.params.N)
	}
	pt := &Plaintext{Coeffs: make(ring.Poly, e.params.N)}
	for i, v := range values {
		if v >= e.params.T {
			return nil, fmt.Errorf("bfv: value %d at index %d exceeds plaintext modulus %d", v, i, e.params.T)
		}
		pt.Coeffs[i] = v
	}
	return pt, nil
}

// EncodeUint16 packs 16-bit segments, the CIPHERMATCH packing unit for the
// paper parameters (t = 2^16).
func (e *Encoder) EncodeUint16(values []uint16) (*Plaintext, error) {
	u := make([]uint64, len(values))
	for i, v := range values {
		u[i] = uint64(v)
	}
	return e.Encode(u)
}

// Encryptor encrypts plaintexts under a public key. It is safe for
// concurrent use.
type Encryptor struct {
	params Params
	ring   *ring.Ring
	// p0 and p1 are the public key transformed once for exact products by
	// the ternary ephemeral u (ring.Operand).
	p0, p1 *ring.Operand
	// scratch recycles the per-call polynomials (u, e0, e1 and u's
	// transform), so an encryption allocates only what it returns.
	scratch sync.Pool
}

// encScratch is one encryption's working set.
type encScratch struct {
	u, e0, e1, uHat ring.Poly
}

// NewEncryptor returns an Encryptor for pk.
func NewEncryptor(p Params, pk *PublicKey) *Encryptor {
	r := p.Ring()
	enc := &Encryptor{params: p, ring: r, p0: r.NewOperand(pk.P0), p1: r.NewOperand(pk.P1)}
	enc.scratch.New = func() any {
		return &encScratch{u: r.NewPoly(), e0: r.NewPoly(), e1: r.NewPoly(), uHat: r.NewPoly()}
	}
	return enc
}

// sample draws the encryption randomness in the contract order (u ternary,
// e0 CBD, then e1 CBD when withE1) into s and returns u transformed for
// the products by the public key.
func (enc *Encryptor) sample(s *encScratch, src *rng.Source, withE1 bool) ring.Transformed {
	r := enc.ring
	r.TernaryPoly(src, s.u)
	r.CBDPoly(src, enc.params.Eta, s.e0)
	if withE1 {
		r.CBDPoly(src, enc.params.Eta, s.e1)
	}
	return r.Transform(s.u, s.uHat)
}

// fillC0 sets out = P0·u + e0 + Δ·m.
func (enc *Encryptor) fillC0(pt *Plaintext, s *encScratch, u ring.Transformed, out ring.Poly) {
	r := enc.ring
	r.MulTransformed(enc.p0, u, out)
	r.Add(out, s.e0, out)
	r.MulScalarAdd(pt.Coeffs, enc.params.Delta(), out)
}

// Encrypt encrypts pt, drawing randomness from src in the fixed order
// (u ternary, e0 CBD, e1 CBD). The order is part of the package contract:
// the seeded match-token mode re-derives a ciphertext's first component
// from the same source through EncryptC0To, and stored databases depend on
// every coefficient staying put. Calls on distinct sources may run
// concurrently; each ciphertext depends only on pt and its own src.
func (enc *Encryptor) Encrypt(pt *Plaintext, src *rng.Source) *Ciphertext {
	ct := &Ciphertext{C: []ring.Poly{enc.ring.NewPoly(), enc.ring.NewPoly()}}
	enc.EncryptTo(pt, src, ct)
	return ct
}

// EncryptTo is Encrypt writing into the two components of out, e.g. a
// database arena's chunk views.
func (enc *Encryptor) EncryptTo(pt *Plaintext, src *rng.Source, out *Ciphertext) {
	r := enc.ring
	s := enc.scratch.Get().(*encScratch)
	defer enc.scratch.Put(s)
	u := enc.sample(s, src, true)
	enc.fillC0(pt, s, u, out.C[0])
	r.MulTransformed(enc.p1, u, out.C[1])
	r.Add(out.C[1], s.e1, out.C[1])
}

// EncryptC0To computes only the first ciphertext component for pt with
// the randomness stream src, writing into out (e.g. a row of a
// caller-allocated block): out equals Encrypt(pt, src).C[0] for a source
// in the same state. It draws only u and e0, in Encrypt's order, so what
// is left of src afterwards is unspecified; callers pass a fresh fork
// and never draw from it again. The seeded match-token construction
// (internal/core) uses this to build the expected hit value of a
// homomorphic addition without the second component.
func (enc *Encryptor) EncryptC0To(pt *Plaintext, src *rng.Source, out ring.Poly) {
	s := enc.scratch.Get().(*encScratch)
	defer enc.scratch.Put(s)
	enc.fillC0(pt, s, enc.sample(s, src, false), out)
}

// Decryptor decrypts ciphertexts with the secret key.
type Decryptor struct {
	params Params
	ring   *ring.Ring
	sk     *SecretKey
	s      *ring.Operand // sk.S transformed once for c1·s
}

// NewDecryptor returns a Decryptor for sk.
func NewDecryptor(p Params, sk *SecretKey) *Decryptor {
	r := p.Ring()
	return &Decryptor{params: p, ring: r, sk: sk, s: r.NewOperand(sk.S)}
}

// phase computes c0 + c1·s + c2·s² + ... mod q.
func (dec *Decryptor) phase(ct *Ciphertext) ring.Poly {
	r := dec.ring
	acc := r.Clone(ct.C[0])
	if len(ct.C) < 2 {
		return acc
	}
	tmp := r.NewPoly()
	r.MulTransformed(dec.s, r.Transform(ct.C[1], r.NewPoly()), tmp)
	r.Add(acc, tmp, acc)
	sPow := dec.sk.S
	for i := 2; i < len(ct.C); i++ {
		next := r.NewPoly()
		r.Mul(sPow, dec.sk.S, next)
		sPow = next
		r.Mul(ct.C[i], sPow, tmp)
		r.Add(acc, tmp, acc)
	}
	return acc
}

// Decrypt recovers the plaintext: m = round(t·phase/q) mod t.
func (dec *Decryptor) Decrypt(ct *Ciphertext) *Plaintext {
	r := dec.ring
	ph := dec.phase(ct)
	lift := make([]int64, r.N())
	r.CenterLift(ph, lift)
	x := make([]mathutil.Int128, r.N())
	for i := range lift {
		x[i] = mathutil.Int128FromInt64(lift[i])
	}
	out := make(ring.Poly, r.N())
	r.ScaleRoundMod(x, dec.params.T, dec.params.T, out)
	return &Plaintext{Coeffs: out}
}

package bfv

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

var testParams = []struct {
	name string
	p    Params
}{
	{"toy", ParamsToy()},
	{"oddq", ParamsOddQ()},
	{"paper", ParamsPaper()},
	{"toymul", ParamsToyMul()},
	{"ntt-toy", ParamsNTTToy()},
}

// Degree returns the ciphertext degree (1 for fresh ciphertexts).
func (ct *Ciphertext) Degree() int { return len(ct.C) - 1 }

// Decode extracts the coefficient vector of a plaintext.
func (e *Encoder) Decode(pt *Plaintext) []uint64 {
	out := make([]uint64, e.params.N)
	copy(out, pt.Coeffs)
	return out
}

// Neg returns -a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	r := ev.ring
	out := &Ciphertext{C: make([]ring.Poly, len(a.C))}
	for i := range a.C {
		out.C[i] = r.NewPoly()
		r.Neg(a.C[i], out.C[i])
	}
	return out
}

// ParamsArithBaseline is the configuration used for the multiplication-based
// arithmetic baseline (Yasuda et al. [27]): homomorphic multiplication
// inflates noise by roughly n·t·|v|, so it needs a wider ciphertext modulus
// than the addition-only CIPHERMATCH point. The paper's q=2^32/t=2^16
// configuration has budget only for additions — which is precisely Key
// Takeaway 1. Hamming distances fit in t = 2^10.
func ParamsArithBaseline() Params {
	return Params{N: 1024, Q: 1 << 44, T: 1 << 10, Eta: 3, RelinBaseBits: 8}
}

// ParamsNTTToy is the small NTT-enabled test configuration.
func ParamsNTTToy() Params {
	q, err := ring.FindNTTPrime(45, 64)
	if err != nil {
		panic(err)
	}
	return Params{N: 64, Q: q, T: 1 << 10, Eta: 3, RelinBaseBits: 8}
}

// NoiseInfNorm returns the infinity norm of the ciphertext noise: the
// centered magnitude of phase - Δ·m, where m is the decrypted plaintext.
func (dec *Decryptor) NoiseInfNorm(ct *Ciphertext) uint64 {
	r := dec.ring
	ph := dec.phase(ct)
	m := dec.Decrypt(ct)
	scaled := r.NewPoly()
	r.MulScalar(m.Coeffs, dec.params.Delta(), scaled)
	diff := r.NewPoly()
	r.Sub(ph, scaled, diff)
	lift := make([]int64, r.N())
	r.CenterLift(diff, lift)
	var norm uint64
	for _, c := range lift {
		norm = max(norm, uint64(max(c, -c)))
	}
	return norm
}

// NoiseBudgetBits returns the remaining noise budget in bits: decryption
// stays correct while the budget is positive. Defined as
// log2(Δ/2) - log2(noise+1).
func (dec *Decryptor) NoiseBudgetBits(ct *Ciphertext) float64 {
	noise := dec.NoiseInfNorm(ct)
	budget := log2u(dec.params.Delta()/2) - log2u(noise+1)
	return budget
}

func log2u(v uint64) float64 {
	if v == 0 {
		return 0
	}
	// log2 via bit length plus fractional correction.
	n := 0
	x := v
	for x > 1 {
		x >>= 1
		n++
	}
	frac := float64(v)/float64(uint64(1)<<uint(n)) - 1 // in [0,1)
	return float64(n) + frac                           // linear approximation, fine for diagnostics
}

func randomMessage(p Params, src *rng.Source) []uint64 {
	m := make([]uint64, p.N)
	for i := range m {
		m[i] = src.Uniform(p.T)
	}
	return m
}

func setup(t *testing.T, p Params, seed string) (*Encoder, *Encryptor, *Decryptor, *Evaluator, *rng.Source) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	src := rng.NewSourceFromString(seed)
	sk, pk := KeyGen(p, src.Fork("keys"))
	return NewEncoder(p), NewEncryptor(p, pk), NewDecryptor(p, sk), NewEvaluator(p), src
}

func TestParamsValidate(t *testing.T) {
	for _, tc := range testParams {
		if err := tc.p.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	bad := Params{N: 1000, Q: 1 << 32, T: 1 << 16, Eta: 3, RelinBaseBits: 8}
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two N accepted")
	}
	bad = ParamsToy()
	bad.T = bad.Q // T too large
	if err := bad.Validate(); err == nil {
		t.Error("oversized T accepted")
	}
}

func TestPaperFootprintNumbers(t *testing.T) {
	// §4.2.1 Key Insight: with the paper parameters a ciphertext is 4×
	// the packed plaintext (2× from the tuple, 2× from 16->32 bit coeffs).
	p := ParamsPaper()
	if got := p.Delta(); got != 1<<16 {
		t.Errorf("Delta = %d, want 2^16", got)
	}
	if got := p.QBytes(); got != 4 {
		t.Errorf("QBytes = %d, want 4", got)
	}
	if got := p.PackedBitsPerCoeff(); got != 16 {
		t.Errorf("PackedBitsPerCoeff = %d, want 16", got)
	}
	if got := p.CiphertextBytes(); got != 8192 {
		t.Errorf("CiphertextBytes = %d, want 8192", got)
	}
	plainBytes := p.N * p.PackedBitsPerCoeff() / 8 // one chunk of packed data
	if plainBytes != 2048 {
		t.Errorf("plaintext bytes per chunk = %d, want 2048", plainBytes)
	}
	if got := p.CiphertextBytes() / plainBytes; got != 4 {
		t.Errorf("ciphertext/plaintext = %d, want 4", got)
	}
}

func TestEncryptDecryptRoundtrip(t *testing.T) {
	for _, tc := range testParams {
		t.Run(tc.name, func(t *testing.T) {
			enc, encryptor, dec, _, src := setup(t, tc.p, "roundtrip-"+tc.name)
			for trial := 0; trial < 3; trial++ {
				m := randomMessage(tc.p, src)
				pt, err := enc.Encode(m)
				if err != nil {
					t.Fatal(err)
				}
				ct := encryptor.Encrypt(pt, src.ForkIndexed("enc", trial))
				got := enc.Decode(dec.Decrypt(ct))
				for i := range m {
					if got[i] != m[i] {
						t.Fatalf("trial %d coeff %d: got %d want %d", trial, i, got[i], m[i])
					}
				}
			}
		})
	}
}

func TestEncryptionIsRandomized(t *testing.T) {
	p := ParamsToy()
	enc, encryptor, _, _, src := setup(t, p, "randomized")
	pt, _ := enc.Encode(randomMessage(p, src))
	ct1 := encryptor.Encrypt(pt, src.Fork("a"))
	ct2 := encryptor.Encrypt(pt, src.Fork("b"))
	if slices.Equal(ct1.C[0], ct2.C[0]) {
		t.Fatal("two encryptions of the same plaintext are identical")
	}
}

func TestEncryptionIsDeterministicPerSeed(t *testing.T) {
	p := ParamsToy()
	enc, encryptor, _, _, src := setup(t, p, "det")
	pt, _ := enc.Encode(randomMessage(p, src))
	ct1 := encryptor.Encrypt(pt, rng.NewSourceFromString("fixed"))
	ct2 := encryptor.Encrypt(pt, rng.NewSourceFromString("fixed"))
	if !slices.Equal(ct1.C[0], ct2.C[0]) || !slices.Equal(ct1.C[1], ct2.C[1]) {
		t.Fatal("same randomness source must give identical ciphertexts")
	}
}

func TestEncryptC0MatchesEncrypt(t *testing.T) {
	// The seeded match-token mode depends on EncryptC0To writing
	// Encrypt's first component for a source in the same state.
	for _, tc := range testParams {
		p := tc.p
		enc, encryptor, _, _, src := setup(t, p, "c0-"+tc.name)
		pt, _ := enc.Encode(randomMessage(p, src))
		full := encryptor.Encrypt(pt, rng.NewSourceFromString("shared-seed"))
		c0 := p.Ring().NewPoly()
		encryptor.EncryptC0To(pt, rng.NewSourceFromString("shared-seed"), c0)
		if !slices.Equal(full.C[0], c0) {
			t.Fatalf("%s: EncryptC0To != Encrypt.C[0]", tc.name)
		}
	}
}

func TestHomAdd(t *testing.T) {
	for _, tc := range testParams {
		t.Run(tc.name, func(t *testing.T) {
			enc, encryptor, dec, ev, src := setup(t, tc.p, "add-"+tc.name)
			ma := randomMessage(tc.p, src)
			mb := randomMessage(tc.p, src)
			pa, _ := enc.Encode(ma)
			pb, _ := enc.Encode(mb)
			ca := encryptor.Encrypt(pa, src.Fork("a"))
			cb := encryptor.Encrypt(pb, src.Fork("b"))
			sum := ev.Add(ca, cb)
			got := enc.Decode(dec.Decrypt(sum))
			for i := range ma {
				want := (ma[i] + mb[i]) % tc.p.T
				if got[i] != want {
					t.Fatalf("coeff %d: got %d want %d", i, got[i], want)
				}
			}
		})
	}
}

func TestAddInto(t *testing.T) {
	p := ParamsToy()
	enc, encryptor, dec, ev, src := setup(t, p, "addinto")
	ma, mb := randomMessage(p, src), randomMessage(p, src)
	pa, _ := enc.Encode(ma)
	pb, _ := enc.Encode(mb)
	ca := encryptor.Encrypt(pa, src.Fork("a"))
	cb := encryptor.Encrypt(pb, src.Fork("b"))
	out := ca.Clone()
	if err := ev.AddInto(ca, cb, out); err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(dec.Decrypt(out))
	for i := range ma {
		if got[i] != (ma[i]+mb[i])%p.T {
			t.Fatalf("coeff %d mismatch", i)
		}
	}
	// Aliased output.
	if err := ev.AddInto(ca, cb, ca); err != nil {
		t.Fatal(err)
	}
	got = enc.Decode(dec.Decrypt(ca))
	for i := range ma {
		if got[i] != (ma[i]+mb[i])%p.T {
			t.Fatalf("aliased coeff %d mismatch", i)
		}
	}
	// Degree mismatch must error.
	three := &Ciphertext{C: []ring.Poly{ca.C[0], ca.C[1], ca.C[0]}}
	if err := ev.AddInto(three, cb, out); err == nil {
		t.Fatal("AddInto accepted mismatched degrees")
	}
}

func TestHomSubNeg(t *testing.T) {
	p := ParamsToy()
	enc, encryptor, dec, ev, src := setup(t, p, "subneg")
	ma, mb := randomMessage(p, src), randomMessage(p, src)
	pa, _ := enc.Encode(ma)
	pb, _ := enc.Encode(mb)
	ca := encryptor.Encrypt(pa, src.Fork("a"))
	cb := encryptor.Encrypt(pb, src.Fork("b"))
	diff := enc.Decode(dec.Decrypt(ev.Sub(ca, cb)))
	neg := enc.Decode(dec.Decrypt(ev.Neg(ca)))
	for i := range ma {
		wantDiff := (ma[i] + p.T - mb[i]) % p.T
		wantNeg := (p.T - ma[i]) % p.T
		if diff[i] != wantDiff {
			t.Fatalf("sub coeff %d: got %d want %d", i, diff[i], wantDiff)
		}
		if neg[i] != wantNeg {
			t.Fatalf("neg coeff %d: got %d want %d", i, neg[i], wantNeg)
		}
	}
}

func TestPlainOps(t *testing.T) {
	p := ParamsToy()
	enc, encryptor, dec, ev, src := setup(t, p, "plain")
	ma, mb := randomMessage(p, src), randomMessage(p, src)
	pa, _ := enc.Encode(ma)
	pb, _ := enc.Encode(mb)
	ca := encryptor.Encrypt(pa, src.Fork("a"))

	addP := enc.Decode(dec.Decrypt(ev.AddPlain(ca, pb)))
	for i := range ma {
		if addP[i] != (ma[i]+mb[i])%p.T {
			t.Fatalf("AddPlain coeff %d mismatch", i)
		}
	}
}

func TestHomMul(t *testing.T) {
	for _, name := range []string{"toymul", "ntt-toy"} {
		var p Params
		for _, tc := range testParams {
			if tc.name == name {
				p = tc.p
			}
		}
		t.Run(name, func(t *testing.T) {
			enc, encryptor, dec, ev, src := setup(t, p, "mul-"+name)
			// Small messages keep the product noise comfortably in budget.
			ma := make([]uint64, p.N)
			mb := make([]uint64, p.N)
			for i := range ma {
				ma[i] = src.Uniform(2)
				mb[i] = src.Uniform(2)
			}
			pa, _ := enc.Encode(ma)
			pb, _ := enc.Encode(mb)
			ca := encryptor.Encrypt(pa, src.Fork("a"))
			cb := encryptor.Encrypt(pb, src.Fork("b"))
			prod, err := ev.Mul(ca, cb)
			if err != nil {
				t.Fatal(err)
			}
			if prod.Degree() != 2 {
				t.Fatalf("product degree = %d, want 2", prod.Degree())
			}
			got := enc.Decode(dec.Decrypt(prod))
			rt := ring.MustNew(p.N, p.T)
			want := rt.NewPoly()
			rt.MulSchoolbook(ring.Poly(ma), ring.Poly(mb), want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("coeff %d: got %d want %d", i, got[i], want[i])
				}
			}
		})
	}
}

func TestRelinearize(t *testing.T) {
	p := ParamsToyMul()
	enc, encryptor, dec, ev, src := setup(t, p, "relin")
	sk, pk := KeyGen(p, rng.NewSourceFromString("relin-keys"))
	encryptor = NewEncryptor(p, pk)
	dec = NewDecryptor(p, sk)
	rlk := NewRelinKey(p, sk, rng.NewSourceFromString("rlk"))

	ma := make([]uint64, p.N)
	mb := make([]uint64, p.N)
	for i := range ma {
		ma[i] = src.Uniform(2)
		mb[i] = src.Uniform(2)
	}
	pa, _ := enc.Encode(ma)
	pb, _ := enc.Encode(mb)
	ca := encryptor.Encrypt(pa, src.Fork("a"))
	cb := encryptor.Encrypt(pb, src.Fork("b"))
	prod, err := ev.MulRelin(ca, cb, rlk)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 1 {
		t.Fatalf("relinearised degree = %d, want 1", prod.Degree())
	}
	got := enc.Decode(dec.Decrypt(prod))
	rt := ring.MustNew(p.N, p.T)
	want := rt.NewPoly()
	rt.MulSchoolbook(ring.Poly(ma), ring.Poly(mb), want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coeff %d: got %d want %d", i, got[i], want[i])
		}
	}
	// A relinearised product must still support homomorphic addition.
	sum := ev.Add(prod, prod)
	got = enc.Decode(dec.Decrypt(sum))
	for i := range want {
		if got[i] != (2*want[i])%p.T {
			t.Fatalf("post-relin add coeff %d mismatch", i)
		}
	}
}

func TestNoiseBudget(t *testing.T) {
	p := ParamsToy()
	enc, encryptor, dec, ev, src := setup(t, p, "noise")
	pt, _ := enc.Encode(randomMessage(p, src))
	ct := encryptor.Encrypt(pt, src.Fork("e"))
	fresh := dec.NoiseBudgetBits(ct)
	if fresh <= 0 {
		t.Fatalf("fresh ciphertext has non-positive noise budget: %v", fresh)
	}
	sum := ev.Add(ct, ct)
	after := dec.NoiseBudgetBits(sum)
	if after > fresh {
		t.Fatalf("noise budget increased after addition: %v -> %v", fresh, after)
	}
	if dec.NoiseInfNorm(ct) == 0 {
		t.Fatal("fresh ciphertext has zero noise; encryption is leaking plaintexts")
	}
}

func TestHomAddQuick(t *testing.T) {
	p := ParamsToy()
	enc, encryptor, dec, ev, _ := setup(t, p, "quick")
	f := func(rawA, rawB []uint16, seed int64) bool {
		ma := make([]uint64, p.N)
		mb := make([]uint64, p.N)
		for i := 0; i < p.N && i < len(rawA); i++ {
			ma[i] = uint64(rawA[i])
		}
		for i := 0; i < p.N && i < len(rawB); i++ {
			mb[i] = uint64(rawB[i])
		}
		pa, _ := enc.Encode(ma)
		pb, _ := enc.Encode(mb)
		src := rng.NewSourceFromString(string(rune(seed)))
		ca := encryptor.Encrypt(pa, src.Fork("a"))
		cb := encryptor.Encrypt(pb, src.Fork("b"))
		got := enc.Decode(dec.Decrypt(ev.Add(ca, cb)))
		for i := range ma {
			if got[i] != (ma[i]+mb[i])%p.T {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeValidation(t *testing.T) {
	p := ParamsToy()
	enc := NewEncoder(p)
	if _, err := enc.Encode(make([]uint64, p.N+1)); err == nil {
		t.Error("Encode accepted too many values")
	}
	if _, err := enc.Encode([]uint64{p.T}); err == nil {
		t.Error("Encode accepted out-of-range value")
	}
	if _, err := enc.EncodeUint16([]uint16{0xFFFF}); err != nil {
		t.Errorf("EncodeUint16 rejected valid value: %v", err)
	}
}

func TestMulRequiresDegreeOne(t *testing.T) {
	p := ParamsToyMul()
	enc, encryptor, _, ev, src := setup(t, p, "deg")
	pt, _ := enc.Encode(make([]uint64, p.N))
	ca := encryptor.Encrypt(pt, src.Fork("a"))
	cb := encryptor.Encrypt(pt, src.Fork("b"))
	prod, _ := ev.Mul(ca, cb)
	if _, err := ev.Mul(prod, cb); err == nil {
		t.Error("Mul accepted a degree-2 input")
	}
	if _, err := ev.Relinearize(ca, nil); err == nil {
		t.Error("Relinearize accepted a degree-1 input")
	}
}

// TestMulSmallMatchesSchoolbook checks the exact auxiliary-prime product
// on every preset's ring against MulSchoolbook, for the shapes encryption,
// decryption and key generation multiply: uniform × ternary (pk·u),
// ternary × uniform (s·c1), all-q/2 × all-(−1) (the norm bound's worst
// case) and zero × uniform. Presets whose bound n·(q/2) exceeds the
// auxiliary prime's half must report the fallback and still agree.
func TestMulSmallMatchesSchoolbook(t *testing.T) {
	presets := []struct {
		name     string
		p        Params
		fallback bool
	}{
		{"paper", ParamsPaper(), false},
		{"toy", ParamsToy(), false},
		{"n2048", ParamsN2048(), true},
		{"oddq", ParamsOddQ(), false},
		{"arith-baseline", ParamsArithBaseline(), false},
		{"toymul", ParamsToyMul(), false},
		{"ntt-arith", ParamsNTTArith(), false},
		{"ntt-toy", ParamsNTTToy(), false},
		{"boolean", ParamsBoolean(), true},
	}
	for _, pc := range presets {
		t.Run(pc.name, func(t *testing.T) {
			r := pc.p.Ring()
			src := rng.NewSourceFromString("mulsmall-" + pc.name)
			uniform, ternary := r.NewPoly(), r.NewPoly()
			r.UniformPoly(src, uniform)
			r.TernaryPoly(src, ternary)
			half, minusOne := r.NewPoly(), r.NewPoly()
			for i := range half {
				half[i], minusOne[i] = r.Q()/2, r.Q()-1
			}
			for _, c := range []struct {
				name string
				a, b ring.Poly
			}{
				{"uniform×ternary", uniform, ternary},
				{"ternary×uniform", ternary, uniform},
				{"half×minus-one", half, minusOne},
				{"zero×uniform", r.NewPoly(), uniform},
			} {
				want := r.NewPoly()
				r.MulSchoolbook(c.a, c.b, want)
				got := r.NewPoly()
				exact := r.MulTransformed(r.NewOperand(c.a), r.Transform(c.b, r.NewPoly()), got)
				if exact == pc.fallback {
					t.Errorf("%s: exact arm taken = %v, want %v", c.name, exact, !pc.fallback)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s: MulTransformed != MulSchoolbook", c.name)
				}
				r.Mul(c.a, c.b, got)
				if !slices.Equal(got, want) {
					t.Errorf("%s: Mul != MulSchoolbook", c.name)
				}
			}
		})
	}
}

// TestEncryptAllocs pins what an encryption allocates at ParamsPaper:
// only its result (EncryptC0To: nothing, it writes the caller's c0;
// Encrypt: c0, c1, the component slice and the Ciphertext). The
// randomness and the transform of u live in the Encryptor's scratch
// pool.
func TestEncryptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts, inflating allocation counts")
	}
	p := ParamsPaper()
	enc, encryptor, _, _, src := setup(t, p, "encrypt-allocs")
	pt, err := enc.Encode(randomMessage(p, src))
	if err != nil {
		t.Fatal(err)
	}
	c0 := p.Ring().NewPoly()
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"EncryptC0To", 0, func() { encryptor.EncryptC0To(pt, src, c0) }},
		{"Encrypt", 4, func() { encryptor.Encrypt(pt, src) }},
	} {
		if avg := testing.AllocsPerRun(50, c.f); avg > c.max {
			t.Errorf("%s allocates %.1f times per call, want ≤ %.0f", c.name, avg, c.max)
		}
	}
}

// TestEncryptorConcurrent shares one Encryptor (its transformed public key
// and scratch pool) between 8 goroutines; every ciphertext must equal the
// one a lone caller gets from the same randomness.
func TestEncryptorConcurrent(t *testing.T) {
	p := ParamsToy()
	enc, encryptor, _, _, src := setup(t, p, "concurrent")
	pt, err := enc.Encode(randomMessage(p, src))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([]*Ciphertext, workers)
	gotC0 := make([]ring.Poly, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gotC0[g] = make(ring.Poly, p.N)
			for i := 0; i < 20; i++ {
				got[g] = encryptor.Encrypt(pt, src.ForkIndexed("ct", g))
				encryptor.EncryptC0To(pt, src.ForkIndexed("ct", g), gotC0[g])
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		want := encryptor.Encrypt(pt, src.ForkIndexed("ct", g))
		if !slices.Equal(got[g].C[0], want.C[0]) || !slices.Equal(got[g].C[1], want.C[1]) || !slices.Equal(gotC0[g], want.C[0]) {
			t.Fatalf("goroutine %d: concurrent encryption differs from a lone one", g)
		}
	}
}

// BenchmarkHomMul measures the operation the CIPHERMATCH algorithm
// eliminates (Key Takeaway 1) at the arithmetic baseline's parameters.
func BenchmarkHomMul(b *testing.B) {
	p := ParamsArithBaseline()
	src := rng.NewSourceFromString("mul-bench")
	sk, pk := KeyGen(p, src.Fork("keys"))
	rlk := NewRelinKey(p, sk, src.Fork("rlk"))
	enc := NewEncoder(p)
	encryptor := NewEncryptor(p, pk)
	ev := NewEvaluator(p)
	msg := make([]uint64, p.N)
	for i := range msg {
		msg[i] = src.Uniform(2)
	}
	pt, _ := enc.Encode(msg)
	ca := encryptor.Encrypt(pt, src.Fork("a"))
	cb := encryptor.Encrypt(pt, src.Fork("b"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.MulRelin(ca, cb, rlk); err != nil {
			b.Fatal(err)
		}
	}
}

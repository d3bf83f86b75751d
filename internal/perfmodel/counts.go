package perfmodel

// Workload describes one evaluation point of §5.3: a database of PlainBits
// plaintext bits searched with NumQueries queries of QueryBits bits each,
// at AlignBits occurrence granularity.
type Workload struct {
	PlainBits  int64
	QueryBits  int
	NumQueries int
	AlignBits  int
}

func (w Workload) withDefaults() Workload {
	if w.NumQueries == 0 {
		w.NumQueries = 1
	}
	if w.AlignBits == 0 {
		w.AlignBits = 1
	}
	return w
}

// DNAWorkload returns the §5.3 DNA case study: a 32 GB database (128 GB
// encrypted under CIPHERMATCH packing), a single query of y bits.
func DNAWorkload(queryBits int) Workload {
	return Workload{PlainBits: 32 << 33, QueryBits: queryBits, NumQueries: 1, AlignBits: 1}
}

// DBSearchWorkload returns the §5.3 encrypted-database-search case study:
// plainBytes of records, 1000 queries of 16 bits.
func DBSearchWorkload(plainBytes int64) Workload {
	return Workload{PlainBits: plainBytes * 8, QueryBits: 16, NumQueries: 1000, AlignBits: 1}
}

// Shifts returns the number of shift-variant query polynomials V(y) (see
// the package comment).
func (w Workload) Shifts() int {
	w = w.withDefaults()
	g := gcd(w.AlignBits, w.QueryBits)
	return w.QueryBits / g
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// CMChunks returns the number of CIPHERMATCH database ciphertexts:
// 16n plaintext bits per chunk (§4.2.1).
func (m *Model) CMChunks(w Workload) int64 {
	bitsPerChunk := int64(m.Params.N) * int64(m.Params.PackedBitsPerCoeff())
	return ceilDiv(w.PlainBits, bitsPerChunk)
}

// CMEncryptedBytes returns the CIPHERMATCH encrypted footprint (4×).
func (m *Model) CMEncryptedBytes(w Workload) int64 {
	return m.CMChunks(w) * int64(m.Params.CiphertextBytes())
}

// ArithChunks returns the number of single-bit-packed ciphertexts of the
// arithmetic baseline: each covers n bits with n-y+1 valid window starts,
// so consecutive chunks overlap by y-1 bits.
func (m *Model) ArithChunks(w Workload) int64 {
	w = w.withDefaults()
	stride := int64(m.Params.N - w.QueryBits + 1)
	if stride < 1 {
		stride = 1
	}
	return ceilDiv(w.PlainBits, stride)
}

// ArithEncryptedBytes returns the arithmetic baseline's footprint (64×
// before overlap; overlap adds a further y/n factor).
func (m *Model) ArithEncryptedBytes(w Workload) int64 {
	return m.ArithChunks(w) * int64(m.Params.CiphertextBytes())
}

// BooleanEncryptedBytes returns the Boolean baseline's per-bit footprint.
func (m *Model) BooleanEncryptedBytes(w Workload) int64 {
	return w.PlainBits * booleanCTBytes
}

// booleanCTBytes is the per-bit ciphertext size of the Boolean
// baseline's footprint model. The paper's Boolean baseline [17] uses
// TFHE, whose per-bit LWE ciphertext at 128-bit security is (630+1)
// 32-bit values ≈ 2.5 KiB, a >200× blow-up over plaintext (§3.1). The
// model keeps the TFHE constant even though the functional Boolean
// baseline in internal/core is per-bit BFV (DESIGN.md, substitutions).
const booleanCTBytes = (630 + 1) * 4

// BooleanGates returns the gate count of the Boolean baseline: at every
// aligned window position, y XNOR gates and y-1 AND gates (§2.2).
func (m *Model) BooleanGates(w Workload) int64 {
	w = w.withDefaults()
	positions := (w.PlainBits - int64(w.QueryBits)) / int64(w.AlignBits)
	if positions < 0 {
		positions = 0
	}
	return positions * int64(2*w.QueryBits-1)
}

// ModelShifts returns the shift-variant count the model uses: the
// corrected V(y) by default, capped at 16 under PaperShiftSemantics.
func (m *Model) ModelShifts(w Workload) int {
	s := w.Shifts()
	if m.Cal.PaperShiftSemantics && s > 16 {
		return 16
	}
	return s
}

// CMHomAdds returns the homomorphic additions of one full CIPHERMATCH
// search: V(y) shifts × chunks, per query.
func (m *Model) CMHomAdds(w Workload) int64 {
	w = w.withDefaults()
	return int64(m.ModelShifts(w)) * m.CMChunks(w) * int64(w.NumQueries)
}

// ArithOps returns the (muls, adds) of the arithmetic baseline: 2 Hom-Muls
// and 3 Hom-Adds per chunk per query (§3.1).
func (m *Model) ArithOps(w Workload) (muls, adds int64) {
	w = w.withDefaults()
	chunks := m.ArithChunks(w) * int64(w.NumQueries)
	return 2 * chunks, 3 * chunks
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("perfmodel: non-positive divisor")
	}
	return (a + b - 1) / b
}

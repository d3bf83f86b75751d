package core

import (
	"fmt"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/rng"
)

// YasudaMatcher implements the arithmetic baseline of Yasuda et al. [27]
// (§2.2, §3.1): database bits are packed one per plaintext coefficient
// ("single-bit data packing"), and secure matching computes the Hamming
// distance of the query against every bit window with exactly two
// homomorphic multiplications and three homomorphic additions per database
// ciphertext — the cost structure the paper's Fig. 2(c) attributes 98.2% of
// latency to.
//
// Encoding: a database chunk D(x) = Σ d_i x^i and the reversed query
// Qr(x) = -q_0 + Σ_{j>=1} q_j x^{n-j}. In Z_q[x]/(x^n+1), coefficient k of
// D·Qr equals -Σ_j d_{k+j} q_j for k <= n-y (the correlation), so
//
//	HD_k = Σ_j d_{k+j} + Σ_j q_j - 2 Σ_j d_{k+j} q_j
//	     = -(D·OnesR)_k + wq + 2 (D·Qr)_k
//
// with OnesR the all-ones reversed pattern and wq the query weight. An
// exact match at window k is HD_k = 0.
type YasudaMatcher struct {
	params    bfv.Params
	enc       *bfv.Encoder
	encryptor *bfv.Encryptor
	decryptor *bfv.Decryptor
	ev        *bfv.Evaluator
	rlk       *bfv.RelinKey
	maxQuery  int
}

// YasudaStats counts the homomorphic operations of a search.
type YasudaStats struct {
	HomMuls int
	HomAdds int
}

// NewYasudaMatcher creates the baseline matcher. maxQueryBits fixes the
// largest supported query (the approach's "flexible query size: no"
// limitation, Table 1): database chunks overlap by maxQueryBits-1 bits so
// every window is contained in some chunk.
func NewYasudaMatcher(params bfv.Params, maxQueryBits int, src *rng.Source) (*YasudaMatcher, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if maxQueryBits < 1 || maxQueryBits > params.N {
		return nil, fmt.Errorf("core: maxQueryBits=%d out of range [1, n=%d]", maxQueryBits, params.N)
	}
	if uint64(2*maxQueryBits) >= params.T {
		return nil, fmt.Errorf("core: Hamming distances up to %d do not fit plaintext modulus %d",
			2*maxQueryBits, params.T)
	}
	sk, pk := bfv.KeyGen(params, src.Fork("yasuda-keys"))
	rlk := bfv.NewRelinKey(params, sk, src.Fork("yasuda-rlk"))
	return &YasudaMatcher{
		params:    params,
		enc:       bfv.NewEncoder(params),
		encryptor: bfv.NewEncryptor(params, pk),
		decryptor: bfv.NewDecryptor(params, sk),
		ev:        bfv.NewEvaluator(params),
		rlk:       rlk,
		maxQuery:  maxQueryBits,
	}, nil
}

// YasudaDB is the single-bit-packed encrypted database: overlapping chunks
// of n bits with stride n-maxQueryBits+1.
type YasudaDB struct {
	Chunks []*bfv.Ciphertext
	Starts []int // bit offset of each chunk
	BitLen int
}

// EncryptDatabase packs data one bit per coefficient and encrypts
// overlapping chunks.
func (m *YasudaMatcher) EncryptDatabase(data []byte, bitLen int, src *rng.Source) (*YasudaDB, error) {
	n := m.params.N
	stride := n - m.maxQuery + 1
	db := &YasudaDB{BitLen: bitLen}
	for start := 0; ; start += stride {
		coeffs := make([]uint64, n)
		for i := 0; i < n && start+i < bitLen; i++ {
			coeffs[i] = uint64(mathutil.GetBit(data, start+i))
		}
		pt, err := m.enc.Encode(coeffs)
		if err != nil {
			return nil, err
		}
		db.Chunks = append(db.Chunks, m.encryptor.Encrypt(pt, src.ForkIndexed("chunk", start)))
		db.Starts = append(db.Starts, start)
		if start+n >= bitLen {
			break
		}
	}
	return db, nil
}

// YasudaQuery is the encrypted reversed query and all-ones pattern.
type YasudaQuery struct {
	Qr     *bfv.Ciphertext
	OnesR  *bfv.Ciphertext
	Weight uint64
	YBits  int
}

// PrepareQuery encrypts the reversed query and reversed all-ones pattern.
func (m *YasudaMatcher) PrepareQuery(query []byte, queryBits int, src *rng.Source) (*YasudaQuery, error) {
	if queryBits < 1 || queryBits > m.maxQuery {
		return nil, fmt.Errorf("core: queryBits=%d outside supported range [1, %d]", queryBits, m.maxQuery)
	}
	n := m.params.N
	qr := make([]uint64, n)
	ones := make([]uint64, n)
	var weight uint64
	for j := 0; j < queryBits; j++ {
		bit := uint64(mathutil.GetBit(query, j))
		weight += bit
		if j == 0 {
			// x^n = -1: q_0 lands on the constant term negated.
			qr[0] = (m.params.T - bit) % m.params.T
			ones[0] = m.params.T - 1
		} else {
			qr[n-j] = bit
			ones[n-j] = 1
		}
	}
	ptQ, err := m.enc.Encode(qr)
	if err != nil {
		return nil, err
	}
	ptO, err := m.enc.Encode(ones)
	if err != nil {
		return nil, err
	}
	return &YasudaQuery{
		Qr:     m.encryptor.Encrypt(ptQ, src.Fork("qr")),
		OnesR:  m.encryptor.Encrypt(ptO, src.Fork("ones")),
		Weight: weight,
		YBits:  queryBits,
	}, nil
}

// HammingDistances computes, per chunk, a ciphertext whose coefficient k is
// the Hamming distance between the query and the database window starting
// at chunk offset k (valid for k <= n-y): 2 Hom-Muls + 3 Hom-Adds.
func (m *YasudaMatcher) HammingDistances(db *YasudaDB, q *YasudaQuery) ([]*bfv.Ciphertext, YasudaStats, error) {
	var stats YasudaStats
	out := make([]*bfv.Ciphertext, len(db.Chunks))
	wq := make([]uint64, m.params.N)
	for i := range wq {
		wq[i] = q.Weight % m.params.T
	}
	ptW, err := m.enc.Encode(wq)
	if err != nil {
		return nil, stats, err
	}
	for j, chunk := range db.Chunks {
		corr, err := m.ev.MulRelin(chunk, q.Qr, m.rlk) // (D·Qr)_k = -corr_k
		if err != nil {
			return nil, stats, err
		}
		sums, err := m.ev.MulRelin(chunk, q.OnesR, m.rlk) // (D·OnesR)_k = -Σ d
		if err != nil {
			return nil, stats, err
		}
		stats.HomMuls += 2
		// HD = 2·(D·Qr) - (D·OnesR) + wq.
		twice := m.ev.Add(corr, corr)
		diff := m.ev.Sub(twice, sums)
		hd := m.ev.AddPlain(diff, ptW)
		stats.HomAdds += 3
		out[j] = hd
	}
	return out, stats, nil
}

// Search returns the exact-match offsets of the query in the database
// (bit-aligned), by decrypting the Hamming-distance ciphertexts and
// collecting windows with HD = 0. Unlike CIPHERMATCH, results are exact at
// every bit offset — at 64× the memory footprint and with two homomorphic
// multiplications per chunk.
func (m *YasudaMatcher) Search(db *YasudaDB, q *YasudaQuery) ([]int, YasudaStats, error) {
	hds, stats, err := m.HammingDistances(db, q)
	if err != nil {
		return nil, stats, err
	}
	n := m.params.N
	seen := make(map[int]bool)
	var out []int
	for j, hd := range hds {
		pt := m.decryptor.Decrypt(hd)
		for k := 0; k+q.YBits <= n; k++ {
			o := db.Starts[j] + k
			if o+q.YBits > db.BitLen || seen[o] {
				continue
			}
			if pt.Coeffs[k] == 0 {
				out = append(out, o)
				seen[o] = true
			}
		}
	}
	sortInts(out)
	return out, stats, nil
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/ring"
	"ciphermatch/internal/rng"
)

// IndexMode selects how match indices are generated (§4.2.2 and DESIGN.md).
type IndexMode int

const (
	// ModeClientDecrypt: the server returns result ciphertexts and the
	// client decrypts them and scans for the match value t-1. This is the
	// conventional (Yasuda-style) deployment and is always sound.
	ModeClientDecrypt IndexMode = iota
	// ModeSeededMatch: database encryption randomness is derived from the
	// client's seed, so the client can compute, for every (variant, chunk),
	// the exact first-component value a hit produces ("encrypted match
	// polynomial"), and the server's index-generation unit compares
	// coefficients. This is the paper's data flow; it reveals the hit
	// pattern to the server, which the paper's design accepts (the server
	// learns and returns the index).
	ModeSeededMatch
)

// Config configures the CIPHERMATCH matcher.
type Config struct {
	// Params is the BFV parameter set; its packing width (log2 T) must be
	// 16, the paper's segment size.
	Params bfv.Params
	// AlignBits restricts occurrence offsets to multiples of this value
	// (1 = arbitrary bit alignment, 2 = DNA bases, 8 = bytes). The number
	// of query shift variants is y / gcd(AlignBits, y). Default 8.
	AlignBits int
	// Mode selects the index-generation mode. Default ModeClientDecrypt.
	Mode IndexMode
	// Engine selects the execution engine for servers built over this
	// configuration (NewServerWithEngine and the ciphermatch facade).
	// The zero value is the serial CPU engine. Clients ignore it.
	Engine EngineSpec
}

func (c Config) withDefaults() Config {
	if c.AlignBits == 0 {
		c.AlignBits = 8
	}
	return c
}

func (c Config) validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Params.PackedBitsPerCoeff() != SegmentBits {
		return fmt.Errorf("core: matcher requires a %d-bit packing width (log2 T), got %d",
			SegmentBits, c.Params.PackedBitsPerCoeff())
	}
	if c.AlignBits < 1 {
		return errors.New("core: AlignBits must be positive")
	}
	return nil
}

// Client is the data owner: it holds the keys and the seed from which all
// database encryption randomness is derived.
type Client struct {
	cfg       Config
	enc       *bfv.Encoder
	encryptor *bfv.Encryptor
	decryptor *bfv.Decryptor
	ev        *bfv.Evaluator
	ring      *ring.Ring
	src       *rng.Source
}

// NewClient creates a client with fresh keys drawn from src (which also
// seeds all later database and query randomness).
func NewClient(cfg Config, src *rng.Source) (*Client, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sk, pk := bfv.KeyGen(cfg.Params, src.Fork("keygen"))
	return &Client{
		cfg:       cfg,
		enc:       bfv.NewEncoder(cfg.Params),
		encryptor: bfv.NewEncryptor(cfg.Params, pk),
		decryptor: bfv.NewDecryptor(cfg.Params, sk),
		ev:        bfv.NewEvaluator(cfg.Params),
		ring:      cfg.Params.Ring(),
		src:       src,
	}, nil
}

// Config returns the client's configuration.
func (c *Client) Config() Config { return c.cfg }

// EncryptedDB is the server-side artifact: the packed, encrypted database
// (Algorithm 1, lines 1-3).
type EncryptedDB struct {
	Chunks      []*bfv.Ciphertext
	BitLen      int
	NumSegments int

	// arena is the contiguous backing store the chunk polynomials view
	// into after Compact: all first components first, then all second
	// components, so the seeded-match kernels — which read only C[0] —
	// stream one sequential region instead of pointer-chasing per-chunk
	// allocations. nil for databases assembled chunk by chunk.
	arena []uint64
}

// Compact repacks the chunk polynomials into one contiguous arena.
// Layout: chunk j's first component occupies arena[j*n:(j+1)*n] and its
// second component arena[(numChunks+j)*n:...], i.e. a C0 plane followed
// by a C1 plane. A seeded-match search touches only the C0 plane —
// exactly half the ciphertext bytes — as one forward stream. Chunk
// slices become views into the arena (full-capacity slicing keeps
// appends impossible), so ShardDB sub-views stay contiguous too.
// Databases whose chunks are not uniform 2-component ciphertexts (e.g.
// hostile wire input) are left as-is.
func (db *EncryptedDB) Compact() {
	if len(db.Chunks) == 0 || db.arena != nil {
		return
	}
	n := 0
	for _, ct := range db.Chunks {
		if ct == nil || len(ct.C) != 2 {
			return
		}
		if n == 0 {
			n = len(ct.C[0])
		}
		if len(ct.C[0]) != n || len(ct.C[1]) != n {
			return
		}
	}
	numChunks := len(db.Chunks)
	arena := make([]uint64, 2*numChunks*n)
	for j, ct := range db.Chunks {
		c0 := arena[j*n : (j+1)*n : (j+1)*n]
		c1 := arena[(numChunks+j)*n : (numChunks+j+1)*n : (numChunks+j+1)*n]
		copy(c0, ct.C[0])
		copy(c1, ct.C[1])
		ct.C[0], ct.C[1] = c0, c1
	}
	db.arena = arena
}

// Compacted reports whether the chunk polynomials share one contiguous
// arena.
func (db *EncryptedDB) Compacted() bool { return db.arena != nil }

// NewCompactDB allocates an EncryptedDB of numChunks two-component
// chunks whose polynomials are zeroed views into a pre-built arena
// (same layout as Compact). Decoders fill the coefficients in place,
// so a database upload never holds loose per-chunk allocations and the
// arena at the same time.
func NewCompactDB(n, numChunks int) *EncryptedDB {
	db, err := AdoptArena(n, numChunks, make([]uint64, 2*numChunks*n))
	if err != nil {
		panic(err) // arena freshly sized above; cannot mismatch
	}
	return db
}

// AdoptArena builds an EncryptedDB whose chunks are views into a
// caller-provided arena laid out exactly as Compact produces (C0 plane
// then C1 plane). This is the adoption hook for the durable segment
// store: a segment file's mmap'd coefficient region plugs straight into
// the chunk-view layout the search kernels stream, with no copying. The
// ciphertext headers are carved out of three batched allocations, so
// adopting an arena costs O(1) heap allocations regardless of the chunk
// count — loading a 1-chunk and a 10k-chunk segment allocate the same.
//
// Arenas backed by read-only mappings are safe: the seeded-match
// kernels and every engine only ever read database chunks. Callers set
// BitLen and NumSegments afterwards.
func AdoptArena(n, numChunks int, arena []uint64) (*EncryptedDB, error) {
	if n < 1 || numChunks < 1 {
		return nil, fmt.Errorf("core: cannot adopt an arena of %d chunks of degree %d", numChunks, n)
	}
	if len(arena) != 2*numChunks*n {
		return nil, fmt.Errorf("core: arena holds %d coefficients, %d chunks of degree %d need %d",
			len(arena), numChunks, n, 2*numChunks*n)
	}
	db := &EncryptedDB{Chunks: make([]*bfv.Ciphertext, numChunks), arena: arena}
	cts := make([]bfv.Ciphertext, numChunks)
	polys := make([]ring.Poly, 2*numChunks)
	for j := range cts {
		// Full-capacity slicing keeps appends from crossing plane rows.
		polys[2*j] = arena[j*n : (j+1)*n : (j+1)*n]
		polys[2*j+1] = arena[(numChunks+j)*n : (numChunks+j+1)*n : (numChunks+j+1)*n]
		cts[j].C = polys[2*j : 2*j+2 : 2*j+2]
		db.Chunks[j] = &cts[j]
	}
	return db, nil
}

// Arena exposes the contiguous backing store of a compacted database
// (nil when the chunks are loose allocations). The segment writer
// streams it to disk as-is; treat it as read-only.
func (db *EncryptedDB) Arena() []uint64 { return db.arena }

// SizeBytes returns the encrypted footprint, the quantity of Fig. 2(a).
func (db *EncryptedDB) SizeBytes(p bfv.Params) int64 {
	var total int64
	for _, ct := range db.Chunks {
		total += int64(ct.SizeBytes(p))
	}
	return total
}

// dbChunkSource derives the deterministic randomness for database chunk j.
func (c *Client) dbChunkSource(j int) *rng.Source {
	return c.src.Fork("db").ForkIndexed("chunk", j)
}

// patternSource derives the deterministic randomness for the query pattern
// ciphertext with phase psi.
func (c *Client) patternSource(psi int) *rng.Source {
	return c.src.Fork("query").ForkIndexed("pattern", psi)
}

// EncryptDatabase packs data (bitLen bits, MSB-first) with the
// memory-efficient scheme of §4.2.1 and encrypts each chunk. Chunk
// randomness is derived from the client seed so that ModeSeededMatch can
// reconstruct match tokens later without retaining the plaintext.
func (c *Client) EncryptDatabase(data []byte, bitLen int) (*EncryptedDB, error) {
	segs := PackSegments(data, bitLen)
	pts, err := ChunkPlaintexts(segs, c.cfg.Params)
	if err != nil {
		return nil, err
	}
	db := &EncryptedDB{
		Chunks:      make([]*bfv.Ciphertext, len(pts)),
		BitLen:      bitLen,
		NumSegments: len(segs),
	}
	for j, pt := range pts {
		db.Chunks[j] = c.encryptor.Encrypt(pt, c.dbChunkSource(j))
	}
	db.Compact()
	return db, nil
}

// Query is the encrypted query artifact sent to the server (Algorithm 1,
// lines 4-9): the negated, replicated query at every required shift
// alignment, plus (in ModeSeededMatch) the factored match tokens
// (DBTok/RHS).
type Query struct {
	YBits     int
	AlignBits int
	DBBitLen  int
	NumChunks int
	// Residues lists the occurrence residues (o mod y) this query detects,
	// i.e. the shift variants of §4.2.2 line 8.
	Residues []int
	// Patterns maps phase psi -> encrypted negated replicated query
	// pattern. The pattern for (variant s, chunk j) has phase
	// psi = (16·n·j - s) mod y; variants share pattern ciphertexts with
	// equal phase. Required by the client-decrypt path (Server.Search);
	// seeded-match queries carry them in-process for diagnostics but
	// never ship them (the fused kernels run entirely on DBTok/RHS).
	Patterns map[int]*bfv.Ciphertext
	// DBTok is the per-chunk token plane:
	// DBTok[j] = EncryptC0(allOnes, dbChunkSource(j)) - M, residue-
	// independent, where M is a client-seed-derived mask poly. Together
	// with RHS it is the whole seeded-match query: NumChunks + numPhases
	// polynomials.
	DBTok []ring.Poly
	// RHS maps phase psi -> the comparand
	// RHS[psi] = patC0(psi) - Patterns[psi].C[0] + M. A window of chunk
	// j hits variant s iff (c0[i] - DBTok[j][i]) mod q == RHS[psi][i]
	// with psi = PatternPhase(n, j, s, y). The mask M keeps the server
	// from reading Δ·pattern off the pair (without it, RHS would equal
	// -Δ·patternPT exactly); see DESIGN.md on the leakage profile.
	RHS map[int]ring.Poly
	// HitsOnly suppresses candidate generation in the engines, which
	// then return hit bitmaps only. Set by ShardedEngine on per-shard
	// sub-queries (candidates are generated once over the merged
	// bitmaps); never serialized on the wire.
	HitsOnly bool
}

// HasTokens reports whether the query carries match tokens (DBTok plane
// + per-phase RHS), i.e. whether server-side index generation can run.
func (q *Query) HasTokens() bool { return q.DBTok != nil }

// SizeBytes returns the total bytes the client ships to the server for
// this query. Seeded-match queries ship only the DBTok plane and the
// per-phase RHS polynomials — the kernels never touch pattern
// ciphertexts, so they stay home; client-decrypt queries ship their
// pattern ciphertexts.
func (q *Query) SizeBytes(p bfv.Params) int64 {
	if q.HasTokens() {
		return int64(len(q.DBTok)+len(q.RHS)) * int64(p.N*p.QBytes())
	}
	var total int64
	for _, ct := range q.Patterns {
		total += int64(ct.SizeBytes(p))
	}
	return total
}

// ChunkPhi returns phi = (16·n·j) mod y, the chunk-only part of the
// pattern phase: PatternPhase(n, j, s, y) == (ChunkPhi(n, j, y) - s) mod y.
// The factored kernels key their per-chunk RHS rows on phi.
//
//cm:hotpath
func ChunkPhi(n, j, y int) int {
	return (SegmentBits * n * j) % y
}

// PatternPhase returns psi for variant residue s and chunk j.
func PatternPhase(n, j, s, y int) int {
	return ((ChunkPhi(n, j, y)-s)%y + y) % y
}

// buildPatternSegments constructs the n packed coefficients of the negated
// replicated query pattern at phase psi: coefficient i bit b (MSB-first) is
// NOT query[(psi + 16i + b) mod y].
func buildPatternSegments(query []byte, y, psi, n int) []uint16 {
	segs := make([]uint16, n)
	for i := 0; i < n; i++ {
		var v uint16
		for b := 0; b < SegmentBits; b++ {
			v <<= 1
			bit := mathutil.GetBit(query, (psi+SegmentBits*i+b)%y)
			v |= uint16(bit ^ 1) // negated query (~Q), §4.2.2
		}
		segs[i] = v
	}
	return segs
}

// gcd returns the greatest common divisor of a and b.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PrepareQuery builds the encrypted query for a database of dbBitLen bits.
// queryBits must be at least 1 and at most 8*len(query).
func (c *Client) PrepareQuery(query []byte, queryBits, dbBitLen int) (*Query, error) {
	if queryBits < 1 || queryBits > len(query)*8 {
		return nil, fmt.Errorf("core: queryBits=%d out of range (query is %d bits)", queryBits, len(query)*8)
	}
	n := c.cfg.Params.N
	y := queryBits
	numSegs := (dbBitLen + SegmentBits - 1) / SegmentBits
	numChunks := (numSegs + n - 1) / n
	if numChunks == 0 {
		numChunks = 1
	}

	q := &Query{
		YBits:     y,
		AlignBits: c.cfg.AlignBits,
		DBBitLen:  dbBitLen,
		NumChunks: numChunks,
		Patterns:  make(map[int]*bfv.Ciphertext),
	}
	g := gcd(c.cfg.AlignBits, y)
	for s := 0; s < y; s += g {
		q.Residues = append(q.Residues, s)
	}

	// Encrypt every distinct pattern phase once.
	for _, s := range q.Residues {
		for j := 0; j < numChunks; j++ {
			psi := PatternPhase(n, j, s, y)
			if _, ok := q.Patterns[psi]; ok {
				continue
			}
			segs := buildPatternSegments(query, y, psi, n)
			pt, err := c.enc.EncodeUint16(segs)
			if err != nil {
				return nil, err
			}
			q.Patterns[psi] = c.encryptor.Encrypt(pt, c.patternSource(psi))
		}
	}

	if c.cfg.Mode == ModeSeededMatch {
		if err := c.buildFactoredTokens(q); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// encryptC0Calls counts EncryptC0 invocations of the token builder; the
// client-prep tests use it to pin one derivation per chunk plus one per
// phase (not one per chunk per residue).
var encryptC0Calls atomic.Int64

// tokenPlaintexts encodes the two plaintexts the token builder needs:
// the all-ones hit value t-1 and zero (for the pattern-noise component).
func (c *Client) tokenPlaintexts() (onesPT, zeroPT *bfv.Plaintext, err error) {
	p := c.cfg.Params
	allOnes := make([]uint64, p.N)
	for i := range allOnes {
		allOnes[i] = p.T - 1
	}
	if onesPT, err = c.enc.Encode(allOnes); err != nil {
		return nil, nil, err
	}
	if zeroPT, err = c.enc.Encode(nil); err != nil {
		return nil, nil, err
	}
	return onesPT, zeroPT, nil
}

// tokenMask derives the client's token mask M: a uniform polynomial,
// deterministic per client seed (not per query), that blinds both halves
// of the token representation. Sharing M across a client's queries is
// what lets batch deduplication share one DBTok plane between members.
// M is one pad, so differences cancel it: RHS[p1]−RHS[p2] equals
// Δ·(patPT[p2]−patPT[p1]), and DBTok[j1]−DBTok[j2] combined with the
// stored chunks gives Δ·(m_j1−m_j2) — see DESIGN.md §4.3 for what the
// server can and cannot learn.
func (c *Client) tokenMask() ring.Poly {
	m := c.ring.NewPoly()
	c.ring.UniformPoly(c.src.Fork("query").Fork("token-mask"), m)
	return m
}

// buildFactoredTokens computes the factored form of the "encrypted match
// polynomial" of §4.2.2. The expected hit value for (variant s, chunk j)
// is dbC0[j] + patC0[psi(j,s)] with dbC0[j] = EncryptC0(t-1, dbSource(j))
// and patC0[psi] = EncryptC0(0, patternSource(psi)) — a sum whose parts
// depend only on the chunk and only on the phase. Shipping the parts
// instead of the R×NumChunks sums keeps the query ~R× smaller and lets
// the server evaluate every residue in one pass over each chunk:
//
//	(c0 + pattern.C0) == dbC0 + patC0   per (§4.2.2)
//	⇔ (c0 - DBTok[j]) == RHS[psi]      with DBTok[j] = dbC0[j] - M,
//	                                   RHS[psi] = patC0[psi] - pattern.C0[psi] + M.
//
// M is the client's token mask; without it RHS would equal -Δ·patternPT
// and hand the server the query plaintext.
func (c *Client) buildFactoredTokens(q *Query) error {
	onesPT, zeroPT, err := c.tokenPlaintexts()
	if err != nil {
		return err
	}
	mask := c.tokenMask()
	q.DBTok = make([]ring.Poly, q.NumChunks)
	for j := 0; j < q.NumChunks; j++ {
		dbC0 := c.encryptor.EncryptC0(onesPT, c.dbChunkSource(j))
		encryptC0Calls.Add(1)
		c.ring.Sub(dbC0, mask, dbC0)
		q.DBTok[j] = dbC0
	}
	q.RHS = make(map[int]ring.Poly, len(q.Patterns))
	for psi, pattern := range q.Patterns {
		rhs := c.encryptor.EncryptC0(zeroPT, c.patternSource(psi))
		encryptC0Calls.Add(1)
		c.ring.Sub(rhs, pattern.C[0], rhs)
		c.ring.Add(rhs, mask, rhs)
		q.RHS[psi] = rhs
	}
	return nil
}

// HitBitmaps maps a variant residue to its global window-hit bitmap,
// packed 64 windows per word (see Bitset).
type HitBitmaps map[int]*Bitset

// Release returns every bitmap's storage to the bitset pool. Callers
// done with a result (e.g. the wire server after encoding candidates)
// release it so steady-state searches reuse bitmap storage instead of
// allocating.
func (h HitBitmaps) Release() {
	for res, bm := range h {
		bm.Release()
		delete(h, res)
	}
}

// ExtractHits decrypts the per-(variant, chunk) result ciphertexts of a
// search and marks every window whose coefficient equals the match value
// t-1 (ModeClientDecrypt). Index generation runs through the same packed
// compare kernel the server engines use (ring.CmpEqScalarBits), so both
// index-generation modes produce bit-identical Bitsets.
func (c *Client) ExtractHits(q *Query, sr *SearchResult) HitBitmaps {
	p := c.cfg.Params
	matchVal := p.T - 1
	hits := make(HitBitmaps, len(q.Residues))
	numWindows := q.NumChunks * p.N
	for vi, s := range q.Residues {
		bm := NewBitset(numWindows)
		for j, ct := range sr.Results[vi] {
			pt := c.decryptor.Decrypt(ct)
			ring.CmpEqScalarBits(pt.Coeffs, matchVal, bm.Words(), j*p.N)
		}
		hits[s] = bm
	}
	return hits
}

// CandidateWireBytes is the width of one candidate offset on the wire:
// internal/proto ships candidates as 4-byte little-endian values, and
// any engine that accounts host-transfer volume (the SSD controller's
// HostBytesOut) must use the same constant so stats match the bytes
// actually moved. It lives in core rather than proto because the SSD
// simulator cannot import proto (proto links the engine registry, which
// links the SSD).
const CandidateWireBytes = 4

// Candidates converts hit bitmaps into candidate occurrence offsets: every
// aligned offset whose full windows are all hits. See DESIGN.md on boundary
// bits: candidates agree with the query on every full window; up to 15 bits
// on each side are unverified.
//
// The scan is hit-driven: it ORs the residues' bitmaps word by word (64
// windows per step, zero words skipped) and, for each set bit w of the OR,
// tests only the aligned offsets whose first full window is w, i.e.
// o in (16(w-1), 16w]. That is exact, not a heuristic: an offset is a
// candidate only if its residue's bitmap has every window of
// FullWindows(o) = [w0, w1) set with w1 > w0, so in particular bit w0 is
// set in that bitmap and therefore in the OR — the OR is a superset filter
// in front of an unchanged predicate. Windows ascend and offsets ascend
// within a window, so the output is in ascending order without a sort.
// Cost is O(words·residues + set bits·16/alignBits) rather than
// O(dbBits/alignBits); nothing is sized from yBits or alignBits, which
// arrive off the wire. Non-positive yBits or alignBits yield nil.
func Candidates(hits HitBitmaps, dbBits, yBits, alignBits int) []int {
	if yBits < 1 || alignBits < 1 {
		return nil
	}
	live := make([][]uint64, 0, len(hits))
	numWords := 0
	for res, bm := range hits {
		if res >= 0 && res < yBits {
			live = append(live, bm.words)
			numWords = max(numWords, len(bm.words))
		}
	}
	maxO := dbBits - yBits // last offset whose span fits the database
	var out []int
	for wi := 0; wi < numWords; wi++ {
		var or uint64
		for _, words := range live {
			if wi < len(words) {
				or |= words[wi]
			}
		}
		for ; or != 0; or &= or - 1 {
			w := wi<<6 + bits.TrailingZeros64(or)
			hi := min(SegmentBits*w, maxO)
			lo := max(SegmentBits*(w-1)+1, 0)
			for o := (lo + alignBits - 1) / alignBits * alignBits; o <= hi; o += alignBits {
				bm := hits[o%yBits]
				if bm == nil {
					continue
				}
				if w0, w1 := FullWindows(o, yBits); w1 > w0 && bm.AllSet(w0, w1) {
					out = append(out, o)
				}
			}
		}
	}
	return out
}

// VerifyCandidates filters candidates against the plaintext database; this
// is the optional exact verification pass available to the data owner.
func VerifyCandidates(db []byte, dbBits int, query []byte, queryBits int, candidates []int) []int {
	var out []int
	for _, o := range candidates {
		if o+queryBits <= dbBits && plainMatchAt(db, query, queryBits, o) {
			out = append(out, o)
		}
	}
	return out
}

// Decryptor exposes the client's decryptor for diagnostics (noise budgets
// in tests and examples).
func (c *Client) Decryptor() *bfv.Decryptor { return c.decryptor }

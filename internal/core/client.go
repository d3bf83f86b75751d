package core

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
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
// database encryption randomness is derived. A Client is safe for
// concurrent use, and its results do not depend on GOMAXPROCS.
type Client struct {
	cfg       Config
	enc       *bfv.Encoder
	encryptor *bfv.Encryptor
	decryptor *bfv.Decryptor
	ring      *ring.Ring
	src       *rng.Source

	// mask is the token mask M (ModeSeededMatch only): a read-only
	// uniform polynomial drawn once per client seed, not per query, that
	// blinds both halves of the token representation; sharing it lets
	// batch deduplication share one DBTok plane between members. M is one
	// pad, so differences cancel it: RHS[p1]−RHS[p2] = Δ·(patPT[p2]−
	// patPT[p1]), and DBTok[j1]−DBTok[j2] with the stored chunks gives
	// Δ·(m_j1−m_j2) (DESIGN.md §4.3: what the server can and cannot learn).
	mask ring.Poly

	// tokMu guards tokRows, the token-plane memo (ModeSeededMatch only):
	// tokRows[j] = EncryptC0(t−1, chunk j's source) − M for every chunk
	// a query or a database of this client has reached, stored as a
	// token row (ring.PutLanes), the layout queries ship and the server
	// sweeps. A row depends only on the seed and j, so every query
	// shares it; rows are read-only and the memo only grows.
	tokMu   sync.Mutex
	tokRows [][]byte
}

// NewClient creates a client with fresh keys drawn from src (which also
// seeds all later database and query randomness).
func NewClient(cfg Config, src *rng.Source) (*Client, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sk, pk := bfv.KeyGen(cfg.Params, src.Fork("keygen"))
	c := &Client{
		cfg:       cfg,
		enc:       bfv.NewEncoder(cfg.Params),
		encryptor: bfv.NewEncryptor(cfg.Params, pk),
		decryptor: bfv.NewDecryptor(cfg.Params, sk),
		ring:      cfg.Params.Ring(),
		src:       src,
	}
	if cfg.Mode == ModeSeededMatch {
		c.mask = c.ring.NewPoly()
		c.ring.UniformPoly(c.querySource().Fork("token-mask"), c.mask)
	}
	return c, nil
}

// EncryptedDB is the server-side artifact: the packed, encrypted database
// (Algorithm 1, lines 1-3).
type EncryptedDB struct {
	Chunks      []*bfv.Ciphertext
	BitLen      int
	NumSegments int

	// arena is the contiguous backing store every chunk polynomial views
	// into: all first components first, then all second components, so
	// the seeded-match kernels — which read only C[0] — stream one
	// sequential region instead of pointer-chasing per-chunk
	// allocations. Chunk j's first component occupies
	// arena[j*n:(j+1)*n] and its second arena[(numChunks+j)*n:...].
	// Every producer (EncryptDatabase, the wire decoder, the segment
	// loader) builds the database on an arena; only a hand-assembled
	// database lacks one.
	arena []uint64
}

// ArenaWords is the coefficient count of the arena of numChunks chunks
// of degree n: both components of every chunk. Every arena size — the
// allocation, the segment planes, the store's resident accounting — is
// derived from it.
func ArenaWords(n, numChunks int) int { return 2 * numChunks * n }

// NewCompactDB allocates an EncryptedDB of numChunks two-component
// chunks whose polynomials are zeroed views into a fresh arena.
// Producers fill the coefficients in place, so a database never holds
// loose per-chunk allocations and the arena at the same time.
func NewCompactDB(n, numChunks int) *EncryptedDB {
	db, err := AdoptArena(n, numChunks, make([]uint64, ArenaWords(n, numChunks)))
	if err != nil {
		panic(err) // arena freshly sized above; cannot mismatch
	}
	return db
}

// AdoptArena builds an EncryptedDB whose chunks are views into a
// caller-provided arena in the EncryptedDB layout (C0 plane then C1
// plane). This is the adoption hook for the durable segment
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
	if want := ArenaWords(n, numChunks); len(arena) != want {
		return nil, fmt.Errorf("core: arena holds %d coefficients, %d chunks of degree %d need %d",
			len(arena), numChunks, n, want)
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

// Arena exposes the contiguous backing store of the database (nil only
// for a hand-assembled one). The segment writer streams it to disk
// as-is; treat it as read-only.
func (db *EncryptedDB) Arena() []uint64 { return db.arena }

// SizeBytes returns the encrypted footprint, the quantity of Fig. 2(a).
func (db *EncryptedDB) SizeBytes(p bfv.Params) int64 {
	var total int64
	for _, ct := range db.Chunks {
		total += int64(ct.SizeBytes(p))
	}
	return total
}

// dbSource is the parent of the database encryption randomness: chunk j
// draws from dbSource().ForkIndexed("chunk", j). Fork reads only the
// parent's seed, so workers fork their items from one shared parent.
func (c *Client) dbSource() *rng.Source { return c.src.Fork("db") }

// querySource is the parent of the query randomness: the pattern
// ciphertext of phase psi draws from querySource().ForkIndexed("pattern",
// psi) and the token mask from querySource().Fork("token-mask").
func (c *Client) querySource() *rng.Source { return c.src.Fork("query") }

// fanOut is the state of one ForEach call, kept in one allocation.
type fanOut struct {
	next atomic.Int64
	wg   sync.WaitGroup
	n    int
	f    func(i int)
}

// run claims indices from the shared counter until none is left.
func (s *fanOut) run() {
	for i := int(s.next.Add(1) - 1); i < s.n; i = int(s.next.Add(1) - 1) {
		s.f(i)
	}
}

// ForEach runs f(0), …, f(n-1) on min(workers, n) runners that claim
// indices from a shared counter; the caller is one of them, so with one
// runner everything runs inline and no goroutine starts. It returns once
// every f(i) has, so no goroutine outlives the call. Each f(i) must
// write only item i's outputs.
//
// It is the program's one parallel-for. Its callers: the CPU engine's
// chunk ranges (cpu.go), the client's per-chunk and per-phase
// encryption, and the segment checksums (internal/segment: reload
// verify, segment save, the store's upload fingerprint and scrub).
func ForEach(workers, n int, f func(i int)) {
	s := &fanOut{n: n, f: f}
	for w := 1; w < min(workers, n); w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.run()
		}()
	}
	s.run()
	s.wg.Wait()
}

// EncryptDatabase packs data (bitLen bits, MSB-first) with the
// memory-efficient scheme of §4.2.1 and encrypts each chunk straight
// into the database arena. Chunk randomness is derived from the client
// seed so that ModeSeededMatch can reconstruct match tokens later
// without retaining the plaintext; the chunks encrypt in parallel.
//
// In ModeSeededMatch the chunks the token-plane memo lacks get their
// rows here, with no ring product: EncryptC0(t−1, src_j) draws the u
// and e0 that Encrypt(m_j, src_j) drew, so its value is
// C0_j + Δ·(t−1−m_j) (DESIGN.md §4.3).
func (c *Client) EncryptDatabase(data []byte, bitLen int) (*EncryptedDB, error) {
	p := c.cfg.Params
	segs := PackSegments(data, bitLen)
	pts, err := ChunkPlaintexts(segs, p)
	if err != nil {
		return nil, err
	}
	db := NewCompactDB(p.N, len(pts))
	db.BitLen, db.NumSegments = bitLen, len(segs)
	// Rows below have are not derived here: the memo holds them, or,
	// outside ModeSeededMatch, there is no memo.
	have, rows := len(pts), [][]byte(nil)
	if c.cfg.Mode == ModeSeededMatch {
		c.tokMu.Lock()
		have = min(len(c.tokRows), len(pts))
		c.tokMu.Unlock()
		rows = c.newRows(len(pts) - have)
	}
	dbSrc := c.dbSource()
	ForEach(runtime.GOMAXPROCS(0), len(pts), func(j int) {
		c.encryptor.EncryptTo(pts[j], dbSrc.ForkIndexed("chunk", j), db.Chunks[j])
		if j >= have {
			m := pts[j].Coeffs // spent: becomes the row C0_j − M + Δ·(t−1−m_j) in place
			for i := range m {
				m[i] = p.T - 1 - m[i]
			}
			c.ring.MulScalar(m, p.Delta(), m)
			c.ring.Add(m, db.Chunks[j].C[0], m)
			c.ring.Sub(m, c.mask, m)
			c.ring.PutLanes(rows[j-have], m)
		}
	})
	if len(rows) > 0 {
		// A concurrent query may have derived some of these rows since.
		c.tokMu.Lock()
		if l := len(c.tokRows); l < have+len(rows) {
			c.tokRows = append(c.tokRows, rows[l-have:]...)
		}
		c.tokMu.Unlock()
	}
	return db, nil
}

// newRows carves k token rows out of one allocation.
func (c *Client) newRows(k int) [][]byte {
	w := c.cfg.Params.N * c.ring.LaneBytes()
	block := make([]byte, k*w)
	rows := make([][]byte, k)
	for i := range rows {
		rows[i] = block[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// Query is the encrypted query artifact sent to the server (Algorithm 1,
// lines 4-9). It carries only what its mode ships: in ModeClientDecrypt
// the negated, replicated query encrypted at every required shift
// alignment (Patterns), in ModeSeededMatch the factored match tokens
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
	// equal phase. ModeClientDecrypt only (Server.Search): nil in
	// ModeSeededMatch, whose kernels run entirely on DBTok/RHS.
	Patterns map[int]*bfv.Ciphertext
	// DBTok is the per-chunk token plane:
	// DBTok[j] = EncryptC0(allOnes, chunk j's source) - M, residue-
	// independent, where M is a client-seed-derived mask poly. Together
	// with RHS it is the whole seeded-match query: NumChunks + numPhases
	// polynomials. Each row is a token row: n little-endian lanes of the
	// ring's LaneBytes (4 B when q ≤ 2^32), the one layout the plane has
	// from the client's memo through the wire to the search kernel. The
	// slice is the query's own, but its rows are read-only: on the
	// client they are the preparing client's memo rows, shared by all
	// of its queries, and on a server they alias the request payload
	// they were decoded from (DESIGN §4.3).
	DBTok [][]byte
	// RHS maps phase psi -> the comparand RHS[psi] = M - Δ·pt(psi),
	// pt(psi) the pattern plaintext of phase psi. A window of chunk
	// j hits variant s iff (c0[i] - DBTok[j][i]) mod q == RHS[psi][i]
	// with psi = PatternPhase(n, j, s, y). The mask M keeps the server
	// from reading Δ·pattern off the pair (without it, RHS would equal
	// -Δ·patternPT exactly); see DESIGN.md on the leakage profile.
	RHS map[int]ring.Poly
}

// HasTokens reports whether the query carries match tokens (DBTok plane
// + per-phase RHS), i.e. whether server-side index generation can run.
func (q *Query) HasTokens() bool { return q.DBTok != nil }

// SizeBytes returns the total bytes the client ships to the server for
// this query: the DBTok plane and the per-phase RHS polynomials of a
// seeded-match query, or the pattern ciphertexts of a client-decrypt
// one.
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
// NOT query[(psi + 16i + b) mod y]. Each coefficient is cut whole out of
// ext, the pattern's bits followed by its first 16 again, so that any 16
// bits of the periodic pattern starting below y are one contiguous run:
// coefficient i starts at o = (psi + 16i) mod y and is a 24-bit load
// shifted into place.
func buildPatternSegments(query []byte, y, psi, n int) []uint16 {
	ext := make([]byte, (y+SegmentBits+7)/8+2) // +2: the last load's spare bytes
	for k := 0; k < y+SegmentBits; k++ {
		ext[k>>3] |= byte(mathutil.GetBit(query, k%y)) << (7 - k&7)
	}
	segs := make([]uint16, n)
	o := psi % y
	for i := range segs {
		e := ext[o>>3 : o>>3+3]
		w := uint32(e[0])<<16 | uint32(e[1])<<8 | uint32(e[2])
		segs[i] = ^uint16(w >> (8 - o&7)) // negated query (~Q), §4.2.2
		if o += SegmentBits; o >= y {
			o %= y
		}
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

// patternPhases returns the distinct PatternPhase(n, j, s, y) over every
// chunk j < numChunks and residue s, ascending. ChunkPhi repeats with
// period y/gcd(16n, y) in j, so one period of chunks covers them all.
func patternPhases(n, numChunks, y int, residues []int) []int {
	seen := make([]bool, y)
	for j := 0; j < min(numChunks, y/gcd(SegmentBits*n, y)); j++ {
		for _, s := range residues {
			seen[PatternPhase(n, j, s, y)] = true
		}
	}
	var phases []int
	for psi, ok := range seen {
		if ok {
			phases = append(phases, psi)
		}
	}
	return phases
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
	}
	g := gcd(c.cfg.AlignBits, y)
	for s := 0; s < y; s += g {
		q.Residues = append(q.Residues, s)
	}

	// Encode every distinct pattern phase once, serially because encoding
	// can fail. A seeded query turns the plaintexts into RHS rows; a
	// client-decrypt query encrypts them, in parallel.
	phases := patternPhases(n, numChunks, y, q.Residues)
	pts := make([]*bfv.Plaintext, len(phases))
	for i, psi := range phases {
		var err error
		if pts[i], err = c.enc.EncodeUint16(buildPatternSegments(query, y, psi, n)); err != nil {
			return nil, err
		}
	}
	if c.cfg.Mode == ModeSeededMatch {
		c.buildFactoredTokens(q, phases, pts)
		return q, nil
	}
	querySrc := c.querySource()
	patterns := make([]*bfv.Ciphertext, len(phases))
	ForEach(runtime.GOMAXPROCS(0), len(phases), func(i int) {
		patterns[i] = c.encryptor.Encrypt(pts[i], querySrc.ForkIndexed("pattern", phases[i]))
	})
	q.Patterns = make(map[int]*bfv.Ciphertext, len(phases))
	for i, psi := range phases {
		q.Patterns[psi] = patterns[i]
	}
	return q, nil
}

// encryptC0Calls counts EncryptC0To invocations of the token builder; the
// client-prep tests use it to pin one derivation per chunk the memo
// lacks (not one per chunk per residue, and none per phase).
var encryptC0Calls atomic.Int64

// buildFactoredTokens computes the factored form of the "encrypted match
// polynomial" of §4.2.2 for the pattern plaintexts pts of phases. The
// expected hit value for (variant s, chunk j) is dbC0[j] + patC0[psi(j,s)]
// with dbC0[j] = EncryptC0(t-1, chunk j's source) and
// patC0[psi] = EncryptC0(0, pattern psi's source) — a sum whose parts
// depend only on the chunk and only on the phase. Shipping the parts
// instead of the R×NumChunks sums keeps the query ~R× smaller and lets
// the server evaluate every residue in one pass over each chunk:
//
//	(c0 + pattern.C0) == dbC0 + patC0   per (§4.2.2)
//	⇔ (c0 - DBTok[j]) == RHS[psi]      with DBTok[j] = dbC0[j] - M,
//	                                   RHS[psi] = patC0[psi] - pattern.C0[psi] + M.
//
// patC0 and pattern.C0 draw the same u and e0 from the pattern's source,
// so they differ by exactly Δ·pt and RHS[psi] = M − Δ·pt[psi] (DESIGN.md
// §4.3): no pattern is encrypted, and only the DBTok rows need an
// encryption, which come from the client's token-plane memo
// (tokenPlane). M is the client's token mask; without it RHS would equal
// −Δ·pt and hand the server the query plaintext.
func (c *Client) buildFactoredTokens(q *Query, phases []int, pts []*bfv.Plaintext) {
	q.DBTok = c.tokenPlane(q.NumChunks)
	q.RHS = make(map[int]ring.Poly, len(phases))
	for k, psi := range phases {
		row := c.ring.NewPoly()
		c.ring.MulScalar(pts[k].Coeffs, c.cfg.Params.Delta(), row)
		c.ring.Sub(c.mask, row, row)
		q.RHS[psi] = row
	}
}

// tokenPlane returns the memo's first numChunks rows in a slice of the
// caller's own, first deriving the rows the memo lacks with one
// EncryptC0To each, in one parallel fan-out into one allocation.
func (c *Client) tokenPlane(numChunks int) [][]byte {
	c.tokMu.Lock()
	defer c.tokMu.Unlock()
	if have := len(c.tokRows); numChunks > have {
		onesPT := &bfv.Plaintext{Coeffs: c.ring.NewPoly()}
		for i := range onesPT.Coeffs {
			onesPT.Coeffs[i] = c.cfg.Params.T - 1
		}
		dbSrc := c.dbSource()
		rows := c.newRows(numChunks - have)
		ForEach(runtime.GOMAXPROCS(0), len(rows), func(i int) {
			encryptC0Calls.Add(1)
			row := c.ring.NewPoly()
			c.encryptor.EncryptC0To(onesPT, dbSrc.ForkIndexed("chunk", have+i), row)
			c.ring.Sub(row, c.mask, row)
			c.ring.PutLanes(rows[i], row)
		})
		c.tokRows = append(c.tokRows, rows...)
	}
	return slices.Clone(c.tokRows[:numChunks])
}

// ExtractHits decrypts the per-(variant, chunk) result ciphertexts of a
// search and returns, as hit records in canonical order, every window
// whose coefficient equals the match value t-1 (ModeClientDecrypt): the
// records a server engine returns for the same search. Each residue's
// chunks are compared (ring.CmpEqScalarBits) into one reused row of
// hit words, so a word may span chunks when n < 64, and its nonzero
// words are appended; one sort by word then puts the rows in order.
//
//cm:pooled
func (c *Client) ExtractHits(q *Query, sr *SearchResult) *HitWords {
	p := c.cfg.Params
	hits := NewHitWords(q.Residues)
	row := make([]uint64, (q.NumChunks*p.N+63)/64)
	for vi := range q.Residues {
		clear(row)
		for j, ct := range sr.Results[vi] {
			ring.CmpEqScalarBits(c.decryptor.Decrypt(ct).Coeffs, p.T-1, row, j*p.N)
		}
		for w, m := range row {
			if m != 0 {
				hits.Words = append(hits.Words, ring.HitWord{Word: uint32(w), Row: uint32(vi), Mask: m})
			}
		}
	}
	slices.SortFunc(hits.Words, func(a, b ring.HitWord) int { return cmp.Compare(hitKey(a), hitKey(b)) })
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

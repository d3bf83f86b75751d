package core

import (
	"errors"
	"fmt"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/ring"
)

// Engine is the backend-agnostic execution interface for secure search
// with server-side index generation (ModeSeededMatch). CIPHERMATCH's
// central claim is that the same addition-only algorithm runs on three
// substrates — CPU, processing-using-memory, and in-flash processing —
// and Engine is the seam that makes the substrates interchangeable: the
// CPU engine (CPUEngine, inline or fanned out over workers) and the in-flash
// simulator (internal/ssd.Engine) both satisfy it and return identical
// results on identical inputs (see internal/engine's conformance test).
//
// Implementations must be safe for concurrent search calls; the proto
// server issues them under a read lock.
type Engine interface {
	// SearchAndIndex executes Algorithm 1 line 10 plus index generation
	// and returns the hit records (HitWords) and candidate offsets. The
	// query must carry match tokens (ModeSeededMatch). The result's
	// records are pool-backed: callers own them and must Release (or
	// hand off) the IndexResult on every path.
	//
	//cm:pooled
	SearchAndIndex(q *Query) (*IndexResult, error)
	// SearchAndIndexBatch executes every member of bq and returns one
	// IndexResult per member, in member order, identical to per-member
	// SearchAndIndex calls. The CPU engine walks the database once for
	// the whole batch; the in-flash engine serialises members on its
	// controller. Either validates every member before any search
	// work. Results are pool-backed like SearchAndIndex's.
	//
	//cm:pooled
	SearchAndIndexBatch(bq *BatchQuery) ([]*IndexResult, error)
	// Describe returns a short human-readable engine description, e.g.
	// "serial" or "pool(8 workers)".
	Describe() string
	// Close ends the engine's use: the CPU engine lets searches in
	// flight complete and fails later ones; a simulated drive holds
	// nothing to release. Idempotent.
	Close() error
}

// Engine kind names used by EngineSpec and the CLI flags.
const (
	EngineSerial = "serial"
	EnginePool   = "pool"
	EngineSSD    = "ssd"
)

// EngineSpec selects and parameterises an execution engine. The zero
// value means "serial".
type EngineSpec struct {
	// Kind is one of EngineSerial, EnginePool, EngineSSD ("" = serial).
	// The SSD kind is only constructible where the in-flash simulator is
	// linked in (internal/engine, the ciphermatch facade, the proto
	// server); core's NewEngine rejects it.
	Kind string
	// Workers is the pool size for EnginePool (0 = GOMAXPROCS).
	Workers int
}

// String renders the spec in the form accepted by internal/engine.Parse.
func (s EngineSpec) String() string {
	kind := s.Kind
	if kind == "" {
		kind = EngineSerial
	}
	if kind == EnginePool && s.Workers > 0 {
		return fmt.Sprintf("%s:%d", kind, s.Workers)
	}
	return kind
}

// NewEngine builds the CPU engine a spec selects: serial is one worker,
// pool:N is N workers (0 = GOMAXPROCS). The SSD kind lives behind
// internal/engine (or the ciphermatch facade) because internal/ssd
// depends on this package.
func NewEngine(params bfv.Params, db *EncryptedDB, spec EngineSpec) (Engine, error) {
	switch spec.Kind {
	case "", EngineSerial:
		return NewCPUEngine(params, db, 1), nil
	case EnginePool:
		return NewCPUEngine(params, db, spec.Workers), nil
	case EngineSSD:
		return nil, fmt.Errorf("core: the %q engine requires the in-flash simulator; build it via internal/engine or the ciphermatch facade", spec.Kind)
	default:
		return nil, fmt.Errorf("core: unknown engine kind %q", spec.Kind)
	}
}

// ErrQueryDegree reports a query whose match-token polynomials do not
// have the database's ring degree, e.g. one prepared under other
// parameters. Every engine rejects it before its kernel runs.
var ErrQueryDegree = errors.New("core: query polynomial degree does not match the database ring")

// checkTokenDegree returns an ErrQueryDegree error unless every DBTok
// row of q holds the n lanes of r (r.LaneBytes each) and every RHS
// polynomial has n coefficients.
func (q *Query) checkTokenDegree(r *ring.Ring) error {
	n, lb := r.N(), r.LaneBytes()
	for j, row := range q.DBTok {
		if len(row) != n*lb {
			return fmt.Errorf("%w: DBTok[%d] has %d bytes, ring degree %d needs %d lanes of %d", ErrQueryDegree, j, len(row), n, n, lb)
		}
	}
	for psi, p := range q.RHS {
		if len(p) != n {
			return fmt.Errorf("%w: RHS[%d] has %d coefficients, ring degree %d", ErrQueryDegree, psi, len(p), n)
		}
	}
	return nil
}

// ErrQueryResidues reports a query whose residue list no client
// prepares: residues not strictly ascending within [0, YBits), or, in a
// token query, more residues than RHS polynomials (each chunk compares
// every residue against the RHS polynomial of a distinct phase). Every
// engine rejects it before anything is sized from the list.
var ErrQueryResidues = errors.New("core: query residues out of order, out of range or not covered by RHS polynomials")

// checkResidues returns an ErrQueryResidues error unless q's residues
// ascend strictly within [0, YBits) and, when q carries match tokens,
// number at most its RHS polynomials.
func (q *Query) checkResidues() error {
	for i, s := range q.Residues {
		if s < 0 || s >= q.YBits || i > 0 && s <= q.Residues[i-1] {
			return fmt.Errorf("%w: residue %d is %d, query length %d", ErrQueryResidues, i, s, q.YBits)
		}
	}
	if q.HasTokens() && len(q.Residues) > len(q.RHS) {
		return fmt.Errorf("%w: %d residues, %d RHS polynomials", ErrQueryResidues, len(q.Residues), len(q.RHS))
	}
	return nil
}

// validateSearchQuery is the shared shape check of every search:
// agreement between query and a database of numChunks chunks and
// bitLen bits, and a residue list a client could have prepared.
func validateSearchQuery(q *Query, numChunks, bitLen int) error {
	if q.YBits < 1 {
		return fmt.Errorf("core: query has invalid length %d", q.YBits)
	}
	if err := q.checkResidues(); err != nil {
		return err
	}
	if q.AlignBits < 1 {
		return fmt.Errorf("core: query has invalid alignment %d", q.AlignBits)
	}
	if q.NumChunks != numChunks {
		return fmt.Errorf("core: query prepared for %d chunks, database has %d",
			q.NumChunks, numChunks)
	}
	if q.DBBitLen != bitLen {
		return fmt.Errorf("core: query prepared for %d-bit database, have %d bits",
			q.DBBitLen, bitLen)
	}
	return nil
}

// ValidateTokenQuery is the check every engine runs on a seeded query
// before it sizes anything from it: validateSearchQuery against a
// database of numChunks chunks and bitLen bits, plus the match tokens
// server-side index generation needs, a DBTok plane of one row per
// chunk and rows and RHS polynomials of r's degree. It takes the
// database's shape rather than the database, so a drive that stores
// the chunks itself (internal/ssd) runs the same check.
func ValidateTokenQuery(q *Query, numChunks, bitLen int, r *ring.Ring) error {
	if err := validateSearchQuery(q, numChunks, bitLen); err != nil {
		return err
	}
	if len(q.DBTok) != numChunks {
		return fmt.Errorf("core: query DBTok plane has %d chunks, database has %d (search requires ModeSeededMatch tokens)",
			len(q.DBTok), numChunks)
	}
	return q.checkTokenDegree(r)
}

// searchChunkRange is the one CPU kernel: it executes index generation
// for every group of a search over chunks [lo, hi) of db, appending hit
// records to out (global window indexing, each group's comparands on
// its rows from row0). A single query is one group with one member; a
// batch groups its members by DBTok plane and length
// (CPUEngine.search). The CPU engine's scheduler runs it over the whole
// database inline or over chunk ranges fanned out across its workers,
// mirroring how the paper maps one algorithm onto different substrates.
//
// Seeded-match index generation reads only the first ciphertext
// component, so the kernel never touches C[1] — half the ciphertext
// bytes. The range goes to ring.SubCmpNarrowBits one tile of
// ring.TileChunks chunks at a time, once per group: the kernel narrows
// the tile's C0 − DBTok differences into an L1-sized scratch of 16-bit
// lanes, rejects each 64-coefficient block against all of the group's
// comparands in one filter pass, and compares exactly only the blocks
// that can hold a hit. Chunk j's first component is read from memory
// once per search (later groups find the tile in cache), the token row
// DBTok[j] once per group in its 4- or 8-byte lanes, as it came off the
// wire, the cache-resident 16-bit comparand rows and the group's low
// row are the only other operands, and the only writes are the records
// of the words that hold a hit. On an arena the database reads are one
// sequential walk of the C0 plane. A tile's records come group by
// group, each group's chunk by chunk; a member's records, which lie in
// one group, still ascend by word. The 16-bit compare is the 64-bit
// one, bit for bit (DESIGN §4.3): cutNarrow checked that the group's
// comparands share their low part, and the kernel's guard checks the
// difference's low part against it.
//
// room is the records one chunk needs (ring.HitRoom over all groups'
// rows). Before each tile the kernel needs room for every chunk of it
// in out's spare capacity; when out lacks it, the kernel returns the
// chunk it stopped at, and runRange grows out and resumes. Everything
// else is built once per search by the caller, so the kernel itself is
// allocation-free: the tile's chunk descriptors and the ring kernel's
// scratch live on the stack.
//
//cm:hotpath
func searchChunkRange(r *ring.Ring, db *EncryptedDB, groups []planeGroup, lo, hi, room int, out []ring.HitWord) (int, []ring.HitWord) {
	n := r.N()
	per := ring.TileChunks(n)
	var tile [ring.MaxTileChunks]ring.NarrowChunk
	for j := lo; j < hi; j += per {
		k := min(per, hi-j)
		if cap(out)-len(out) < k*room {
			return j, out
		}
		for i := range groups {
			p := &groups[i]
			for c := range tile[:k] {
				tile[c].A, tile[c].D, tile[c].Top = db.Chunks[j+c].C[0], p.fq.tok[j+c], p.fq.narrowRow(j+c)
			}
			free := out[len(out):cap(out)]
			m := r.SubCmpNarrowBits(tile[:k], p.fq.low, free, j*n)
			for x := range free[:m] {
				free[x].Row += uint32(p.row0)
			}
			out = out[:len(out)+m]
		}
	}
	return hi, out
}

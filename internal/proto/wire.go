// Package proto implements a length-prefixed binary wire protocol for the
// CIPHERMATCH client-server deployment (§2.2): the client uploads its
// packed, encrypted database once, then each search is a single
// request/response round — the low-communication-complexity property HE
// affords over garbled-circuit or MPC approaches.
//
// Wire format: every message is 1 type byte + 4-byte little-endian payload
// length + payload. Ciphertext coefficients travel as ceil(log2 q / 8)-byte
// little-endian integers, so wire sizes match the paper's footprint
// accounting.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/ring"
)

// Message types. MsgUploadDB and MsgQuery address a named database, so
// one server process serves many tenants; MsgListDBs/MsgDropDB manage
// the namespace.
const (
	MsgUploadDB    byte = 1 // name + engine spec + database -> MsgAck
	MsgQuery       byte = 2 // name + query -> MsgResult
	MsgResult      byte = 3
	MsgError       byte = 4
	MsgAck         byte = 5
	MsgListDBs     byte = 6 // empty -> MsgDBList
	MsgDBList      byte = 7
	MsgDropDB      byte = 8 // name -> MsgAck
	MsgBatchQuery  byte = 9 // name + batch of queries -> MsgBatchResult
	MsgBatchResult byte = 10
	MsgStats       byte = 11 // empty -> MsgStatsResult (serving-metrics snapshot)
	MsgStatsResult byte = 12
	// MsgOverloaded is the typed admission-control rejection: the
	// addressed database's coalescing queue is at its depth cap (or the
	// server is shutting down), so the query was refused *before* any
	// work — retry with backoff. Distinct from MsgError so clients can
	// tell transient overload from a request that will never succeed.
	MsgOverloaded byte = 13
	// MsgServerError reports an internal server fault — a recovered
	// handler panic, or storage corruption detected mid-request. The
	// request did not produce a (possibly wrong) answer and the fault is
	// on the server side, not in the request: clients surface it as
	// ErrServerFault. The connection stays usable.
	MsgServerError byte = 14
	// MsgTraceDump requests completed request traces from the server's
	// flight-recorder rings (max count + slow-only selector) ->
	// MsgTraceDumpResult. Old servers answer with MsgError (unknown
	// message type), which clients surface as "tracing unsupported".
	MsgTraceDump       byte = 15
	MsgTraceDumpResult byte = 16
)

// ErrConnTruncated is the typed decode-path error for a connection or
// payload that ended mid-message: the peer vanished (or a fault dropped
// the connection) partway through a frame, or a frame's payload is
// shorter than its own structure promises. Transient from a client's
// point of view — queries are read-only, so reconnect-and-retry is
// always safe.
var ErrConnTruncated = errors.New("proto: connection truncated mid-message")

// ErrServerFault is the typed client-side form of MsgServerError: the
// server hit an internal fault (recovered panic, storage corruption)
// answering the request. Safe to retry read-only requests.
var ErrServerFault = errors.New("proto: server internal fault")

// errShortPayload is the buffer decoders' truncation error: a payload
// shorter than its declared structure. errors.Is(err, ErrConnTruncated).
var errShortPayload = fmt.Errorf("%w: payload short read", ErrConnTruncated)

// MaxNameLen bounds database names on the wire.
const MaxNameLen = 255

// Bounds on what a remote upload may request: a forged spec must not
// spawn unbounded goroutines or simulated drives server-side, and the
// store must not grow without limit. MaxUploadWorkers bounds the
// *total* worker count (workers × shards, with 0 workers counted as
// GOMAXPROCS); MaxUploadShards bounds per-database engines (each SSD
// shard is a full simulated drive); MaxStoredDBs bounds the namespace.
const (
	MaxUploadWorkers = 1024
	MaxUploadShards  = 64
	MaxStoredDBs     = 64
)

// MaxPayload bounds a single message (1 GiB) to keep a malformed peer from
// forcing huge allocations.
const MaxPayload = 1 << 30

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, msgType byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("proto: payload of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
	hdr[0] = msgType
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMessage reads one framed message. A clean close between messages
// returns io.EOF untouched (the peer simply hung up); any end-of-stream
// or short read *inside* a frame — partial header, partial payload —
// wraps ErrConnTruncated, so callers can type-switch a torn connection
// without matching on io error identities.
func ReadMessage(r io.Reader) (msgType byte, payload []byte, err error) {
	var hdr [5]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if n > 0 || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: header after %d bytes: %v", ErrConnTruncated, n, err)
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("proto: payload of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if m, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: payload after %d of %d bytes: %v", ErrConnTruncated, m, n, err)
	}
	return hdr[0], payload, nil
}

// buffer is a simple append/consume byte cursor.
type buffer struct {
	data []byte
	off  int
}

func (b *buffer) putUint32(v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.data = append(b.data, tmp[:]...)
}

func (b *buffer) putInt(v int) { b.putUint32(uint32(v)) }

func (b *buffer) putUint64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.data = append(b.data, tmp[:]...)
}

func (b *buffer) uint64() (uint64, error) {
	if b.off+8 > len(b.data) {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint64(b.data[b.off:])
	b.off += 8
	return v, nil
}

func (b *buffer) uint32() (uint32, error) {
	if b.off+4 > len(b.data) {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint32(b.data[b.off:])
	b.off += 4
	return v, nil
}

func (b *buffer) int() (int, error) {
	v, err := b.uint32()
	return int(v), err
}

func (b *buffer) putString(s string) {
	b.putInt(len(s))
	b.data = append(b.data, s...)
}

func (b *buffer) string() (string, error) {
	n, err := b.count(1)
	if err != nil {
		return "", err
	}
	if b.off+n > len(b.data) {
		return "", errShortPayload
	}
	s := string(b.data[b.off : b.off+n])
	b.off += n
	return s, nil
}

// count reads an element count and validates it against the remaining
// payload (each element encodes at least minElemBytes), so forged counts
// cannot force huge allocations. The bound is compared via division:
// n*minElemBytes can overflow int on 32-bit platforms, which would let a
// forged count slip past a multiplication-based check.
func (b *buffer) count(minElemBytes int) (int, error) {
	n, err := b.int()
	if err != nil {
		return 0, err
	}
	remaining := len(b.data) - b.off
	if n < 0 || n > remaining/minElemBytes {
		return 0, fmt.Errorf("proto: count %d exceeds remaining payload %d", n, remaining)
	}
	return n, nil
}

// putPoly appends a polynomial as qBytes-wide little-endian
// coefficients. The buffer grows once per polynomial and width 4
// (ParamsPaper, the served parameter set) skips the byte-wise path; the
// bytes emitted are the same either way.
func (b *buffer) putPoly(p ring.Poly, qBytes int) {
	b.putInt(len(p))
	off := len(b.data)
	b.data = slices.Grow(b.data, len(p)*qBytes)[:off+len(p)*qBytes]
	dst := b.data[off:]
	if qBytes == 4 {
		for i, c := range p {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(c))
		}
		return
	}
	var tmp [8]byte
	for i, c := range p {
		binary.LittleEndian.PutUint64(tmp[:], c)
		copy(dst[i*qBytes:], tmp[:qBytes])
	}
}

// poly decodes a polynomial and enforces that it has exactly degree
// coefficients: every polynomial on this wire (chunk ciphertext
// components, match tokens) is a ring element of the
// session's parameter set, and the search kernels size their loops and
// bitset writes from these lengths, so a peer must not be able to
// smuggle in oversized polynomials.
func (b *buffer) poly(qBytes, degree int) (ring.Poly, error) {
	out := make(ring.Poly, degree)
	if err := b.polyInto(out, qBytes); err != nil {
		return nil, err
	}
	return out, nil
}

// polyInto decodes a polynomial into dst, whose length fixes the
// expected coefficient count. Once the count and payload bounds hold,
// the coefficient bytes are sliced once and width 4 runs a straight
// load loop (the same specialisation as putPoly).
func (b *buffer) polyInto(dst ring.Poly, qBytes int) error {
	n, err := b.count(qBytes)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("proto: polynomial has %d coefficients, ring degree is %d", n, len(dst))
	}
	need := n * qBytes
	if b.off+need > len(b.data) {
		return errShortPayload
	}
	src := b.data[b.off : b.off+need]
	b.off += need
	if qBytes == 4 {
		for i := range dst {
			dst[i] = uint64(binary.LittleEndian.Uint32(src[4*i:]))
		}
		return nil
	}
	var tmp [8]byte
	for i := range dst {
		clear(tmp[:])
		copy(tmp[:qBytes], src[i*qBytes:])
		dst[i] = binary.LittleEndian.Uint64(tmp[:])
	}
	return nil
}

func (b *buffer) putCiphertext(ct *bfv.Ciphertext, qBytes int) {
	b.putInt(len(ct.C))
	for _, p := range ct.C {
		b.putPoly(p, qBytes)
	}
}

// EncodeDB serialises an encrypted database.
func EncodeDB(db *core.EncryptedDB, p bfv.Params) []byte {
	var b buffer
	b.putInt(db.BitLen)
	b.putInt(db.NumSegments)
	b.putInt(len(db.Chunks))
	qb := p.QBytes()
	for _, ct := range db.Chunks {
		b.putCiphertext(ct, qb)
	}
	return b.data
}

// DecodeDB is the inverse of EncodeDB. Chunk coefficients decode
// directly into the contiguous search arena (the chunk count precedes
// the chunks), so an upload never holds loose per-chunk polynomials
// and the arena at the same time — peak memory is one copy of the
// database. Database chunks must be fresh 2-component ciphertexts,
// which is all EncodeDB ever produces.
func DecodeDB(data []byte, p bfv.Params) (*core.EncryptedDB, error) {
	b := buffer{data: data}
	bitLen, err := b.int()
	if err != nil {
		return nil, err
	}
	numSegments, err := b.int()
	if err != nil {
		return nil, err
	}
	qb := p.QBytes()
	// NewCompactDB allocates the full 2·n·N·qb arena up front, so the
	// chunk count must be bounded by what the payload can actually
	// carry: each chunk encodes a component-count word plus two
	// components of a 4-byte length and N·qb coefficient bytes. The old
	// bound of 8 bytes/chunk let a short hostile payload demand a
	// multi-terabyte arena (count×N amplification); found while
	// annotating the decoders for cmvet's wiresize analyzer.
	minChunkBytes := 4 + 2*(4+p.N*qb)
	n, err := b.count(minChunkBytes)
	if err != nil {
		return nil, err
	}
	db := core.NewCompactDB(p.N, n)
	db.BitLen = bitLen
	db.NumSegments = numSegments
	for i := range db.Chunks {
		ncomp, err := b.int()
		if err != nil {
			return nil, err
		}
		if ncomp != 2 {
			return nil, fmt.Errorf("proto: database chunk %d has %d components, want 2", i, ncomp)
		}
		for c := 0; c < 2; c++ {
			if err := b.polyInto(db.Chunks[i].C[c], qb); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// sortedKeys returns a map's integer keys in ascending order, so map
// iteration order never leaks into wire bytes.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// factoredSentinel opens the versioned encodings of MsgQuery and
// MsgBatchQuery. It occupies the slot the retired un-versioned layouts
// used for YBits (query) or the pattern-pool count (batch), neither of
// which can ever be 2^32-1, so a payload that does not start with it is
// rejected outright instead of being misparsed.
const factoredSentinel = ^uint32(0)

// factoredWireVersion is the current version word of the query
// encodings; unknown versions are rejected, so the format can evolve.
const factoredWireVersion = 1

// EncodeQuery serialises a seeded-match query: metadata, the DBTok
// plane and the per-phase RHS polynomials. Pattern ciphertexts are NOT
// shipped — seeded-match index generation runs entirely on DBTok/RHS.
// Map-backed sections are emitted in sorted key order, so the same
// query always encodes to the same bytes — the property batch-level
// deduplication and any caching keyed on encodings rely on.
func EncodeQuery(q *core.Query, p bfv.Params) []byte {
	qb := p.QBytes()
	var b buffer
	b.putUint32(factoredSentinel)
	b.putInt(factoredWireVersion)
	b.putInt(q.YBits)
	b.putInt(q.AlignBits)
	b.putInt(q.DBBitLen)
	b.putInt(q.NumChunks)
	b.putInt(len(q.Residues))
	for _, r := range q.Residues {
		b.putInt(r)
	}
	b.putInt(len(q.DBTok))
	for _, tok := range q.DBTok {
		b.putPoly(tok, qb)
	}
	b.putInt(len(q.RHS))
	for _, psi := range sortedKeys(q.RHS) {
		b.putInt(psi)
		b.putPoly(q.RHS[psi], qb)
	}
	return b.data
}

// decodeWireVersion reads the sentinel and version words that open
// every query encoding.
func decodeWireVersion(b *buffer) error {
	first, err := b.uint32()
	if err != nil {
		return err
	}
	if first != factoredSentinel {
		return fmt.Errorf("proto: un-versioned query encoding (first word %#x) is not supported", first)
	}
	version, err := b.int()
	if err != nil {
		return err
	}
	if version != factoredWireVersion {
		return fmt.Errorf("proto: unsupported query encoding version %d", version)
	}
	return nil
}

// decodeQueryHeader reads the metadata fields shared by the single and
// the batch-member query encodings.
func decodeQueryHeader(b *buffer, q *core.Query) error {
	var err error
	if q.YBits, err = b.int(); err != nil {
		return err
	}
	if q.AlignBits, err = b.int(); err != nil {
		return err
	}
	if q.DBBitLen, err = b.int(); err != nil {
		return err
	}
	if q.NumChunks, err = b.int(); err != nil {
		return err
	}
	nres, err := b.count(4)
	if err != nil {
		return err
	}
	q.Residues = make([]int, nres)
	for i := range q.Residues {
		if q.Residues[i], err = b.int(); err != nil {
			return err
		}
	}
	return nil
}

// DecodeQuery is the inverse of EncodeQuery. The DBTok plane must cover
// exactly NumChunks chunks — the kernels index it per chunk — and every
// polynomial is held to the ring degree, so a hostile peer cannot
// smuggle mis-shaped comparands into the fused kernel.
func DecodeQuery(data []byte, p bfv.Params) (*core.Query, error) {
	b := &buffer{data: data}
	if err := decodeWireVersion(b); err != nil {
		return nil, err
	}
	q := &core.Query{}
	if err := decodeQueryHeader(b, q); err != nil {
		return nil, err
	}
	qb := p.QBytes()
	ntok, err := b.count(8) // poly length word + at least one coefficient
	if err != nil {
		return nil, err
	}
	if ntok != q.NumChunks {
		return nil, fmt.Errorf("proto: query DBTok plane has %d chunks, header says %d", ntok, q.NumChunks)
	}
	q.DBTok = make([]ring.Poly, ntok)
	for j := range q.DBTok {
		if q.DBTok[j], err = b.poly(qb, p.N); err != nil {
			return nil, err
		}
	}
	nrhs, err := b.count(8) // psi word + poly length word
	if err != nil {
		return nil, err
	}
	q.RHS = make(map[int]ring.Poly, nrhs)
	for i := 0; i < nrhs; i++ {
		psi, err := b.int()
		if err != nil {
			return nil, err
		}
		if q.RHS[psi], err = b.poly(qb, p.N); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// EncodeUploadDB frames a named database upload: the target name, the
// requested engine spec (empty kind = server default), then the
// database itself.
func EncodeUploadDB(name string, spec core.EngineSpec, db *core.EncryptedDB, p bfv.Params) []byte {
	var b buffer
	b.putString(name)
	b.putString(spec.Kind)
	b.putInt(spec.Workers)
	b.putInt(spec.Shards)
	b.data = append(b.data, EncodeDB(db, p)...)
	return b.data
}

// DecodeUploadDB is the inverse of EncodeUploadDB.
func DecodeUploadDB(data []byte, p bfv.Params) (string, core.EngineSpec, *core.EncryptedDB, error) {
	b := buffer{data: data}
	var spec core.EngineSpec
	name, err := b.string()
	if err != nil {
		return "", spec, nil, err
	}
	if spec.Kind, err = b.string(); err != nil {
		return "", spec, nil, err
	}
	if spec.Workers, err = b.int(); err != nil {
		return "", spec, nil, err
	}
	if spec.Shards, err = b.int(); err != nil {
		return "", spec, nil, err
	}
	db, err := DecodeDB(data[b.off:], p)
	return name, spec, db, err
}

// EncodeNamedQuery frames a query addressed to a named database.
func EncodeNamedQuery(name string, q *core.Query, p bfv.Params) []byte {
	var b buffer
	b.putString(name)
	b.data = append(b.data, EncodeQuery(q, p)...)
	return b.data
}

// SplitNamedQuery peels the database name off a MsgQuery payload
// without decoding the query itself. The coalescer routes on the name
// and deduplicates members on the raw query bytes, deferring the
// expensive decode (one polynomial per chunk in the factored form) to
// batch execution, where identical payloads decode once per window.
func SplitNamedQuery(data []byte) (string, []byte, error) {
	b := buffer{data: data}
	name, err := b.string()
	if err != nil {
		return "", nil, err
	}
	return name, data[b.off:], nil
}

// DecodeNamedQuery is the inverse of EncodeNamedQuery.
func DecodeNamedQuery(data []byte, p bfv.Params) (string, *core.Query, error) {
	b := buffer{data: data}
	name, err := b.string()
	if err != nil {
		return "", nil, err
	}
	q, err := DecodeQuery(data[b.off:], p)
	return name, q, err
}

// EncodeName frames a bare database name (MsgDropDB).
func EncodeName(name string) []byte {
	var b buffer
	b.putString(name)
	return b.data
}

// DecodeName is the inverse of EncodeName.
func DecodeName(data []byte) (string, error) {
	b := buffer{data: data}
	return b.string()
}

// Residency states reported in DBInfo.State. A durable store serves
// cold databases transparently (the first search reloads the segment),
// so the listing distinguishes what is costing memory right now.
const (
	StateResident    = "resident"
	StateCold        = "cold"
	StateRetired     = "retired"
	StateQuarantined = "quarantined" // corrupt: fenced off, serves a typed error
)

// DBInfo describes one hosted database (MsgDBList). Chunks and BitLen
// come from registration metadata — persisted in the segment header and
// manifest — so they are valid for cold (evicted or not-yet-loaded)
// databases too.
type DBInfo struct {
	Name     string
	Engine   string // engine description ("pool(8 workers)") or, cold, the spec ("pool:8")
	State    string // StateResident, StateCold or StateRetired
	Chunks   int
	BitLen   int
	Searches int
}

// EncodeDBList serialises the database listing.
func EncodeDBList(infos []DBInfo) []byte {
	var b buffer
	b.putInt(len(infos))
	for _, in := range infos {
		b.putString(in.Name)
		b.putString(in.Engine)
		b.putString(in.State)
		b.putInt(in.Chunks)
		b.putInt(in.BitLen)
		b.putInt(in.Searches)
	}
	return b.data
}

// DecodeDBList is the inverse of EncodeDBList.
func DecodeDBList(data []byte) ([]DBInfo, error) {
	b := buffer{data: data}
	n, err := b.count(24) // six 4-byte words minimum per entry
	if err != nil {
		return nil, err
	}
	infos := make([]DBInfo, n)
	for i := range infos {
		if infos[i].Name, err = b.string(); err != nil {
			return nil, err
		}
		if infos[i].Engine, err = b.string(); err != nil {
			return nil, err
		}
		if infos[i].State, err = b.string(); err != nil {
			return nil, err
		}
		if infos[i].Chunks, err = b.int(); err != nil {
			return nil, err
		}
		if infos[i].BitLen, err = b.int(); err != nil {
			return nil, err
		}
		if infos[i].Searches, err = b.int(); err != nil {
			return nil, err
		}
	}
	return infos, nil
}

// CandidateWireBytes is the wire width of one candidate offset (4-byte
// little-endian). Defined in core so that engines accounting
// host-transfer bytes (the SSD controller) agree with the encoding
// without importing proto.
const CandidateWireBytes = core.CandidateWireBytes

// putCandidates appends a candidate-offset list: a count plus
// CandidateWireBytes-wide offsets. Offsets the encoding cannot
// represent are rejected rather than silently truncated — on databases
// past 2^32 bits a truncated offset would point at the wrong data.
func (b *buffer) putCandidates(candidates []int) error {
	b.putInt(len(candidates))
	for _, c := range candidates {
		if c < 0 || c > math.MaxUint32 {
			return fmt.Errorf("proto: candidate offset %d does not fit the %d-byte wire encoding", c, CandidateWireBytes)
		}
		b.putUint32(uint32(c))
	}
	return nil
}

// candidates is the inverse of putCandidates. Offsets a 32-bit int
// cannot hold are rejected rather than wrapped negative, mirroring the
// encode-side bound.
func (b *buffer) candidates() ([]int, error) {
	n, err := b.count(CandidateWireBytes)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		v, err := b.uint32()
		if err != nil {
			return nil, err
		}
		if int(v) < 0 {
			return nil, fmt.Errorf("proto: candidate offset %d overflows int on this platform", v)
		}
		out[i] = int(v)
	}
	return out, nil
}

// EncodeStats serialises a serving-metrics snapshot (MsgStatsResult): a
// flat list of (name, int64 value) samples, the Registry.Snapshot
// flattening. Names are what keys the catalog; values are 64-bit so
// counters never wrap on the wire.
func EncodeStats(kvs []metrics.KV) []byte {
	var b buffer
	b.putInt(len(kvs))
	for _, kv := range kvs {
		b.putString(kv.Name)
		b.putUint64(uint64(kv.Value))
	}
	return b.data
}

// DecodeStats is the inverse of EncodeStats.
func DecodeStats(data []byte) ([]metrics.KV, error) {
	b := buffer{data: data}
	n, err := b.count(12) // name length word + 8 value bytes
	if err != nil {
		return nil, err
	}
	kvs := make([]metrics.KV, n)
	for i := range kvs {
		if kvs[i].Name, err = b.string(); err != nil {
			return nil, err
		}
		v, err := b.uint64()
		if err != nil {
			return nil, err
		}
		kvs[i].Value = int64(v)
	}
	return kvs, nil
}

// EncodeResult serialises candidate offsets. It fails on offsets above
// math.MaxUint32 instead of corrupting them.
func EncodeResult(candidates []int) ([]byte, error) {
	var b buffer
	if err := b.putCandidates(candidates); err != nil {
		return nil, err
	}
	return b.data, nil
}

// DecodeResult is the inverse of EncodeResult.
func DecodeResult(data []byte) ([]int, error) {
	b := buffer{data: data}
	return b.candidates()
}

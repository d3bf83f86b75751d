// Package trace is the per-request lifecycle tracer of the CIPHERMATCH
// server: every query is stamped with a trace ID (client-generated when
// the client speaks the trace wire extension, server-assigned
// otherwise) and accumulates a monotonic per-stage latency breakdown as
// it moves through the serving pipeline — socket read, wire decode,
// admission, coalesce-window wait, batch formation, the arena pass
// (with chunk streams and HomAdds attributed back to the request),
// result encode, socket write. Completed traces land in fixed-size
// lock-free ring buffers (all traffic, plus a slow-query ring gated on
// a total-latency threshold) exported three ways: the MsgTraceDump wire
// message, the /traces and /traces/slow JSON endpoints, and per-stage
// latency histograms in the serving-metrics registry.
//
// The paper's whole argument is about where time and bytes go (data
// movement vs compute, one flash sweep vs R); this package is the layer
// that keeps producing that attribution on live traffic, so "the server
// got slower" decomposes into "coalesce wait grew" vs "the arena pass
// grew" without a profiler attach.
//
// Hot-path contract: recording costs zero heap allocations per request.
// A Trace is a fixed-size value owned by its connection handler and
// reused across requests; Finish copies it into the rings by value.
// This is pinned by TestTraceRecordAllocs (testing.AllocsPerRun == 0)
// and the stamp helpers are annotated for cmvet's hotpath analyzer.
package trace

// Stage indexes one serving-pipeline stage of a request's lifecycle.
// The catalog is ordered the way a request experiences it; stages a
// request skips (a non-coalesced query never waits in a window) simply
// stay at zero.
type Stage uint8

const (
	// StageRead is the socket read of the request frame: first byte of
	// the frame arriving to the full payload in memory.
	StageRead Stage = iota
	// StageDecode is wire decoding: name split plus query decode. For
	// coalesced queries the decode is deferred into batch formation and
	// shared across byte-identical members; each member's trace carries
	// the shared decode time here.
	StageDecode
	// StageAdmission is admission control: queue lookup, depth check and
	// enqueue into the coalescing window (or rejection).
	StageAdmission
	// StageCoalesceWait is the time parked in the coalescing window,
	// from enqueue to the executor claiming the batch.
	StageCoalesceWait
	// StageBatchForm is batch formation in the executor: payload dedup,
	// group decode, and BatchQuery assembly.
	StageBatchForm
	// StageArena is the arena pass: the engine streaming the ciphertext
	// arena and generating the match index.
	StageArena
	// StageEncode is result encoding (candidates to wire bytes).
	StageEncode
	// StageWrite is the socket write of a reply frame — of the previous
	// reply on the same connection: a trace is published before its own
	// reply is written (so a client holding a reply always finds its
	// record), and the write time is carried onto the next trace.
	StageWrite

	// NumStages is the size of the per-trace stage array.
	NumStages = int(StageWrite) + 1
)

// stageNames are the exported stage keys — metric label values, JSON
// field keys and cmtop column headers all use exactly these.
var stageNames = [NumStages]string{
	"read", "decode", "admission", "coalesce_wait", "batch_form",
	"arena", "encode", "write",
}

// String returns the stage's catalog name.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns the ordered stage-name catalog.
func StageNames() []string {
	out := make([]string, NumStages)
	copy(out, stageNames[:])
	return out
}

// Outcome flag bits of Trace.Flags.
const (
	// FlagError marks a request answered with an error (any type).
	FlagError uint8 = 1 << iota
	// FlagRejected marks an admission-control rejection (MsgOverloaded);
	// FlagError is set too.
	FlagRejected
	// FlagCoalesced marks a query that shared its batch window with at
	// least one other query.
	FlagCoalesced
	// FlagClientID marks a trace whose ID came from the client's wire
	// extension rather than the server's own sequence.
	FlagClientID
)

// Trace is one request's lifecycle record: identity, per-stage
// latencies, and the work the arena pass performed on the request's
// behalf. It is a fixed-size value (the only pointer is the tenant
// string's header, which aliases the store's name — no per-request
// allocation) reused by its owning connection handler across requests.
type Trace struct {
	// ID is the trace ID: client-generated when the query carried the
	// trace wire extension (FlagClientID), otherwise the server's own
	// sequence number.
	ID uint64
	// Seq is the server-assigned completion sequence number, totally
	// ordered across connections.
	Seq uint64
	// Tenant is the database name the query addressed.
	Tenant string
	// Start is the request's wall-clock start, UnixNano (first byte of
	// the frame). Stage latencies are monotonic-clock durations; Start
	// only anchors the trace in calendar time for humans.
	Start int64
	// StageNS holds nanoseconds spent per stage, indexed by Stage.
	StageNS [NumStages]int64
	// TotalNS is the server-side request latency: first byte of the
	// frame to the reply being ready for the socket.
	TotalNS int64
	// ChunkStreams and HomAdds are the arena work attributed to this
	// request by the engine (a coalesced member gets its own share from
	// the batch kernel's per-member stats).
	ChunkStreams int64
	HomAdds      int64
	// Batch is the occupancy of the window the query rode in (1 = solo
	// or direct path).
	Batch int32
	// Flags holds the Flag* outcome bits.
	Flags uint8
}

// Reset clears the trace for reuse. It deliberately avoids a composite
// literal so the reset stays allocation-free under the hotpath rules.
//
//cm:hotpath
func (t *Trace) Reset() {
	t.ID = 0
	t.Seq = 0
	t.Tenant = ""
	t.Start = 0
	for i := range t.StageNS {
		t.StageNS[i] = 0
	}
	t.TotalNS = 0
	t.ChunkStreams = 0
	t.HomAdds = 0
	t.Batch = 0
	t.Flags = 0
}

// Stamp adds ns nanoseconds to the stage's latency. Stages may be
// stamped more than once (a retried reload, a fallback re-decode); the
// contributions accumulate.
//
//cm:hotpath
func (t *Trace) Stamp(s Stage, ns int64) {
	t.StageNS[s] += ns
}

// StagesTotal sums the stamped stage latencies — the accounted-for part
// of TotalNS (the remainder is scheduler/queue time between stages).
//
//cm:hotpath
func (t *Trace) StagesTotal() int64 {
	var sum int64
	for i := range t.StageNS {
		sum += t.StageNS[i]
	}
	return sum
}

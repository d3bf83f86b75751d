package trace

import (
	"sync"
	"sync/atomic"
)

// Ring is a fixed-size ring buffer of completed traces built for the
// record path of a flight recorder: writers claim distinct slots with
// one atomic add, so the per-slot mutex they then take is effectively
// uncontended — it only ever conflicts with a Snapshot reader touching
// that exact slot, or a writer a full ring-lap ahead. Readers use
// TryLock and skip busy slots rather than stall a writer. Nothing on
// the write path allocates, and under overload the ring simply
// overwrites its oldest entries — exactly the retention policy a
// flight recorder wants.
type Ring struct {
	mask  uint64
	next  atomic.Uint64 // next slot sequence to claim
	slots []slot
}

// slot is one ring entry. gen is the claiming sequence of the write it
// holds, guarded by mu; Snapshot uses it to drop slots lapped by newer
// writes between its sequence read and the slot visit.
type slot struct {
	mu  sync.Mutex
	gen uint64
	tr  Trace
	// pad keeps neighbouring slots from false-sharing their locks under
	// concurrent writers. A Trace is already several cache lines, so one
	// word is enough to keep mu off a shared line boundary.
	_ [8]byte
}

// NewRing creates a ring with capacity rounded up to a power of two
// (minimum 8).
func NewRing(capacity int) *Ring {
	n := 8
	for n < capacity {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]slot, n)}
}

// Len returns how many traces have been recorded in total (not capped
// at the ring size — the overwrite count is Len minus the slot count when positive).
func (r *Ring) Len() uint64 { return r.next.Load() }

// Put records one trace by value. Safe for any number of concurrent
// writers; never allocates, and only blocks in the rare cases of a
// reader copying this very slot or a writer lapping the whole ring
// mid-copy.
func (r *Ring) Put(t *Trace) {
	n := r.next.Add(1) - 1
	s := &r.slots[n&r.mask]
	s.mu.Lock()
	if s.gen <= n { // a lapped slower writer must not clobber newer data
		s.gen = n
		s.tr = *t
	}
	s.mu.Unlock()
}

// Snapshot copies out up to max traces, newest first, skipping slots
// held by concurrent writers. max <= 0 means the whole ring.
func (r *Ring) Snapshot(max int) []Trace {
	n := r.next.Load()
	avail := n
	if avail > uint64(len(r.slots)) {
		avail = uint64(len(r.slots))
	}
	if max > 0 && uint64(max) < avail {
		avail = uint64(max)
	}
	out := make([]Trace, 0, avail)
	for i := uint64(0); i < avail && n >= i+1; i++ {
		seq := n - 1 - i
		s := &r.slots[seq&r.mask]
		if !s.mu.TryLock() {
			continue // writer mid-copy; skip rather than stall it
		}
		gen, tr := s.gen, s.tr
		s.mu.Unlock()
		if gen != seq {
			continue // not yet written, or lapped by a newer write
		}
		out = append(out, tr)
	}
	return out
}

package flash

import "time"

// Stats accumulates operation counts, latency and energy for a plane (or,
// summed, for larger units). The timing model is serial within a plane:
// latch operations cannot overlap on the same peripheral circuitry.
type Stats struct {
	Reads          int
	Programs       int
	LatchTransfers int
	AndOrOps       int
	XorOps         int
	LatchWrites    int // operand loads from the controller into S
	LatchReads     int // result reads from D-latches to the controller
	BitSerialAdds  int // completed bit-serial additions (per bit step)

	Time   time.Duration
	Energy float64 // joules
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Programs += other.Programs
	s.LatchTransfers += other.LatchTransfers
	s.AndOrOps += other.AndOrOps
	s.XorOps += other.XorOps
	s.LatchWrites += other.LatchWrites
	s.LatchReads += other.LatchReads
	s.BitSerialAdds += other.BitSerialAdds
	s.Time += other.Time
	s.Energy += other.Energy
}

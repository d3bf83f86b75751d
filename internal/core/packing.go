// Package core implements the CIPHERMATCH algorithm (§4.2 of the paper):
// the memory-efficient data packing scheme, the addition-only secure exact
// string matching algorithm with query negation / replication / shift
// variants, and both index-generation modes. It also implements the two
// baselines the paper compares against: the arithmetic approach of Yasuda
// et al. [27] (Hamming distance via homomorphic multiplication) and the
// Boolean approach (per-bit encryption with XNOR/AND gates).
//
// Bit conventions: the database and query are flat bit strings, MSB-first
// within each byte (see internal/mathutil). A 16-bit segment covers bit
// positions [16i, 16i+16), its first bit being the segment's MSB, matching
// the paper's left-to-right notation T(0) = (b0, ..., b15).
package core

import (
	"fmt"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/mathutil"
)

// SegmentBits is the packing width t of the paper's configuration: 16
// database bits per plaintext coefficient (§4.2.1).
const SegmentBits = 16

// PackSegments partitions a bit stream of bitLen bits (stored MSB-first in
// data) into 16-bit segments, zero-padding the tail. This is Eq. (5): the
// packed message m(T) = (T(0), T(1), ...).
func PackSegments(data []byte, bitLen int) []uint16 {
	if bitLen < 0 || bitLen > len(data)*8 {
		panic("core: bitLen out of range")
	}
	numSegs := (bitLen + SegmentBits - 1) / SegmentBits
	segs := make([]uint16, numSegs)
	for i := range segs {
		segs[i] = mathutil.Segment16(data[:(bitLen+7)/8], i*SegmentBits)
	}
	// Mask padding bits beyond bitLen inside the final segment: they must
	// read as zero regardless of the storage byte contents.
	if rem := bitLen % SegmentBits; rem != 0 && numSegs > 0 {
		segs[numSegs-1] &= ^uint16(0) << (SegmentBits - rem)
	}
	return segs
}

// ChunkPlaintexts splits segments into plaintext polynomials of n
// coefficients each (Eq. 6), zero-padding the final chunk.
func ChunkPlaintexts(segs []uint16, params bfv.Params) ([]*bfv.Plaintext, error) {
	enc := bfv.NewEncoder(params)
	n := params.N
	numChunks := (len(segs) + n - 1) / n
	if numChunks == 0 {
		numChunks = 1
	}
	out := make([]*bfv.Plaintext, numChunks)
	for j := 0; j < numChunks; j++ {
		lo := j * n
		hi := min(lo+n, len(segs))
		var window []uint16
		if lo < len(segs) {
			window = segs[lo:hi]
		}
		pt, err := enc.EncodeUint16(window)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", j, err)
		}
		out[j] = pt
	}
	return out, nil
}

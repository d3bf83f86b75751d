// Package workload generates the two evaluation workloads of §5.3:
// (1) exact DNA string matching — a synthetic genome with planted reads,
// 2-bit base encoding, query sizes of 8-128 base pairs (16-256 bits); and
// (2) encrypted database search — fixed-width key-value records searched
// by key.
package workload

import (
	"fmt"

	"ciphermatch/internal/rng"
)

// Bases are the DNA alphabet in encoding order: A=00, C=01, G=10, T=11.
const Bases = "ACGT"

// RandomGenome returns numBases random bases as ASCII letters.
func RandomGenome(numBases int, src *rng.Source) []byte {
	g := make([]byte, numBases)
	for i := range g {
		g[i] = Bases[src.Intn(4)]
	}
	return g
}

// EncodeBases packs ASCII bases into the 2-bit-per-base bit stream
// (MSB-first) the matcher consumes, returning the packed bytes and the bit
// length.
func EncodeBases(bases []byte) ([]byte, int, error) {
	bits := 2 * len(bases)
	out := make([]byte, (bits+7)/8)
	for i, b := range bases {
		var code byte
		switch b {
		case 'A', 'a':
			code = 0
		case 'C', 'c':
			code = 1
		case 'G', 'g':
			code = 2
		case 'T', 't':
			code = 3
		default:
			return nil, 0, fmt.Errorf("workload: invalid base %q at position %d", b, i)
		}
		// Base i occupies bits [2i, 2i+2), MSB-first: 4 bases per byte.
		shift := uint(6 - 2*(i%4))
		out[i/4] |= code << shift
	}
	return out, bits, nil
}

// ExtractRead copies length bases starting at base position pos — a
// sequencing read drawn from the genome, the query of the DNA case study.
func ExtractRead(genome []byte, pos, length int) ([]byte, error) {
	if pos < 0 || pos+length > len(genome) {
		return nil, fmt.Errorf("workload: read [%d, %d) outside genome of %d bases", pos, pos+length, len(genome))
	}
	read := make([]byte, length)
	copy(read, genome[pos:pos+length])
	return read, nil
}

// Package rng provides the deterministic randomness used throughout the
// CIPHERMATCH reproduction: uniform, ternary and centered-binomial samplers
// over a seeded ChaCha8 stream, plus domain-separated forking.
//
// Determinism matters twice here. First, every experiment in the harness is
// reproducible from a fixed seed. Second, the paper's server-side index
// generation (§4.2.2) compares result ciphertexts against an "encrypted
// match polynomial"; that comparison is only meaningful if the client can
// reconstruct the encryption randomness of each database chunk, which we
// realise by deriving all database encryption randomness from a client-held
// seed via Fork (a PRF-style domain separation built on SHA-256).
package rng

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	mrand "math/rand/v2"
)

// Source is a deterministic random source. It is not safe for concurrent
// use; Fork children are independent and may be used from different
// goroutines.
type Source struct {
	seed [32]byte
	ch   *mrand.ChaCha8
}

// NewSource returns a Source seeded with the given 32-byte seed.
func NewSource(seed [32]byte) *Source {
	return &Source{seed: seed, ch: mrand.NewChaCha8(seed)}
}

// NewSourceFromString derives a Source from an arbitrary string label, for
// tests and examples.
func NewSourceFromString(label string) *Source {
	return NewSource(sha256.Sum256([]byte(label)))
}

// NewRandomSource returns a Source seeded from the operating system's
// entropy pool.
func NewRandomSource() (*Source, error) {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("rng: reading system entropy: %w", err)
	}
	return NewSource(seed), nil
}

// Fork derives an independent child source bound to the given domain. The
// same (seed, domain) pair always yields the same child stream, and distinct
// domains yield computationally independent streams.
func (s *Source) Fork(domain string) *Source {
	h := sha256.New()
	h.Write(s.seed[:])
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(domain)))
	h.Write(lenBuf[:])
	h.Write([]byte(domain))
	var child [32]byte
	copy(child[:], h.Sum(nil))
	return NewSource(child)
}

// ForkIndexed is shorthand for Fork with a numeric domain component, used to
// derive per-chunk encryption randomness.
func (s *Source) ForkIndexed(domain string, index int) *Source {
	return s.Fork(fmt.Sprintf("%s/%d", domain, index))
}

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.ch.Uint64() }

// Uniform returns a uniform value in [0, mod) using rejection sampling, so
// the distribution is exactly uniform for any modulus.
func (s *Source) Uniform(mod uint64) uint64 {
	if mod == 0 {
		panic("rng: Uniform with zero modulus")
	}
	if mod&(mod-1) == 0 {
		return s.ch.Uint64() & (mod - 1)
	}
	// Largest multiple of mod below 2^64.
	limit := -mod % mod // == 2^64 mod mod
	for {
		v := s.ch.Uint64()
		if v >= limit {
			return v % mod
		}
	}
}

// Intn returns a uniform value in [0, n).
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	return int(s.Uniform(uint64(n)))
}

// Ternary returns a uniform sample from {-1, 0, +1}, the secret/ephemeral
// key distribution of the BFV instantiation. It is Uniform(3) - 1 with the
// rejection limit 2^64 mod 3 = 1 folded in, so the constant modulus
// compiles to a multiply instead of two divisions per draw.
func (s *Source) Ternary() int64 {
	for {
		if v := s.ch.Uint64(); v != 0 {
			return int64(v%3) - 1
		}
	}
}

// CBD returns a sample from the centered binomial distribution with
// parameter eta: the difference of two eta-bit popcounts, supported on
// [-eta, +eta] with variance eta/2. This is the error distribution of the
// BFV instantiation.
func (s *Source) CBD(eta int) int64 {
	if eta <= 0 || eta > 32 {
		panic("rng: CBD eta out of range")
	}
	v := s.ch.Uint64()
	mask := uint64(1)<<uint(eta) - 1
	a := bits.OnesCount64(v & mask)
	b := bits.OnesCount64((v >> uint(eta)) & mask)
	return int64(a) - int64(b)
}

// Bytes fills p with uniform random bytes.
func (s *Source) Bytes(p []byte) {
	var w uint64
	for i := range p {
		if i%8 == 0 {
			w = s.ch.Uint64()
		}
		p[i] = byte(w)
		w >>= 8
	}
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.ch.Uint64()>>11) / (1 << 53)
}

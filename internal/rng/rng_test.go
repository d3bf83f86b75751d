package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// TestSamplerGoldenStream pins the exact output of the samplers every
// ciphertext's randomness is drawn from: SHA-256 over 1<<16 draws each of
// Ternary, CBD(3) and Uniform(2^32) from one fixed seed. Stored database
// ciphertexts and a client's token re-derivation depend on these values,
// so a faster sampler must reproduce them bit for bit.
func TestSamplerGoldenStream(t *testing.T) {
	src := NewSourceFromString("sampler-golden")
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := 0; i < 1<<16; i++ {
		put(uint64(src.Ternary()))
	}
	for i := 0; i < 1<<16; i++ {
		put(uint64(src.CBD(3)))
	}
	for i := 0; i < 1<<16; i++ {
		put(src.Uniform(1 << 32))
	}
	const want = "84f65f08bd8b20dfc4ff9a056a404de80eb7b36e1b2a9b8210bea8f8088d7f95"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("sampler stream changed: sha256 %s, golden %s", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	a := NewSourceFromString("seed")
	b := NewSourceFromString("seed")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a := NewSourceFromString("seed-a")
	b := NewSourceFromString("seed-b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("distinct seeds produced %d/64 identical words", same)
	}
}

func TestForkIndependenceAndDeterminism(t *testing.T) {
	parent := NewSourceFromString("parent")
	c1 := parent.Fork("chunk")
	c2 := NewSourceFromString("parent").Fork("chunk")
	for i := 0; i < 32; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("fork with same domain must be deterministic")
		}
	}
	d1 := parent.Fork("a")
	d2 := parent.Fork("b")
	same := 0
	for i := 0; i < 64; i++ {
		if d1.Uint64() == d2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatal("forks with distinct domains must differ")
	}
	// Forking must not disturb the parent stream.
	p1 := NewSourceFromString("parent")
	p2 := NewSourceFromString("parent")
	_ = p2.Fork("x")
	for i := 0; i < 16; i++ {
		if p1.Uint64() != p2.Uint64() {
			t.Fatal("Fork must not consume parent state")
		}
	}
}

func TestForkIndexedDomainSeparation(t *testing.T) {
	p := NewSourceFromString("p")
	// "a/11" could collide with "a/1" + "1" under naive concatenation;
	// the length prefix prevents prefix-extension collisions across a
	// single Fork call, and indexed forks must be pairwise distinct.
	s1 := p.ForkIndexed("a", 11)
	s2 := p.ForkIndexed("a", 1)
	if s1.Uint64() == s2.Uint64() && s1.Uint64() == s2.Uint64() {
		t.Fatal("indexed forks collided")
	}
}

func TestUniformBounds(t *testing.T) {
	s := NewSourceFromString("u")
	for _, mod := range []uint64{1, 2, 3, 5, 16, 255, 1 << 32, 1<<63 + 3} {
		for i := 0; i < 200; i++ {
			if v := s.Uniform(mod); v >= mod {
				t.Fatalf("Uniform(%d) = %d out of range", mod, v)
			}
		}
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	s := NewSourceFromString("chi")
	const mod = 8
	const n = 8000
	var counts [mod]int
	for i := 0; i < n; i++ {
		counts[s.Uniform(mod)]++
	}
	want := float64(n) / mod
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d counts, want ~%.0f", v, c, want)
		}
	}
}

func TestTernary(t *testing.T) {
	s := NewSourceFromString("t")
	var counts [3]int
	for i := 0; i < 3000; i++ {
		v := s.Ternary()
		if v < -1 || v > 1 {
			t.Fatalf("Ternary out of range: %d", v)
		}
		counts[v+1]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("ternary bucket %d: %d counts, want ~1000", i-1, c)
		}
	}
}

func TestCBD(t *testing.T) {
	s := NewSourceFromString("cbd")
	const eta = 3
	const n = 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.CBD(eta)
		if v < -eta || v > eta {
			t.Fatalf("CBD(%d) out of range: %d", eta, v)
		}
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.1 {
		t.Errorf("CBD mean = %.3f, want ~0", mean)
	}
	if math.Abs(variance-float64(eta)/2) > 0.2 {
		t.Errorf("CBD variance = %.3f, want ~%.1f", variance, float64(eta)/2)
	}
}

func TestBytesDeterministic(t *testing.T) {
	a := NewSourceFromString("bytes")
	b := NewSourceFromString("bytes")
	p1 := make([]byte, 100)
	p2 := make([]byte, 100)
	a.Bytes(p1)
	b.Bytes(p2)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("Bytes not deterministic")
		}
	}
	allZero := true
	for _, v := range p1 {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("Bytes produced all zeros")
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewSourceFromString("f")
	for i := 0; i < 1000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestNewRandomSource(t *testing.T) {
	s, err := NewRandomSource()
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Uint64()
}

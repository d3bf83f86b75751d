package ring

import (
	"testing"
	"unsafe"
)

// TestNarrowLayout pins the struct layouts the assembly addresses at
// fixed offsets (the TILE_* and CHUNK_* constants of kernel_amd64.s).
func TestNarrowLayout(t *testing.T) {
	var sc laneTile
	var ch NarrowChunk
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"laneTile.guard", unsafe.Offsetof(sc.guard), 16384},
		{"laneTile.flags", unsafe.Offsetof(sc.flags), 17408},
		{"laneTile.rows", unsafe.Offsetof(sc.rows), 18432},
		{"NarrowChunk.A", unsafe.Offsetof(ch.A), 0},
		{"NarrowChunk.D", unsafe.Offsetof(ch.D), 24},
		{"NarrowChunk.Top", unsafe.Offsetof(ch.Top), 48},
		{"NarrowChunk size", unsafe.Sizeof(ch), 72},
	} {
		if c.got != c.want {
			t.Errorf("%s at %d, the assembly expects %d", c.name, c.got, c.want)
		}
	}
}

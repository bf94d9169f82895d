package vec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsFor(t *testing.T) {
	cases := []struct {
		max  uint64
		want uint
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9},
		{1<<32 - 1, 32}, {1 << 32, 33}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := BitsFor(c.max); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestPackedRoundTrip(t *testing.T) {
	for _, bits := range []uint{1, 3, 7, 13, 31, 33, 63, 64} {
		p := NewPacked(bits, 257)
		rng := rand.New(rand.NewSource(int64(bits)))
		want := make([]uint64, p.Len())
		var mask uint64 = ^uint64(0)
		if bits < 64 {
			mask = 1<<bits - 1
		}
		for i := range want {
			want[i] = rng.Uint64() & mask
			p.Set(i, want[i])
		}
		for i := range want {
			if got := p.Get(i); got != want[i] {
				t.Fatalf("bits=%d: Get(%d) = %d, want %d", bits, i, got, want[i])
			}
		}
	}
}

func TestPackedOverwrite(t *testing.T) {
	p := NewPacked(5, 10)
	p.Set(4, 31)
	p.Set(5, 17)
	p.Set(4, 1) // overwrite must not disturb the straddling neighbour
	if p.Get(4) != 1 || p.Get(5) != 17 {
		t.Fatalf("Get(4)=%d Get(5)=%d, want 1,17", p.Get(4), p.Get(5))
	}
}

func TestPackedBounds(t *testing.T) {
	p := NewPacked(4, 3)
	mustPanic(t, func() { p.Set(3, 0) })
	mustPanic(t, func() { p.Get(-1) })
	mustPanic(t, func() { p.Set(0, 16) }) // 16 needs 5 bits
	mustPanic(t, func() { NewPacked(0, 1) })
	mustPanic(t, func() { NewPacked(65, 1) })
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// Property: writes at distinct indexes never interfere, regardless of bit
// width or write order.
func TestPackedQuickIsolation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bits := uint(1 + rng.Intn(64))
		n := 1 + rng.Intn(200)
		p := NewPacked(bits, n)
		ref := make([]uint64, n)
		var mask uint64 = ^uint64(0)
		if bits < 64 {
			mask = 1<<bits - 1
		}
		for k := 0; k < 5*n; k++ {
			i := rng.Intn(n)
			v := rng.Uint64() & mask
			p.Set(i, v)
			ref[i] = v
		}
		for i := range ref {
			if p.Get(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Gather and Unpack must agree with Get, truncated to 32 bits, at every
// width — including entries that straddle a word boundary — for any index
// list or run.
func TestPackedGatherMatchesGet(t *testing.T) {
	f := func(seed int64, bitsRaw uint8, nRaw uint16) bool {
		bits := uint(bitsRaw)%64 + 1
		n := int(nRaw)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		p := NewPacked(bits, n)
		for i := 0; i < n; i++ {
			p.Set(i, rng.Uint64()&p.mask())
		}
		rows := make([]int32, 2*n)
		for i := range rows {
			rows[i] = int32(rng.Intn(n))
		}
		dst := make([]uint32, len(rows)+1)
		dst[len(rows)] = 0xdeadbeef // Gather writes dst[:len(rows)] only
		p.Gather(rows, dst)
		for i, r := range rows {
			if dst[i] != uint32(p.Get(int(r))) {
				return false
			}
		}
		if dst[len(rows)] != 0xdeadbeef {
			return false
		}
		start := rng.Intn(n)
		run := make([]uint32, rng.Intn(n-start+1))
		p.Unpack(start, run)
		for i, v := range run {
			if v != uint32(p.Get(start+i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for bits := uint(1); bits <= 64; bits++ { // every width, every spill offset
		p := NewPacked(bits, 130)
		for i := 0; i < p.Len(); i++ {
			p.Set(i, (uint64(i)*0x9e3779b97f4a7c15)&p.mask())
		}
		rows := make([]int32, p.Len())
		for i := range rows {
			rows[i] = int32(p.Len() - 1 - i)
		}
		dst := make([]uint32, len(rows))
		p.Gather(rows, dst)
		for i, r := range rows {
			if dst[i] != uint32(p.Get(int(r))) {
				t.Fatalf("bits=%d: Gather[%d] = %d, Get(%d) = %d", bits, i, dst[i], r, p.Get(int(r)))
			}
		}
	}
	p := NewPacked(7, 4)
	mustPanic(t, func() { p.Gather([]int32{0, 4}, make([]uint32, 2)) })
	mustPanic(t, func() { p.Gather([]int32{-1}, make([]uint32, 1)) })
	mustPanic(t, func() { p.Unpack(2, make([]uint32, 3)) })
}

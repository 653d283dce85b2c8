package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

func small() *Cache {
	// 4 sets x 2 ways of 64 B lines = 512 B.
	return New(Config{Name: "t", Size: 512, Assoc: 2, HitCycles: 4})
}

func TestLookupMissThenHit(t *testing.T) {
	c := small()
	a := mem.Addr(0x1000)
	if c.Lookup(a) != nil {
		t.Fatal("cold lookup hit")
	}
	c.Insert(a, false, false, 7)
	l := c.Lookup(a)
	if l == nil || l.ReadyAt != 7 || tagOf(c, l) != a.Line() {
		t.Fatal("inserted line not found")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d,%d), want (1,1)", hits, misses)
	}
}

// tagOf returns the line address the tag mirror records for frame l.
func tagOf(c *Cache, l *Line) mem.Addr {
	for i := range c.ways {
		if &c.ways[i] == l {
			return mem.Addr(c.tags[i] &^ 1)
		}
	}
	panic("frame not in cache")
}

// TestLineIs32Bytes pins the frame size: two frames per host cacheline,
// every frame line-aligned within the ways array.
func TestLineIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Line{}) = %d, want 32", n)
	}
}

// TestCacheHotPathAllocs pins the level's per-access operations at zero
// allocations: Insert into an empty way and over an LRU victim, Lookup,
// Peek and Invalidate.
func TestCacheHotPathAllocs(t *testing.T) {
	c := New(Config{Name: "L2", Size: 1 << 20, Assoc: 16, HitCycles: 14})
	stride := mem.Addr(c.nsets * mem.CachelineSize)
	var i mem.Addr
	cases := []struct {
		name string
		fn   func()
	}{
		{"insert-empty", func() {
			c.Insert(i*mem.CachelineSize, true, false, 0)
			c.Invalidate(i * mem.CachelineSize)
			i++
		}},
		{"insert-evict", func() {
			c.Insert(i*stride, true, false, 0)
			i++
		}},
		{"lookup", func() { c.Lookup((i - 1) * stride) }},
		{"peek", func() { c.Peek((i - 1) * stride) }},
		{"invalidate", func() {
			c.Invalidate(i * stride)
			c.Insert(i*stride, false, false, 0)
		}},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(1000, tc.fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, n)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three lines mapping to the same set (stride = nsets*64 = 256).
	a, b, d := mem.Addr(0), mem.Addr(256), mem.Addr(512)
	c.Insert(a, false, false, 0)
	c.Insert(b, false, false, 0)
	c.Lookup(a) // make b the LRU way
	victim, evicted := c.Insert(d, false, false, 0)
	if !evicted || victim.Addr != b {
		t.Fatalf("expected b evicted, got %+v (evicted=%v)", victim, evicted)
	}
	if c.Peek(a) == nil || c.Peek(d) == nil || c.Peek(b) != nil {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := small()
	c.Insert(0, true, false, 0)
	c.Insert(256, false, false, 0)
	c.Lookup(256)
	victim, evicted := c.Insert(512, false, false, 0)
	if !evicted || !victim.Dirty || victim.Addr != 0 {
		t.Fatalf("dirty victim not reported: %+v", victim)
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := small()
	c.Insert(64, false, true, 100)
	_, evicted := c.Insert(64, true, false, 50)
	if evicted {
		t.Fatal("re-insert of resident line evicted something")
	}
	l := c.Peek(64)
	if !l.Dirty {
		t.Fatal("in-place insert lost dirty bit")
	}
	if l.Prefetched {
		t.Fatal("demand insert must clear the prefetched mark")
	}
	if l.ReadyAt != 100 {
		t.Fatalf("ReadyAt shrank to %d; later fills must not reduce it", l.ReadyAt)
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(128, true, false, 0)
	present, dirty := c.Invalidate(128)
	if !present || !dirty {
		t.Fatalf("invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Peek(128) != nil {
		t.Fatal("line survived invalidation")
	}
	present, _ = c.Invalidate(128)
	if present {
		t.Fatal("double invalidation reported present")
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	c := small()
	c.Insert(0, false, false, 0)
	c.Insert(256, false, false, 0)
	c.Peek(0) // must NOT refresh 0's recency
	victim, evicted := c.Insert(512, false, false, 0)
	if !evicted || victim.Addr != 0 {
		t.Fatalf("Peek refreshed LRU: victim %+v", victim)
	}
}

func TestReset(t *testing.T) {
	c := small()
	c.Insert(0, true, false, 0)
	c.Lookup(0)
	c.Reset()
	if c.Peek(0) != nil {
		t.Fatal("reset left lines")
	}
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatal("reset left stats")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	New(Config{Name: "bad", Size: 100, Assoc: 3})
}

// Property: occupancy never exceeds capacity, and a just-inserted line
// is always found.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(seed uint64, ops uint8) bool {
		rng := sim.NewRand(seed)
		c := New(Config{Name: "q", Size: 1024, Assoc: 4, HitCycles: 1})
		capacity := 1024 / mem.CachelineSize
		live := make(map[mem.Addr]bool)
		for i := 0; i < int(ops); i++ {
			a := mem.Addr(rng.Intn(64) * 64)
			victim, evicted := c.Insert(a, rng.Intn(2) == 0, false, 0)
			live[a] = true
			if evicted {
				delete(live, victim.Addr)
			}
			if c.Peek(a) == nil {
				return false
			}
			if len(live) > capacity {
				return false
			}
		}
		// Everything believed live must be present.
		for a := range live {
			if c.Peek(a) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

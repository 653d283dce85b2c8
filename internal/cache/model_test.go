package cache

import (
	"fmt"
	"testing"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// refWay is one way of the reference model: tag, validity and every
// frame field a Cache keeps, stored plainly side by side.
type refWay struct {
	addr       mem.Addr
	valid      bool
	dirty      bool
	prefetched bool
	flushed    bool
	readyAt    sim.Cycles
	flushedSeq uint64
	flushedBy  int32
}

// refCache is a naive reference model of Cache. Sets are per-set way
// slices indexed by plain modulo, LRU is an explicit recency list per
// set (least recent first), and the way predictor is a map from
// predictor slot to flat way index (an absent slot points at way 0, as
// a freshly zeroed predictor does). Nothing in it shares code or
// arithmetic with the implementation under test.
type refCache struct {
	nsets, assoc int
	sets         [][]refWay // allocated on first fill of a set
	lru          [][]int    // per set: way numbers, least recent first
	pred         map[uint64]int
	occupied     int

	hits, misses, predHits, predMisses uint64
}

func newRef(cfg Config) *refCache {
	lines := cfg.Size / mem.CachelineSize
	nsets := lines / cfg.Assoc
	return &refCache{
		nsets: nsets,
		assoc: cfg.Assoc,
		sets:  make([][]refWay, nsets),
		lru:   make([][]int, nsets),
		pred:  map[uint64]int{},
	}
}

func (m *refCache) setOf(la mem.Addr) int {
	return int(uint64(la) / mem.CachelineSize % uint64(m.nsets))
}

func (m *refCache) predSlot(la mem.Addr) uint64 { return uint64(la) / mem.CachelineSize % predSlots }

// find returns la's way in its set, or -1.
func (m *refCache) find(s int, la mem.Addr) int {
	for w, e := range m.sets[s] {
		if e.valid && e.addr == la {
			return w
		}
	}
	return -1
}

// predicted returns the way the predictor names for la when that way
// holds la.
func (m *refCache) predicted(la mem.Addr) *refWay {
	f := m.pred[m.predSlot(la)]
	s, w := f/m.assoc, f%m.assoc
	if m.sets[s] != nil && m.sets[s][w].valid && m.sets[s][w].addr == la {
		return &m.sets[s][w]
	}
	return nil
}

// use moves way w of set s to the most-recent end of its LRU list.
func (m *refCache) use(s, w int) {
	order := m.lru[s]
	for i, x := range order {
		if x == w {
			order = append(order[:i], order[i+1:]...)
			break
		}
	}
	m.lru[s] = append(order, w)
}

func (m *refCache) useAddr(la mem.Addr) {
	s := m.setOf(la)
	m.use(s, m.find(s, la))
}

func (m *refCache) lookup(la mem.Addr) *refWay {
	if e := m.predicted(la); e != nil {
		m.hits++
		m.predHits++
		m.useAddr(la)
		return e
	}
	m.predMisses++
	s := m.setOf(la)
	if w := m.find(s, la); w >= 0 {
		m.hits++
		m.use(s, w)
		m.pred[m.predSlot(la)] = s*m.assoc + w
		return &m.sets[s][w]
	}
	m.misses++
	return nil
}

func (m *refCache) touch(la mem.Addr) {
	m.hits++
	m.predHits++
	m.useAddr(la)
}

func (m *refCache) peek(la mem.Addr) *refWay {
	if e := m.predicted(la); e != nil {
		return e
	}
	s := m.setOf(la)
	if w := m.find(s, la); w >= 0 {
		m.pred[m.predSlot(la)] = s*m.assoc + w
		return &m.sets[s][w]
	}
	return nil
}

func (m *refCache) insert(la mem.Addr, dirty, prefetched bool, readyAt sim.Cycles) (Victim, bool) {
	s := m.setOf(la)
	if m.sets[s] == nil {
		m.sets[s] = make([]refWay, m.assoc)
	}
	if w := m.find(s, la); w >= 0 {
		e := &m.sets[s][w]
		e.dirty = e.dirty || dirty
		e.prefetched = e.prefetched && prefetched
		if readyAt > e.readyAt {
			e.readyAt = readyAt
		}
		m.use(s, w)
		m.pred[m.predSlot(la)] = s*m.assoc + w
		return Victim{}, false
	}
	w := -1
	for i, e := range m.sets[s] {
		if !e.valid {
			w = i
			break
		}
	}
	var victim Victim
	evicted := w < 0
	if evicted {
		w = m.lru[s][0]
		victim = Victim{Addr: m.sets[s][w].addr, Dirty: m.sets[s][w].dirty}
	} else {
		m.occupied++
	}
	m.sets[s][w] = refWay{addr: la, valid: true, dirty: dirty, prefetched: prefetched, readyAt: readyAt}
	m.use(s, w)
	m.pred[m.predSlot(la)] = s*m.assoc + w
	return victim, evicted
}

func (m *refCache) invalidate(la mem.Addr) (present, dirty bool) {
	s := m.setOf(la)
	w := m.find(s, la)
	if w < 0 {
		return false, false
	}
	dirty = m.sets[s][w].dirty
	m.sets[s][w] = refWay{}
	order := m.lru[s]
	for i, x := range order {
		if x == w {
			m.lru[s] = append(order[:i], order[i+1:]...)
			break
		}
	}
	m.occupied--
	return true, dirty
}

// reset is Cache.Reset: contents and statistics go, the predictor stays.
func (m *refCache) reset() {
	for s := range m.sets {
		m.sets[s], m.lru[s] = nil, nil
	}
	m.occupied = 0
	m.hits, m.misses, m.predHits, m.predMisses = 0, 0, 0, 0
}

// sameFrame reports whether the Cache frame l holds what model way e
// says.
func sameFrame(l *Line, e *refWay) bool {
	return l.Dirty == e.dirty && l.Prefetched == e.prefetched && l.Flushed == e.flushed &&
		l.ReadyAt == e.readyAt && l.FlushedSeq == e.flushedSeq && l.FlushedBy == e.flushedBy
}

// checkState compares the whole of c against m: statistics, occupancy,
// the tag mirror and frame of every way, LRU order within every set,
// and every predictor slot.
func checkState(t *testing.T, c *Cache, m *refCache, step int) {
	t.Helper()
	if h, mi := c.Stats(); h != m.hits || mi != m.misses {
		t.Fatalf("step %d: Stats = (%d,%d), model (%d,%d)", step, h, mi, m.hits, m.misses)
	}
	if h, mi := c.PredStats(); h != m.predHits || mi != m.predMisses {
		t.Fatalf("step %d: PredStats = (%d,%d), model (%d,%d)", step, h, mi, m.predHits, m.predMisses)
	}
	if c.occupied != m.occupied {
		t.Fatalf("step %d: occupied = %d, model %d", step, c.occupied, m.occupied)
	}
	live := 0
	for i, k := range c.tags {
		if k != 0 {
			live++
		} else if c.ways[i] != (Line{}) {
			t.Fatalf("step %d: empty way %d has a nonzero frame %+v", step, i, c.ways[i])
		}
	}
	if live != m.occupied {
		t.Fatalf("step %d: %d tags set, model holds %d lines", step, live, m.occupied)
	}
	for s, set := range m.sets {
		for w := range set {
			e, f := &set[w], s*m.assoc+w
			if !e.valid {
				if c.tags[f] != 0 {
					t.Fatalf("step %d: way %d holds %#x, model has it empty", step, f, c.tags[f]&^1)
				}
				continue
			}
			if c.tags[f] != uint64(e.addr)|1 {
				t.Fatalf("step %d: way %d tag %#x, model %#x", step, f, c.tags[f], uint64(e.addr)|1)
			}
			if !sameFrame(&c.ways[f], e) {
				t.Fatalf("step %d: way %d frame %+v, model %+v", step, f, c.ways[f], *e)
			}
		}
		for i := 1; i < len(m.lru[s]); i++ {
			a, b := s*m.assoc+m.lru[s][i-1], s*m.assoc+m.lru[s][i]
			if c.ways[a].lastUse >= c.ways[b].lastUse {
				t.Fatalf("step %d: set %d LRU order disagrees with the model at ways %d,%d", step, s, a, b)
			}
		}
	}
	for slot := range c.pred {
		if want := m.pred[uint64(slot)]; int(c.pred[slot]) != want {
			t.Fatalf("step %d: predictor slot %d = %d, model %d", step, slot, c.pred[slot], want)
		}
	}
}

// refGeometries are the shapes the reference-model test drives, each
// under its own number of seeds: a power-of-two set count (mask
// indexing) and G1's 27.5 MB, 11-way L3, whose 40960 sets take the
// fastmod path. The L3 runs one seed because every full-state check
// and clone walks its 450560 ways.
var refGeometries = []struct {
	cfg   Config
	seeds uint64
}{
	{Config{Name: "pow2", Size: 64 * 8 * mem.CachelineSize, Assoc: 8, HitCycles: 4}, 4},
	{Config{Name: "L3", Size: 28835840, Assoc: 11, HitCycles: 50}, 1},
}

// TestReferenceModel drives a Cache and refCache through one seeded
// random sequence of every public operation and checks that each result
// agrees — hit or miss, the frame returned, victim address and
// dirtiness, invalidation outcome — and that the full state matches
// after every clone and periodically in between. Addresses are drawn
// from a few sets (so sets fill and evict) at line indices up to 2^35,
// spanning the DRAM and PM address ranges. Every line of a set shares
// one predictor slot on the L3, so predictor collisions are constant.
func TestReferenceModel(t *testing.T) {
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	for _, g := range refGeometries {
		for seed := uint64(1); seed <= g.seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.cfg.Name, seed), func(t *testing.T) { runReference(t, g.cfg, seed, steps) })
		}
	}
}

func runReference(t *testing.T, cfg Config, seed uint64, steps int) {
	rng := sim.NewRand(seed)
	c, m := New(cfg), newRef(cfg)
	if c.nsets != m.nsets {
		t.Fatalf("nsets = %d, model %d", c.nsets, m.nsets)
	}

	// A pool of 3*assoc candidate lines in each of a few sets, including
	// the first and last set.
	sets := []int{0, m.nsets - 1, rng.Intn(m.nsets), rng.Intn(m.nsets), rng.Intn(m.nsets)}
	var pool []mem.Addr
	for _, s := range sets {
		for k := 0; k < 3*cfg.Assoc; k++ {
			hi := uint64(rng.Intn(1<<35/m.nsets)) * uint64(m.nsets)
			pool = append(pool, mem.Addr((hi+uint64(s))*mem.CachelineSize))
		}
	}
	addr := func() mem.Addr { return pool[rng.Intn(len(pool))] + mem.Addr(rng.Intn(mem.CachelineSize)) }

	// spare is a same-geometry destination for CloneInto that holds
	// other content: the previous live cache after a swap.
	var spare *Cache
	var cycle sim.Cycles
	evictions := 0
	for step := 0; step < steps; step++ {
		a := addr()
		la := a.Line()
		switch op := rng.Intn(1000); {
		case op < 400:
			dirty, pf := rng.Intn(2) == 0, rng.Intn(3) == 0
			cycle += sim.Cycles(rng.Intn(100))
			ready := cycle - sim.Cycles(rng.Intn(50))
			v, ev := c.Insert(a, dirty, pf, ready)
			mv, mev := m.insert(la, dirty, pf, ready)
			if v != mv || ev != mev {
				t.Fatalf("step %d: Insert(%#x) = (%+v,%v), model (%+v,%v)", step, la, v, ev, mv, mev)
			}
			if ev {
				evictions++
			}
		case op < 600:
			l, e := c.Lookup(a), m.lookup(la)
			if (l == nil) != (e == nil) || l != nil && !sameFrame(l, e) {
				t.Fatalf("step %d: Lookup(%#x) = %+v, model %+v", step, la, l, e)
			}
		case op < 700:
			// The machine layer's fused path: predict, then commit with
			// Touch or fall back to Lookup.
			l, e := c.PredictLine(la), m.predicted(la)
			if (l == nil) != (e == nil) {
				t.Fatalf("step %d: PredictLine(%#x) hit=%v, model %v", step, la, l != nil, e != nil)
			}
			if l != nil {
				c.Touch(l)
				m.touch(la)
			} else {
				l, e = c.Lookup(la), m.lookup(la)
			}
			if (l == nil) != (e == nil) || l != nil && !sameFrame(l, e) {
				t.Fatalf("step %d: PredictLine/Lookup(%#x) = %+v, model %+v", step, la, l, e)
			}
		case op < 820:
			l, e := c.Peek(a), m.peek(la)
			if (l == nil) != (e == nil) || l != nil && !sameFrame(l, e) {
				t.Fatalf("step %d: Peek(%#x) = %+v, model %+v", step, la, l, e)
			}
			// Flush bookkeeping as the machine layer writes it.
			if l != nil && rng.Intn(2) == 0 {
				l.Dirty, e.dirty = false, false
				l.Flushed, e.flushed = true, true
				l.FlushedSeq, e.flushedSeq = uint64(step), uint64(step)
				by := int32(rng.Intn(4))
				l.FlushedBy, e.flushedBy = by, by
			}
		case op < 980:
			p, d := c.Invalidate(a)
			mp, md := m.invalidate(la)
			if p != mp || d != md {
				t.Fatalf("step %d: Invalidate(%#x) = (%v,%v), model (%v,%v)", step, la, p, d, mp, md)
			}
		case op < 985:
			c.Reset()
			m.reset()
		case op < 990:
			c = NewReusing(cfg, c)
			m.reset()
			m.pred = map[uint64]int{}
		case op < 995:
			// Fork, then keep driving the clone (the model carries over
			// unchanged) while the source takes unrelated writes, which
			// must not leak into it.
			var cl *Cache
			if spare != nil && rng.Intn(2) == 0 {
				cl = c.CloneInto(spare)
			} else {
				cl = c.Clone()
			}
			for i := 0; i < 8; i++ {
				c.Insert(addr(), true, false, 0)
				c.Invalidate(addr())
			}
			spare, c = c, cl
			checkState(t, c, m, step)
		default:
			checkState(t, c, m, step)
		}
	}
	checkState(t, c, m, steps)
	// Guard the sequence's coverage: sets must fill and evict.
	if evictions < steps/100 {
		t.Fatalf("only %d evictions in %d steps", evictions, steps)
	}
}

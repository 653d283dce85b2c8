package main

import (
	"fmt"

	"optanesim/internal/bench"
	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/sim"
	"optanesim/internal/workload"
	"optanesim/internal/xpline"
)

// The xpwrite geometry: six interleaved DIMMs and four simulated
// threads, each owning a 24 MB slice of PM. The four slices span 96 MB,
// the AIT cache's reach on six DIMMs (6 x 4096 entries of 4 KB).
const (
	xpDIMMs       = 6
	xpThreads     = 4
	xpRegionBytes = 24 << 20
	// xpOpsPerThread is each thread's simulated op budget per cell.
	xpOpsPerThread = 100_000
)

// xpKind is one measured cell of the xpwrite workload.
type xpKind int

const (
	// xpRand64: random 64 B nt-stores, one cacheline per XPLine, so
	// each line leaves the write buffer as a 256 B read-modify-write
	// (write amplification about 4).
	xpRand64 xpKind = iota
	// xpSeqXPLine: sequential nt-stores of all four cachelines of each
	// XPLine, which the write buffer combines (write amplification 1).
	xpSeqXPLine
	// xpRandLoad: random XPLine reads (xpline.Direct) of the region the
	// warm prefix has just written.
	xpRandLoad
)

func (k xpKind) String() string {
	return [...]string{"rand64-nt", "seq-xpline-nt", "rand-load"}[k]
}

// xpFamily is one generation's system. The first cell's set-up builds
// it, runs the warm prefix and snapshots it; every cell runs on its own
// fork of that snapshot.
type xpFamily struct {
	g    bench.Gen
	seed int64
	snap *machine.Snapshot
	// warmOps are the ops each thread issued in the warm prefix; a fork's
	// revived threads carry them.
	warmOps [xpThreads]uint64
}

// xpBase returns the first address of thread w's region.
func xpBase(w int) mem.Addr { return mem.PMBase + mem.Addr(w)*xpRegionBytes }

// warm builds the system and writes one cacheline in every 4 KB page of
// every region with nt-stores, fenced every 16 stores: that touches all
// AIT entries of all six DIMMs and leaves the write buffers full.
func (f *xpFamily) warm(tr *tracer) {
	cfg := f.g.Config(xpThreads)
	cfg.PMDIMMs = xpDIMMs
	var sys *machine.System
	tr.layer("machine.build", func() { sys = machine.MustNewSystem(cfg) })
	sys.SetThreadsIsolated(true)
	for w := 0; w < xpThreads; w++ {
		sys.Go(fmt.Sprintf("xp-%d", w), w, false, func(t *machine.Thread) {
			var ops uint64
			for page := 0; page < xpRegionBytes/4096; page++ {
				t.NTStore(xpBase(w) + mem.Addr(page)*4096)
				ops++
				if page%16 == 15 {
					t.SFence()
					ops++
				}
			}
			t.SFence()
			f.warmOps[w] = ops + 1
		})
	}
	tr.run(sys.RunPhase)
	tr.layer("machine.snapshot", func() {
		f.snap = sys.Snapshot()
		f.snap.Recycle(sys)
	})
}

// xpCell is one measured cell, forked from its family's snapshot.
type xpCell struct {
	fam  *xpFamily
	kind xpKind
	sys  *machine.System
}

func (c *xpCell) name() string { return fmt.Sprintf("xpwrite/%s/%s", c.fam.g, c.kind) }

func (c *xpCell) setup(tr *tracer) {
	if c.fam.snap == nil {
		c.fam.warm(tr)
	}
	tr.layer("machine.fork", func() { c.sys = c.fam.snap.Fork() })
}

// xpStat is what one thread did in a cell.
type xpStat struct {
	ops, bytes uint64
	start, end sim.Cycles
}

// body returns thread w's cell body. Each thread writes only its own
// stat, so the bodies are isolated.
func (c *xpCell) body(w int, rng *sim.Rand, st *xpStat) func(*machine.Thread) {
	base := xpBase(w)
	const xplines = xpRegionBytes / mem.XPLineSize
	return func(t *machine.Thread) {
		st.start = t.Now()
		switch c.kind {
		case xpRand64:
			for i := 0; st.ops < xpOpsPerThread; i++ {
				xp := rng.Intn(xplines)
				t.NTStore(base + mem.Addr(xp*mem.XPLineSize+rng.Intn(mem.LinesPerXPLine)*mem.CachelineSize))
				st.ops++
				st.bytes += mem.CachelineSize
				if i%16 == 15 {
					t.SFence()
					st.ops++
				}
			}
		case xpSeqXPLine:
			xp := rng.Intn(xplines)
			for i := 0; st.ops < xpOpsPerThread; i++ {
				line := base + mem.Addr((xp+i)%xplines*mem.XPLineSize)
				for l := 0; l < mem.LinesPerXPLine; l++ {
					t.NTStore(line + mem.Addr(l*mem.CachelineSize))
				}
				st.ops += mem.LinesPerXPLine
				st.bytes += mem.XPLineSize
				if i%4 == 3 {
					t.SFence()
					st.ops++
				}
			}
		case xpRandLoad:
			const pages = xpRegionBytes / 4096
			for st.ops < xpOpsPerThread {
				// xpline.Direct issues four loads and four clflushopts.
				xpline.Direct(t, base+mem.Addr(rng.Intn(pages)*4096))
				st.ops += 2 * mem.LinesPerXPLine
				st.bytes += mem.XPLineSize
			}
		}
		t.SFence()
		st.ops++
		st.end = t.Now()
	}
}

// run resumes the four warm threads with the cell's bodies and returns
// the simulated bandwidth in GB/s over the cell. The check: the system
// executed exactly the ops the bodies issued, plus the warm-prefix ops
// its revived threads carry.
func (c *xpCell) run(tr *tracer) (*machine.System, []float64, error) {
	var stats [xpThreads]xpStat
	for w := range stats {
		rng := sim.NewRand(workload.SplitMix64(uint64(c.fam.seed)<<8 | uint64(c.kind)<<4 | uint64(w)))
		c.sys.Continue(w, c.body(w, rng, &stats[w]))
	}
	ops0, _ := machine.GlobalStats()
	tr.run(c.sys.Run)
	ops1, _ := machine.GlobalStats()
	var want, moved uint64
	first, last := stats[0].start, stats[0].end
	for w, st := range stats {
		want += c.fam.warmOps[w] + st.ops
		moved += st.bytes
		first, last = min(first, st.start), max(last, st.end)
	}
	sys := c.sys
	// The runner reads sys.Report before the next cell's set-up forks,
	// so the storage can go back to the snapshot now.
	c.fam.snap.Recycle(sys)
	if got := ops1 - ops0; got != want {
		return sys, nil, fmt.Errorf("%s: system executed %d ops, threads issued %d", c.name(), got, want)
	}
	gbs := float64(moved) / sys.CyclesToSeconds(last-first) / 1e9
	return sys, []float64{gbs}, nil
}

func xpwriteCells(seed int64) []cell {
	var cells []cell
	for _, g := range []bench.Gen{bench.G1, bench.G2} {
		fam := &xpFamily{g: g, seed: seed}
		for _, kind := range []xpKind{xpRand64, xpSeqXPLine, xpRandLoad} {
			cells = append(cells, &xpCell{fam: fam, kind: kind})
		}
	}
	return cells
}

package main

import (
	"fmt"

	"optanesim/internal/bench"
	"optanesim/internal/btree"
	"optanesim/internal/machine"
	"optanesim/internal/pmem"
	"optanesim/internal/sim"
	"optanesim/internal/workload"
)

// btreeCell is one bench.Fig12 cell on one DIMM, built exactly as
// bench.Fig12 builds it: a FAST & FAIR B+-tree of prebuild keys built
// through an untimed free session, then inserts timed inserts from each
// of the threads simulated writers. After the timed run every key is
// read back with Tree.Get, and Validate checks the tree's structure.
type btreeCell struct {
	g        bench.Gen
	mode     btree.Mode
	threads  int
	prebuild int
	inserts  int // per thread
	seed     int64

	sys        *machine.System
	heap, dram *pmem.Heap
	tree       *btree.Tree
	prebuilt   []uint64
	writerKeys [][]uint64
}

// btreeWriterVal is the value bench.Fig12's writers store with key k.
func btreeWriterVal(k uint64) uint64 { return k ^ 0x55AA }

// keySalts returns the SequenceKeys salts of the prebuilt keys and of
// writer w. At paperSeed they are bench.Fig12's fixed salts; every other
// seed shifts all streams by the same multiple of 2^44, which keeps
// them disjoint.
func keySalts(seed int64, w int) (prebuild, writer uint64) {
	off := uint64(seed-paperSeed) << 44
	return off + 1<<40, off + (1<<41 | uint64(w)<<32)
}

func (c *btreeCell) name() string {
	return fmt.Sprintf("btree/%s/%s/%dt", c.g, c.mode, c.threads)
}

func (c *btreeCell) setup(tr *tracer) {
	tr.layer("machine.build", func() { c.sys = machine.MustNewSystem(c.g.Config(c.threads)) })
	total := c.prebuild + c.threads*c.inserts
	tr.layer("pmem.heap", func() {
		// Sized as bench.Fig12 sizes them: ~14 keys per 512 B node plus
		// log regions.
		c.heap = pmem.NewPMHeap(uint64(total)*48 + (64 << 20))
		c.dram = pmem.NewDRAMHeap(uint64(c.threads+1)*btree.LogEntries*64 + (1 << 20))
	})
	tr.layer("workload.keys", func() {
		ps, _ := keySalts(c.seed, 0)
		c.prebuilt = workload.SequenceKeys(ps, c.prebuild)
		c.writerKeys = make([][]uint64, c.threads)
		for w := range c.writerKeys {
			_, ws := keySalts(c.seed, w)
			c.writerKeys[w] = workload.SequenceKeys(ws, c.inserts)
		}
	})
	tr.layer("btree.prebuild", func() {
		free := pmem.NewFreeSession(c.heap)
		c.tree = btree.New(free, c.heap, c.mode)
		fw := c.tree.NewWriter(free, nil)
		for _, k := range c.prebuilt {
			if err := c.tree.Insert(fw, k, k); err != nil {
				panic(fmt.Sprintf("%s: prebuild insert: %v", c.name(), err))
			}
		}
	})
	tr.count("btree.prebuild_inserts", uint64(len(c.prebuilt)))
}

// run returns bench.Fig12's two numbers for this cell: average
// simulated cycles per insert and throughput in Mops/s. The check: the
// reader finds every prebuilt and inserted key with its value, the tree
// holds exactly those keys, and Validate passes.
func (c *btreeCell) run(tr *tracer) (*machine.System, []float64, error) {
	var busy, endMax sim.Cycles
	var inserted int
	var insertErr error
	for w := 0; w < c.threads; w++ {
		keys := c.writerKeys[w]
		c.sys.Go(fmt.Sprintf("writer-%d", w), w, false, func(t *machine.Thread) {
			s := pmem.NewSession(t, c.heap, c.dram)
			wr := c.tree.NewWriter(s, c.dram)
			start := t.Now()
			for _, k := range keys {
				if err := c.tree.Insert(wr, k, btreeWriterVal(k)); err != nil && insertErr == nil {
					insertErr = err
				}
			}
			busy += t.Now() - start
			endMax = max(endMax, t.Now())
			inserted += len(keys)
		})
	}
	tr.run(c.sys.Run)
	if insertErr != nil {
		return c.sys, nil, fmt.Errorf("%s: insert: %w", c.name(), insertErr)
	}
	cyclesPerInsert := float64(busy) / float64(inserted)
	var mops float64
	if secs := c.sys.CyclesToSeconds(endMax); secs > 0 {
		mops = float64(inserted) / secs / 1e6
	}

	// The read-back goes through a free session: functional reads of
	// every key through the data plane and the index, with no simulated
	// time, so it checks the cell without changing its simulated counts.
	var missing, wrong, gets, n int
	var verr error
	free := pmem.NewFreeSession(c.heap, c.dram)
	get := func(k, want uint64) {
		gets++
		v, ok := c.tree.Get(free, k)
		switch {
		case !ok:
			missing++
		case v != want:
			wrong++
		}
	}
	tr.layer("btree.get", func() {
		for _, k := range c.prebuilt {
			get(k, k)
		}
		for _, keys := range c.writerKeys {
			for _, k := range keys {
				get(k, btreeWriterVal(k))
			}
		}
	})
	tr.count("btree.gets", uint64(gets))
	tr.layer("btree.validate", func() {
		n = c.tree.Len(free)
		verr = c.tree.Validate(free)
	})
	switch {
	case missing > 0 || wrong > 0:
		return c.sys, nil, fmt.Errorf("%s: read-back of %d keys: %d missing, %d with a wrong value", c.name(), gets, missing, wrong)
	case n != gets:
		return c.sys, nil, fmt.Errorf("%s: tree holds %d keys, want %d", c.name(), n, gets)
	case verr != nil:
		return c.sys, nil, fmt.Errorf("%s: %w", c.name(), verr)
	}
	return c.sys, []float64{cyclesPerInsert, mops}, nil
}

// btreePrebuild and btreeInserts are bench.Fig12's -quick sizes.
const (
	btreePrebuild = 300_000
	btreeInserts  = 1_500
)

func btreeCells(seed int64) []cell {
	var cells []cell
	for _, mode := range []btree.Mode{btree.InPlace, btree.RedoLog} {
		cells = append(cells, &btreeCell{
			g: bench.G1, mode: mode, threads: 1, prebuild: btreePrebuild, inserts: btreeInserts, seed: seed,
		})
	}
	return cells
}

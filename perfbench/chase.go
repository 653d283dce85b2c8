package main

import (
	"fmt"

	"optanesim/internal/bench"
	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/pmem"
	"optanesim/internal/sim"
	"optanesim/internal/workload"
)

// chaseKind is one curve of the §3.6 Fig. 8 element benchmark that the
// chase workload runs: pure pointer chasing (panel c) or chasing with a
// strict per-element persist (panel a) by store+clwb or by nt-store,
// each followed by an sfence.
type chaseKind int

const (
	chaseRead chaseKind = iota
	chaseCLWB
	chaseNT
)

func (k chaseKind) String() string {
	return [...]string{"rd", "clwb", "nt-store"}[k]
}

// chaseCell is one bench.Fig8 cell, built from the layers' public
// functions exactly as bench.Fig8 builds it: a one-core system, a PM
// heap as large as the working set, a circular list of 256 B elements
// linked in address or random order, one warm-up pass and about two
// measured passes, both capped at maxVisits.
type chaseCell struct {
	g         bench.Gen
	kind      chaseKind
	random    bool
	wss       int
	maxVisits int
	seed      uint64

	sys               *machine.System
	heap              *pmem.Heap
	list              *workload.ChaseList
	n, warmup, visits int
}

func (c *chaseCell) name() string {
	order := "seq"
	if c.random {
		order = "rand"
	}
	return fmt.Sprintf("chase/%s/%s_%s/%s", c.g, order, c.kind, bench.HumanBytes(c.wss))
}

func (c *chaseCell) setup(tr *tracer) {
	tr.layer("machine.build", func() { c.sys = machine.MustNewSystem(c.g.Config(1)) })
	c.n = max(c.wss/workload.ElementSize, 2)
	tr.layer("pmem.heap", func() { c.heap = pmem.NewPMHeap(uint64(c.n+2) * workload.ElementSize) })
	tr.layer("workload.chase_build", func() {
		c.list = workload.BuildChaseList(c.heap, sim.NewRand(c.seed), c.n, c.random)
	})
	c.warmup = min(c.n, c.maxVisits)
	c.visits = min(2*c.n+2000, c.maxVisits)
}

// run chases the list and returns the average simulated cycles per
// element of the measured visits (the Fig. 8 y value). The check: the
// thread visited exactly warmup+visits elements and its cursor ended on
// the element the list order predicts, so every next pointer it loaded
// through the data plane was the one BuildChaseList wrote.
func (c *chaseCell) run(tr *tracer) (*machine.System, []float64, error) {
	var perElem float64
	var visited int
	var cur mem.Addr
	c.sys.Go("chase", 0, false, func(t *machine.Thread) {
		s := pmem.NewSession(t, c.heap)
		cur = c.list.Head
		chase := func(n int) {
			for i := 0; i < n; i++ {
				next := mem.Addr(s.Load64(cur))
				if c.kind != chaseRead {
					pad := workload.PadLine(cur, 1)
					if c.kind == chaseNT {
						t.NTStore(pad)
					} else {
						t.Store(pad)
						t.CLWB(pad)
					}
					t.SFence()
				}
				visited++
				cur = next
			}
		}
		chase(c.warmup)
		start := t.Now()
		chase(c.visits)
		perElem = float64(t.Now()-start) / float64(c.visits)
	})
	tr.run(c.sys.Run)
	want := c.warmup + c.visits
	if visited != want {
		return c.sys, nil, fmt.Errorf("%s: visited %d elements, want %d", c.name(), visited, want)
	}
	if end := c.list.Elements[want%c.n]; cur != end {
		return c.sys, nil, fmt.Errorf("%s: chase ended at %#x, want %#x", c.name(), uint64(cur), uint64(end))
	}
	return c.sys, []float64{perElem}, nil
}

// chaseWSS are the working-set sizes of the chase workload, points of
// Fig. 8's 4 KB-256 MB doubling sweep: L1-resident, L2-to-L3 and four
// times the AIT cache's 16 MB reach. bench.Fig8 builds a heap and a list
// as large as the working set, so the largest cell's set-up costs about
// as much as its simulated run; 64 MB keeps the run's resident set near
// 120 MB, where the 256 MB point would take several times that.
var chaseWSS = []int{4 << 10, 1 << 20, 64 << 20}

// chaseMaxVisits is bench.Fig8's -quick visit cap.
const chaseMaxVisits = 30000

func chaseCells(seed int64) []cell {
	var cells []cell
	for _, g := range []bench.Gen{bench.G1, bench.G2} {
		for _, kind := range []chaseKind{chaseRead, chaseCLWB, chaseNT} {
			for _, random := range []bool{false, true} {
				for _, wss := range chaseWSS {
					cells = append(cells, &chaseCell{
						g: g, kind: kind, random: random, wss: wss,
						maxVisits: chaseMaxVisits, seed: uint64(seed),
					})
				}
			}
		}
	}
	return cells
}

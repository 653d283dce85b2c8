package main

import (
	"context"
	"runtime/pprof"
	"time"

	"optanesim/internal/machine"
	"optanesim/internal/sim"
)

// span is one timed call into a layer (or one cell or pass enclosing
// such calls). Times are host nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Parent int    `json:"parent"` // index into the span list; -1 at top
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans around the benchmark's calls into the simulator's
// layers. A nil tracer runs the calls bare, so the end-to-end run pays
// only a branch per call. A tracer keeps every span in memory until the
// run ends and sets a runtime/pprof label per span (kind=name, e.g.
// layer=machine.run), so a CPU profile of a traced run splits host time
// by layer; goroutines the simulator starts inside a span inherit its
// labels.
//
// It is not safe for concurrent use: spans are opened only on the
// benchmark's own goroutine, never inside simulated thread bodies that
// run on scheduler goroutines.
type tracer struct {
	origin time.Time
	spans  []span
	cur    int
	ctx    context.Context

	// counts are work counts taken at the same boundaries as the spans
	// (simulated ops inside machine.run, keys inserted, gets), the
	// denominators of the per-operation layer metrics.
	counts map[string]uint64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), cur: -1, ctx: context.Background(), counts: map[string]uint64{}}
}

// do runs fn inside a span of the given kind ("pass", "cell" or
// "layer") and name.
func (tr *tracer) do(kind, name string, fn func()) {
	if tr == nil {
		fn()
		return
	}
	i := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Kind: kind, Parent: tr.cur, Start: tr.now()})
	parent, pctx := tr.cur, tr.ctx
	tr.cur = i
	pprof.Do(pctx, pprof.Labels(kind, name), func(ctx context.Context) {
		tr.ctx = ctx
		fn()
	})
	tr.ctx, tr.cur = pctx, parent
	tr.spans[i].End = tr.now()
}

// layer runs fn inside a span named after the layer call it makes.
func (tr *tracer) layer(name string, fn func()) { tr.do("layer", name, fn) }

// run executes a system's Run (or RunPhase) inside a machine.run span
// and counts the simulated operations it executed.
func (tr *tracer) run(run func() sim.Cycles) {
	ops0, _ := machine.GlobalStats()
	tr.layer("machine.run", func() { run() })
	ops1, _ := machine.GlobalStats()
	tr.count("machine.run_ops", ops1-ops0)
}

// count adds n to a work count.
func (tr *tracer) count(name string, n uint64) {
	if tr != nil {
		tr.counts[name] += n
	}
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.origin)) }

// selfSeconds sums, per span name, the self time in seconds of every
// span of the given kind: a span's duration minus the time its child
// spans cover.
func (tr *tracer) selfSeconds(kind string) map[string]float64 {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range tr.spans {
		if s.Kind == kind {
			out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
		}
	}
	return out
}

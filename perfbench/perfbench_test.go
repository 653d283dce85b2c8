package main

import (
	"testing"

	"optanesim/internal/bench"
	"optanesim/internal/btree"
	"optanesim/internal/machine"
)

// mustPass runs one pass and fails the test on a probe error.
func mustPass(t *testing.T, cells []cell, tr *tracer) pass {
	t.Helper()
	p, err := runPass(cells, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestChaseCellsReproduceFig8 pins the chase workload to the paper's
// experiment: at reduced size and the default seed, every cell's cycles
// per element equal bench.Fig8's for the same curve and working set.
func TestChaseCellsReproduceFig8(t *testing.T) {
	wss := []int{4 << 10, 256 << 10}
	const maxVisits = 3000
	type curve struct {
		kind   chaseKind
		random bool
	}
	var curves []curve
	for _, kind := range []chaseKind{chaseRead, chaseCLWB, chaseNT} {
		for _, random := range []bool{false, true} {
			curves = append(curves, curve{kind, random})
		}
	}
	for _, g := range []bench.Gen{bench.G1, bench.G2} {
		for _, cv := range curves {
			var cells []cell
			for _, w := range wss {
				cells = append(cells, &chaseCell{g: g, kind: cv.kind, random: cv.random, wss: w, maxVisits: maxVisits, seed: paperSeed})
			}
			p := mustPass(t, cells, nil)
			opts := bench.Fig8Options{Gen: g, Mode: bench.Fig8Strict, Random: cv.random, NTStore: cv.kind == chaseNT, WSS: wss, MaxElements: maxVisits}
			if cv.kind == chaseRead {
				opts.Mode = bench.Fig8PureRead
			}
			want := bench.Fig8(opts)
			for i, o := range p.outcomes {
				if o.err != nil {
					t.Fatal(o.err)
				}
				if o.results[0] != want[i].Cycles {
					t.Errorf("%s: %v cycles/element, bench.Fig8 gives %v", o.name, o.results[0], want[i].Cycles)
				}
			}
		}
	}
}

// smallBtreeCells are the btree workload's cells at reduced size.
func smallBtreeCells() []cell {
	return []cell{
		&btreeCell{g: bench.G1, mode: btree.InPlace, threads: 1, prebuild: 20_000, inserts: 500, seed: paperSeed},
		&btreeCell{g: bench.G1, mode: btree.RedoLog, threads: 1, prebuild: 20_000, inserts: 500, seed: paperSeed},
	}
}

// TestBtreeCellsReproduceFig12 pins the btree workload to the paper's
// experiment: at reduced size and the default seed, the in-place and
// redo-log cells give bench.Fig12's latency and throughput exactly.
func TestBtreeCellsReproduceFig12(t *testing.T) {
	p := mustPass(t, smallBtreeCells(), nil)
	want := bench.Fig12(bench.Fig12Options{Gen: bench.G1, Threads: []int{1}, PrebuildKeys: 20_000, InsertsPerThread: 500})[0]
	for i, w := range [][2]float64{{want.InPlaceCycles, want.InPlaceMops}, {want.RedoCycles, want.RedoMops}} {
		o := p.outcomes[i]
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.results[0] != w[0] || o.results[1] != w[1] {
			t.Errorf("%s: %v cycles/insert, %v Mops/s; bench.Fig12 gives %v, %v", o.name, o.results[0], o.results[1], w[0], w[1])
		}
	}
}

// missingKey is a btree cell whose expected key set holds one key that
// is never inserted: a negative control for the read-back check.
type missingKey struct{ *btreeCell }

func (m missingKey) setup(tr *tracer) {
	m.btreeCell.setup(tr)
	m.prebuilt = append(m.prebuilt, 0xDEAD_BEEF)
}

// flaky is a cell whose simulated result changes every time it runs: a
// negative control for the repeat check.
type flaky struct{ runs *int }

func (f flaky) name() string     { return "flaky" }
func (f flaky) setup(tr *tracer) {}
func (f flaky) run(tr *tracer) (*machine.System, []float64, error) {
	*f.runs++
	return nil, []float64{float64(*f.runs)}, nil
}

// TestNegativeControlsCountAsFailed checks that a cell whose outputs are
// wrong, or differ between passes, is counted as a failed cell.
func TestNegativeControlsCountAsFailed(t *testing.T) {
	cells := smallBtreeCells()
	cells[1] = missingKey{cells[1].(*btreeCell)}
	attempted, failures := tally([]pass{mustPass(t, cells, nil)})
	if attempted != 2 || len(failures) != 1 {
		t.Fatalf("missing key: %d attempted, failures %v; want 2 attempted, 1 failure", attempted, failures)
	}
	t.Log(failures[0])

	var runs int
	ps := []pass{mustPass(t, []cell{flaky{&runs}}, nil), mustPass(t, []cell{flaky{&runs}}, nil)}
	if attempted, failures := tally(ps); attempted != 2 || len(failures) != 1 {
		t.Fatalf("flaky cell: %d attempted, failures %v; want 2 attempted, 1 failure", attempted, failures)
	}
}

// TestTracingLeavesSimulationUnchanged runs the xpwrite workload, whose
// cells fork from a snapshot, untraced and traced: every cell must pass
// its checks with identical digests, and the traced pass must record the
// layer spans and work counts the per-layer metrics are made from.
func TestTracingLeavesSimulationUnchanged(t *testing.T) {
	tr := newTracer()
	ps := []pass{mustPass(t, xpwriteCells(paperSeed), nil), mustPass(t, xpwriteCells(paperSeed), tr)}
	if _, failures := tally(ps); len(failures) > 0 {
		t.Fatal(failures)
	}
	self := tr.selfSeconds("layer")
	for _, l := range []string{"machine.build", "machine.run", "machine.snapshot", "machine.fork"} {
		if self[l] <= 0 {
			t.Errorf("no self time recorded for %s", l)
		}
	}
	if tr.counts["machine.run_ops"] == 0 {
		t.Error("no simulated ops counted inside machine.run")
	}
	for name, s := range tr.selfSeconds("cell") {
		if s < 0 {
			t.Errorf("cell %s: negative self time %v", name, s)
		}
	}
}

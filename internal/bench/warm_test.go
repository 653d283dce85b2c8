package bench_test

import (
	"bytes"
	"testing"

	"optanesim/internal/bench"
	"optanesim/internal/machine"
	"optanesim/internal/mem"
	"optanesim/internal/telemetry"
	"optanesim/internal/trace"
)

// warmUnits returns the quick-scale units of the warm sweep families
// (fig2, fig3, fig13 — the experiments whose cells share a warm prefix
// and run through Meter.RunWarm) plus ablation, which reruns the fig2
// and fig3 access patterns on its own unmetered systems.
func warmUnits(t *testing.T, o bench.Options) []bench.Unit {
	t.Helper()
	var units []bench.Unit
	for _, name := range []string{"fig2", "fig3", "fig13", "ablation"} {
		exp, ok := bench.ExperimentUnits(name, o)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		units = append(units, exp...)
	}
	return units
}

// TestWarmReuseByteIdentical pins warm reuse at the experiment level.
// Observer-free units fork one warm snapshot per family; units carrying
// a telemetry recorder must observe every cell's warm phase and so run
// cold. A fork reconstitutes the exact machine state the cold run
// reaches at the end of its warm prefix, so the structured JSONL is
// byte-identical across the forked path at -j 1, the forked path at
// -j 4, and the cold path. The committed goldens pin the same output
// across releases.
func TestWarmReuseByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation sweep; skipped in -short mode")
	}
	forked := runStructured(t, warmUnits(t, bench.Options{Quick: true}), 1)
	forkedPar := runStructured(t, warmUnits(t, bench.Options{Quick: true}), 4)
	if !bytes.Equal(forked, forkedPar) {
		t.Fatalf("forked results differ between -j 1 and -j 4:\n%s", firstLineDiff(forked, forkedPar))
	}

	observed := bench.Options{
		Quick: true,
		Telemetry: func(unit string) *telemetry.Recorder {
			return telemetry.NewRecorder(unit, telemetry.Config{SampleEvery: 4096})
		},
	}
	var results []bench.UnitResult
	for _, u := range warmUnits(t, observed) {
		ur := u.Run()
		if ur.Experiment != "ablation" && ur.Telemetry == nil {
			t.Fatalf("unit %s: no telemetry recording", u.ID())
		}
		results = append(results, ur)
	}
	cold, err := bench.EncodeJSONL(results)
	if err != nil {
		t.Fatalf("encoding: %v", err)
	}
	if !bytes.Equal(forked, cold) {
		t.Fatalf("forked results differ from cold (telemetry-attached) results:\n%s", firstLineDiff(forked, cold))
	}
}

// TestWarmReuseTelemetryDegrades pins RunWarm's selection rule on a
// small sweep: with no meter the family is built once and forked per
// cell; with a telemetry recorder attached every cell is built, warmed
// and measured cold, because the recorder must observe each cell's warm
// phase. The per-cell counters are identical either way.
func TestWarmReuseTelemetryDegrades(t *testing.T) {
	const nCells, nXPLines = 4, 64
	pass := func(t *machine.Thread, cpx int) {
		for c := 0; c < cpx; c++ {
			for i := 0; i < nXPLines; i++ {
				addr := mem.PMBase + mem.Addr(i*mem.XPLineSize+c*mem.CachelineSize)
				t.Load(addr)
				t.CLFlushOpt(addr)
			}
		}
	}
	run := func(m *bench.Meter) (builds int, got []trace.Counters) {
		got = make([]trace.Counters, nCells)
		m.RunWarm(bench.WarmSweep{
			Name: "degrade",
			Build: func(donor *machine.System) *machine.System {
				builds++
				return machine.MustNewSystemReusing(bench.G1.Config(1), donor)
			},
			Warm:   func(t *machine.Thread) { pass(t, 1) },
			NCells: nCells,
			Cell: func(i int, sys *machine.System) func(*machine.Thread) {
				return func(t *machine.Thread) {
					sys.ResetCounters()
					pass(t, i+1)
				}
			},
			Collect: func(i int, sys *machine.System) { got[i] = sys.PMCounters() },
		})
		return builds, got
	}

	forkBuilds, forked := run(nil)
	if forkBuilds != 1 {
		t.Fatalf("observer-free sweep built %d systems, want 1 (forked)", forkBuilds)
	}
	rec := telemetry.NewRecorder("degrade", telemetry.Config{SampleEvery: 4096})
	coldBuilds, cold := run(&bench.Meter{Rec: rec})
	if coldBuilds != nCells {
		t.Fatalf("telemetry-attached sweep built %d systems, want %d (cold)", coldBuilds, nCells)
	}
	for i := range forked {
		if forked[i] != cold[i] {
			t.Errorf("cell %d: forked counters %+v differ from cold %+v", i, forked[i], cold[i])
		}
	}
}

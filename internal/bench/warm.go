package bench

import (
	"optanesim/internal/machine"
)

// WarmSweep declares a family of sweep cells that share one warm
// prefix: the same Build + Warm phase followed by a per-cell measure
// phase. The runner (Meter.RunWarm) executes the family either forked —
// warming a single system once, snapshotting it
// (machine.System.Snapshot), and forking the snapshot per cell — or
// cold: a fresh system per cell, warm and measure chained inside one
// thread body in one Run, the classic sweep shape.
//
// The two paths are simulation-identical by construction: a fork
// reconstitutes the exact component and thread state the cold run
// would have reached at the end of its warm prefix, so every cell's
// counters, verdicts and end cycles are byte-identical either way
// (pinned by TestWarmReuseByteIdentical, TestWarmReuseTelemetryDegrades
// and the fig2/fig3/fig13 goldens).
type WarmSweep struct {
	// Name is the simulated thread's diagnostic name.
	Name string
	// Build constructs a fresh system and resets any host-side workload
	// state (RNGs, heaps) the closures capture. Called once per cell
	// cold, once per family forked. donor, when non-nil, is
	// recycled storage from an earlier family of the same geometry;
	// pass it to machine.MustNewSystemReusing (or ignore it — reuse is
	// an optimization, never a requirement). Cold cells always get nil.
	Build func(donor *machine.System) *machine.System
	// Warm runs the shared warm prefix on the family's thread.
	Warm func(*machine.Thread)
	// Save captures host-side workload state right after warming;
	// Restore reinstalls it before each cell's measure phase (forked
	// path only — cold cells get fresh state from Build). Restore must
	// treat the saved value as read-only: it is reinstalled once per
	// cell. Both may be nil when the closures hold no host state.
	Save    func() any
	Restore func(any)
	// NCells is the number of measure cells.
	NCells int
	// Cell returns cell i's measure body, closed over the system it
	// will run on (for ResetCounters etc.). The body continues the warm
	// thread: its clock, store queue and cache state carry over.
	Cell func(i int, sys *machine.System) func(*machine.Thread)
	// Collect extracts cell i's result from its finished system.
	Collect func(i int, sys *machine.System)
}

// RunWarm executes the family. It forks when the family has more than
// one cell and nothing observes the warm phase; it runs cold when the
// meter carries a telemetry recorder or fault injector, because both
// are arrival-ordered observers that must see every cell's warm phase.
// m may be nil, as with Meter.Run, and then forks.
func (m *Meter) RunWarm(w WarmSweep) {
	if w.NCells > 1 && (m == nil || (m.Rec == nil && m.Inj == nil)) {
		m.runForked(w)
		return
	}
	for i := 0; i < w.NCells; i++ {
		sys := w.Build(nil)
		body := w.Cell(i, sys)
		sys.Go(w.Name, 0, false, func(t *machine.Thread) {
			w.Warm(t)
			body(t)
		})
		m.Run(sys)
		w.Collect(i, sys)
	}
}

// runForked warms one system, snapshots it, and forks per cell.
// Only the forks' runs are metered: each fork's Run spans warm+measure
// in simulated time (the revived thread's clock carries over), so
// SimCycles accumulates exactly what the cold path would.
//
// Storage is recycled aggressively — the frozen copy and every fork
// reuse cache arrays from the meter's cross-family pool, the warmed
// source, and finished cells — because the deep copies are what
// the forked path pays instead of re-simulation: a G1 L3 alone is
// 14.4 MB of line frames, and allocating it per fork would cost more
// than the warm phases it saves at -quick scale.
func (m *Meter) runForked(w WarmSweep) {
	var donors []*machine.System
	if m != nil {
		donors, m.warmPool = m.warmPool, nil
	}
	// First donor backs Build itself: the allocator re-zeroes a
	// recycled multi-megabyte span in full, so building into a donor
	// (sparse in-place reset) is what turns the per-family fresh
	// system from the sweep's dominant cost into a near-noop.
	var bdonor *machine.System
	if len(donors) > 0 {
		bdonor, donors = donors[0], donors[1:]
	}
	warm := w.Build(bdonor)
	warm.Go(w.Name, 0, false, w.Warm)
	warm.RunPhase()
	snap := warm.SnapshotReusing(donors...)
	// The warmed source is done too: its arrays back the first fork.
	snap.Recycle(warm)
	var saved any
	if w.Save != nil {
		saved = w.Save()
	}
	for i := 0; i < w.NCells; i++ {
		sys := snap.Fork()
		if w.Restore != nil {
			w.Restore(saved)
		}
		sys.Continue(0, w.Cell(i, sys))
		m.Run(sys)
		w.Collect(i, sys)
		// Collect is the cell's last touch of sys: hand its cache arrays
		// back so the next fork copies into them instead of allocating.
		snap.Recycle(sys)
	}
	if m != nil {
		// Keep enough donors for the next family's Build and frozen
		// copy (its forks recycle the warmed source and each other);
		// let the rest go to the collector.
		m.warmPool = snap.Dispose()
		if len(m.warmPool) > 2 {
			m.warmPool = m.warmPool[:2]
		}
	}
}

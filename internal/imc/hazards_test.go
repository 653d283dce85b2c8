package imc

import (
	"testing"

	"optanesim/internal/mem"
)

// TestHazardRebuildAllocs pins the hazard table's steady state: lines
// that come and go leave tombstones that trigger rebuilds at the same
// slot count, and those rebuilds reuse the arrays the previous one
// retired, so they allocate nothing.
func TestHazardRebuildAllocs(t *testing.T) {
	tbl := newHazardTable()
	line := mem.PMBase
	rebuilds := 0
	churn := func() {
		for i := 0; i < hazardInitialSlots; i++ {
			used := tbl.used
			tbl.setMax(line, 100)
			tbl.remove(line)
			if tbl.used <= used {
				rebuilds++
			}
			line += mem.CachelineSize
		}
	}
	allocs := testing.AllocsPerRun(20, churn)
	if rebuilds < 21 {
		t.Fatalf("%d rebuilds in 21 runs; each run must rebuild at least once", rebuilds)
	}
	if len(tbl.keys) != hazardInitialSlots || tbl.live != 0 {
		t.Fatalf("table holds %d slots, %d live; want %d, 0", len(tbl.keys), tbl.live, hazardInitialSlots)
	}
	if allocs != 0 {
		t.Errorf("steady-state churn allocates %.1f times per run, want 0", allocs)
	}
}

package optane

import (
	"testing"

	"optanesim/internal/mem"
)

// TestWriteBufferTableRebuildAllocs pins the residency table's steady
// state: XPLines that come and go leave tombstones that trigger
// rebuilds at the same slot count, and those rebuilds reuse the arrays
// the previous one retired, so they allocate nothing. The retired
// arrays must hold no entry pointers, which would keep dead entries
// alive.
func TestWriteBufferTableRebuildAllocs(t *testing.T) {
	var tbl wbTable
	tbl.init(wbInitialSlots)
	e := &wbEntry{}
	xpl := mem.PMBase
	rebuilds := 0
	churn := func() {
		for i := 0; i < wbInitialSlots; i++ {
			used := tbl.used
			tbl.put(xpl, e)
			if tbl.del(xpl) != e {
				t.Fatalf("del(%v) lost its entry", xpl)
			}
			if tbl.used <= used {
				rebuilds++
			}
			xpl += mem.XPLineSize
		}
	}
	allocs := testing.AllocsPerRun(20, churn)
	if rebuilds < 21 {
		t.Fatalf("%d rebuilds in 21 runs; each run must rebuild at least once", rebuilds)
	}
	if len(tbl.keys) != wbInitialSlots || tbl.live != 0 {
		t.Fatalf("table holds %d slots, %d live; want %d, 0", len(tbl.keys), tbl.live, wbInitialSlots)
	}
	if allocs != 0 {
		t.Errorf("steady-state churn allocates %.1f times per run, want 0", allocs)
	}
	for i, v := range tbl.spareVals {
		if v != nil {
			t.Fatalf("retired slot %d still points at an entry", i)
		}
	}
}

package imc

import (
	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// hazardTable maps cachelines to the time their read-after-persist
// hazard window closes. It replaces a runtime map on the controller's
// per-write hot path with a linear-probed open-addressed table: lookups
// and inserts are a multiply-shift hash plus a short probe, and
// steady-state operation allocates nothing.
//
// The replacement is behaviour-preserving, not merely API-preserving.
// Which entries exist WHEN is observable through time-rewound
// (out-of-order) loads, so the table mirrors the old map's lifecycle
// exactly: reads that find an expired window remove the entry
// (tombstoned here), live-entry count mirrors the old map's len for the
// prune trigger, and bulk expiry happens only at the same
// write-counter/occupancy threshold the map version used.
type hazardTable struct {
	// keys holds line|1 (lines are 64-aligned, so the low bit never
	// carries address information); 0 marks a never-used slot. Removed
	// entries keep their key and carry the hazardDead value so probe
	// chains stay intact.
	keys  []uint64
	vals  []sim.Cycles
	live  int  // entries visible to get (= old map's len)
	used  int  // occupied slots including tombstones (growth trigger)
	shift uint // 64 - log2(len(keys))

	// spareKeys/spareVals are the arrays the last rebuild retired; the
	// next rebuild that wants the same slot count reuses them instead
	// of allocating.
	spareKeys []uint64
	spareVals []sim.Cycles
}

// hazardDead marks a tombstoned slot. No real hazard close time is
// negative: windows are accept + RAPWindow with both non-negative.
const hazardDead = sim.Cycles(-1 << 62)

const hazardInitialSlots = 1 << 10

func newHazardTable() *hazardTable {
	t := &hazardTable{}
	t.init(hazardInitialSlots)
	return t
}

func (t *hazardTable) init(slots int) {
	if len(t.spareKeys) == slots {
		t.keys, t.vals = t.spareKeys, t.spareVals
		t.spareKeys, t.spareVals = nil, nil
		clear(t.keys)
		clear(t.vals)
	} else {
		t.keys = make([]uint64, slots)
		t.vals = make([]sim.Cycles, slots)
	}
	t.live = 0
	t.used = 0
	t.shift = 64
	for s := slots; s > 1; s >>= 1 {
		t.shift--
	}
}

// slot returns the starting probe position for a key.
func (t *hazardTable) slot(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the hazard close time recorded for line, if any.
func (t *hazardTable) get(line mem.Addr) (sim.Cycles, bool) {
	key := uint64(line) | 1
	mask := len(t.keys) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			if v := t.vals[i]; v != hazardDead {
				return v, true
			}
			return 0, false
		}
		if k == 0 {
			return 0, false
		}
	}
}

// remove tombstones line's entry (the old map's delete-on-expired-read).
func (t *hazardTable) remove(line mem.Addr) {
	key := uint64(line) | 1
	mask := len(t.keys) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			if t.vals[i] != hazardDead {
				t.vals[i] = hazardDead
				t.live--
			}
			return
		}
		if k == 0 {
			return
		}
	}
}

// setMax records hazard for line, keeping the later close time if a live
// entry already exists (the old map's insert-or-max).
func (t *hazardTable) setMax(line mem.Addr, hazard sim.Cycles) {
	key := uint64(line) | 1
	mask := len(t.keys) - 1
	for i := t.slot(key); ; i = (i + 1) & mask {
		k := t.keys[i]
		if k == key {
			if t.vals[i] == hazardDead {
				t.vals[i] = hazard
				t.live++
			} else if hazard > t.vals[i] {
				t.vals[i] = hazard
			}
			return
		}
		if k == 0 {
			t.keys[i] = key
			t.vals[i] = hazard
			t.live++
			t.used++
			if t.used*4 >= len(t.keys)*3 {
				t.rebuild(false, 0)
			}
			return
		}
	}
}

// rebuild re-inserts entries into a table sized so occupancy is at most
// half, always discarding tombstones (semantically absent). When expire
// is set, entries whose window closed at or before expireBefore are
// dropped too — the old map's prune sweep.
func (t *hazardTable) rebuild(expire bool, expireBefore sim.Cycles) {
	keep := 0
	for i, k := range t.keys {
		if k == 0 || t.vals[i] == hazardDead {
			continue
		}
		if expire && t.vals[i] <= expireBefore {
			continue
		}
		keep++
	}
	slots := hazardInitialSlots
	for slots < 4*(keep+1) {
		slots *= 2
	}
	oldKeys, oldVals := t.keys, t.vals
	t.init(slots)
	mask := slots - 1
	for i, k := range oldKeys {
		if k == 0 || oldVals[i] == hazardDead {
			continue
		}
		if expire && oldVals[i] <= expireBefore {
			continue
		}
		for j := t.slot(k); ; j = (j + 1) & mask {
			if t.keys[j] == 0 {
				t.keys[j] = k
				t.vals[j] = oldVals[i]
				break
			}
		}
		t.live++
		t.used++
	}
	t.spareKeys, t.spareVals = oldKeys, oldVals
}

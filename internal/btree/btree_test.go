package btree

import (
	"sort"
	"testing"
	"testing/quick"

	"optanesim/internal/pmem"
	"optanesim/internal/sim"
	"optanesim/internal/workload"
)

func newFreeTree(mode Mode, heapBytes uint64) (*Tree, *Writer) {
	h := pmem.NewPMHeap(heapBytes)
	s := pmem.NewFreeSession(h)
	t := New(s, h, mode)
	return t, t.NewWriter(s, nil)
}

func TestInsertGetBothModes(t *testing.T) {
	for _, mode := range []Mode{InPlace, RedoLog} {
		tr, w := newFreeTree(mode, 64<<20)
		keys := workload.SequenceKeys(11, 20000)
		for i, k := range keys {
			if err := tr.Insert(w, k, uint64(i)); err != nil {
				t.Fatalf("%v insert: %v", mode, err)
			}
		}
		for i, k := range keys {
			v, ok := tr.Get(w.Session(), k)
			if !ok || v != uint64(i) {
				t.Fatalf("%v get %d: got (%d,%v) want (%d,true)", mode, k, v, ok, i)
			}
		}
		if _, ok := tr.Get(w.Session(), 12345); ok {
			t.Fatalf("%v: found absent key", mode)
		}
		if tr.Splits() == 0 || tr.Height() < 2 {
			t.Fatalf("%v: tree did not grow: splits=%d height=%d", mode, tr.Splits(), tr.Height())
		}
	}
}

func TestOverwrite(t *testing.T) {
	tr, w := newFreeTree(InPlace, 8<<20)
	if err := tr.Insert(w, 7, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(w, 7, 9); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get(w.Session(), 7); !ok || v != 9 {
		t.Fatalf("overwrite: got (%d,%v)", v, ok)
	}
}

func TestScanSorted(t *testing.T) {
	tr, w := newFreeTree(RedoLog, 32<<20)
	keys := workload.SequenceKeys(13, 5000)
	for _, k := range keys {
		if err := tr.Insert(w, k, k); err != nil {
			t.Fatal(err)
		}
	}
	sorted := append([]uint64{}, keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	got := tr.Scan(w.Session(), 1, len(keys))
	if len(got) != len(sorted) {
		t.Fatalf("scan returned %d keys, want %d", len(got), len(sorted))
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], sorted[i])
		}
	}
	// Bounded scan from the middle.
	mid := sorted[len(sorted)/2]
	part := tr.Scan(w.Session(), mid, 100)
	if len(part) != 100 || part[0] != mid {
		t.Fatalf("partial scan: len=%d first=%d want first=%d", len(part), part[0], mid)
	}
}

// TestModesProduceSameTree verifies both persist strategies yield
// identical logical contents.
func TestModesProduceSameTree(t *testing.T) {
	keys := workload.SequenceKeys(17, 8000)
	var scans [2][]uint64
	for i, mode := range []Mode{InPlace, RedoLog} {
		tr, w := newFreeTree(mode, 64<<20)
		for _, k := range keys {
			if err := tr.Insert(w, k, k+1); err != nil {
				t.Fatal(err)
			}
		}
		scans[i] = tr.Scan(w.Session(), 1, len(keys)+10)
	}
	if len(scans[0]) != len(scans[1]) {
		t.Fatalf("mode scans differ in length: %d vs %d", len(scans[0]), len(scans[1]))
	}
	for i := range scans[0] {
		if scans[0][i] != scans[1][i] {
			t.Fatalf("mode scans differ at %d: %d vs %d", i, scans[0][i], scans[1][i])
		}
	}
}

// TestQuickMapEquivalence property-checks the tree against a map.
func TestQuickMapEquivalence(t *testing.T) {
	f := func(seed uint64, nRaw uint16, redo bool) bool {
		n := int(nRaw)%3000 + 1
		mode := InPlace
		if redo {
			mode = RedoLog
		}
		tr, w := newFreeTree(mode, 64<<20)
		ref := make(map[uint64]uint64, n)
		for i, k := range workload.SequenceKeys(seed, n) {
			if tr.Insert(w, k, uint64(i)) != nil {
				return false
			}
			ref[k] = uint64(i)
		}
		for k, v := range ref {
			if got, ok := tr.Get(w.Session(), k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestRedoRecovery simulates a crash between commit and apply: the
// committed log must replay, an uncommitted one must not.
func TestRedoRecovery(t *testing.T) {
	h := pmem.NewPMHeap(8 << 20)
	s := pmem.NewFreeSession(h)
	tr := New(s, h, RedoLog)
	w := tr.NewWriter(s, nil)

	// Prepare a leaf with two keys via the normal path.
	if err := tr.Insert(w, 10, 100); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(w, 30, 300); err != nil {
		t.Fatal(err)
	}
	leaf := tr.descend(s, 10, nil)

	// Committed-but-unapplied transaction: shift key 30 to slot 2 and
	// put key 20 in slot 1, count 3 (what Insert(20) would log).
	w.beginTxn()
	w.logUpdate(slotAddr(leaf, 2), 30, 300)
	w.logUpdate(slotAddr(leaf, 1), 20, 200)
	w.logCount(leaf, 3)
	w.commit()
	// CRASH here: apply never runs.
	w.pending = nil

	if n := w.Recover(); n != 3 {
		t.Fatalf("recover replayed %d entries, want 3", n)
	}
	for _, want := range []struct{ k, v uint64 }{{10, 100}, {20, 200}, {30, 300}} {
		if v, ok := tr.Get(s, want.k); !ok || v != want.v {
			t.Fatalf("after recovery, get %d = (%d,%v), want (%d,true)", want.k, v, ok, want.v)
		}
	}
	// Second recovery is a no-op (flag cleared).
	if n := w.Recover(); n != 0 {
		t.Fatalf("second recover replayed %d entries, want 0", n)
	}

	// Uncommitted transaction: log entries but no commit; recover must
	// not replay them.
	w.beginTxn()
	w.logUpdate(slotAddr(leaf, 3), 40, 400)
	w.pending = nil
	if n := w.Recover(); n != 0 {
		t.Fatalf("uncommitted txn replayed %d entries", n)
	}
	if _, ok := tr.Get(s, 40); ok {
		t.Fatal("uncommitted update became visible")
	}
}

// TestSeparatorInvariants checks that every key reachable by Get is also
// reached by descend through consistent separators after heavy splitting.
func TestSeparatorInvariants(t *testing.T) {
	tr, w := newFreeTree(InPlace, 64<<20)
	rng := sim.NewRand(99)
	keys := workload.UniqueKeys(rng, 12000)
	for _, k := range keys {
		if err := tr.Insert(w, k, k^0xF0F0); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		if v, ok := tr.Get(w.Session(), k); !ok || v != k^0xF0F0 {
			t.Fatalf("get %d failed after splits (got %d,%v)", k, v, ok)
		}
	}
}

func TestDeleteBothModes(t *testing.T) {
	for _, mode := range []Mode{InPlace, RedoLog} {
		tr, w := newFreeTree(mode, 64<<20)
		keys := workload.SequenceKeys(31, 8000)
		for _, k := range keys {
			if err := tr.Insert(w, k, k); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < len(keys); i += 2 {
			if !tr.Delete(w, keys[i]) {
				t.Fatalf("%v: delete of present key failed", mode)
			}
		}
		for i, k := range keys {
			_, ok := tr.Get(w.Session(), k)
			if i%2 == 0 && ok {
				t.Fatalf("%v: deleted key %d still present", mode, k)
			}
			if i%2 == 1 && !ok {
				t.Fatalf("%v: surviving key %d lost", mode, k)
			}
		}
		if tr.Delete(w, 0xEEEE_EEEE_EEEE_EEE1) {
			t.Fatalf("%v: delete of absent key reported success", mode)
		}
		if got := tr.Len(w.Session()); got != len(keys)/2 {
			t.Fatalf("%v: Len = %d, want %d", mode, got, len(keys)/2)
		}
		if err := tr.Validate(w.Session()); err != nil {
			t.Fatalf("%v: post-delete validation: %v", mode, err)
		}
	}
}

func TestValidateAfterHeavySplits(t *testing.T) {
	tr, w := newFreeTree(InPlace, 128<<20)
	keys := workload.SequenceKeys(33, 50000)
	for i, k := range keys {
		if err := tr.Insert(w, k, k); err != nil {
			t.Fatal(err)
		}
		if i%20000 == 19999 {
			if err := tr.Validate(w.Session()); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.Validate(w.Session()); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(w.Session()); got != len(keys) {
		t.Fatalf("Len = %d, want %d", got, len(keys))
	}
}

// TestQuickInsertDeleteEquivalence property-checks interleaved inserts
// and deletes against a map.
func TestQuickInsertDeleteEquivalence(t *testing.T) {
	f := func(seed uint64, opsRaw uint16, redo bool) bool {
		ops := int(opsRaw)%2500 + 10
		mode := InPlace
		if redo {
			mode = RedoLog
		}
		tr, w := newFreeTree(mode, 64<<20)
		ref := make(map[uint64]uint64)
		rng := sim.NewRand(seed)
		keys := workload.SequenceKeys(seed, ops)
		for i := 0; i < ops; i++ {
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(3) == 0 {
				delete(ref, k)
				tr.Delete(w, k)
			} else {
				ref[k] = uint64(i)
				if tr.Insert(w, k, uint64(i)) != nil {
					return false
				}
			}
		}
		if tr.Len(w.Session()) != len(ref) {
			return false
		}
		for k, v := range ref {
			if got, ok := tr.Get(w.Session(), k); !ok || got != v {
				return false
			}
		}
		return tr.Validate(w.Session()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

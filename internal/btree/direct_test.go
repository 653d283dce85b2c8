package btree

import (
	"bytes"
	"math/rand"
	"testing"

	"optanesim/internal/mem"
	"optanesim/internal/pmem"
)

// nopObserver watches a session without recording anything; attaching
// it makes the session tracked, which forces the per-slot leaf insert.
type nopObserver struct{}

func (nopObserver) ObserveStore(mem.Addr)   {}
func (nopObserver) ObserveNTStore(mem.Addr) {}
func (nopObserver) ObserveFlush(mem.Addr)   {}
func (nopObserver) ObserveFence()           {}

// directOp is one step of a differential key stream: an insert of
// key -> val, or a delete of key.
type directOp struct {
	key, val uint64
	del      bool
}

// directStream is one named op sequence.
type directStream struct {
	name string
	ops  []directOp
}

// directStreams returns the seeded streams the differential test
// drives: random keys with repeats and deletes, and ascending and
// descending runs that revisit earlier keys as overwrites. Each is long
// enough to split the root at least twice.
func directStreams(n int) []directStream {
	rng := rand.New(rand.NewSource(16))
	random := make([]directOp, 0, n)
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(2*n)) + 1
		random = append(random, directOp{key: k, val: uint64(i), del: i%13 == 0})
	}
	asc := make([]directOp, 0, n+n/7)
	desc := make([]directOp, 0, n+n/7)
	for i := 1; i <= n; i++ {
		asc = append(asc, directOp{key: uint64(i), val: uint64(i)})
		desc = append(desc, directOp{key: uint64(n + 1 - i), val: uint64(i)})
		if i%7 == 0 {
			asc = append(asc, directOp{key: uint64(i / 2), val: uint64(3 * i)})
			desc = append(desc, directOp{key: uint64(n + 1 - i/2), val: uint64(3 * i)})
		}
	}
	return []directStream{{"random", random}, {"ascending", asc}, {"descending", desc}}
}

// buildStream applies ops to a fresh tree on a free session, with a
// no-op observer attached when observed, and returns the tree and its
// heap.
func buildStream(t *testing.T, mode Mode, ops []directOp, observed bool) (*Tree, *pmem.Heap) {
	t.Helper()
	h := pmem.NewPMHeap(8 << 20)
	s := pmem.NewFreeSession(h)
	if observed {
		s.SetObserver(nopObserver{})
	}
	tr := New(s, h, mode)
	w := tr.NewWriter(s, nil)
	for _, op := range ops {
		if op.del {
			tr.Delete(w, op.key)
			continue
		}
		if err := tr.Insert(w, op.key, op.val); err != nil {
			t.Fatal(err)
		}
	}
	return tr, h
}

// TestDirectInsertMatchesPerSlot checks that an untracked session's bulk
// leaf insert leaves exactly the heap the per-slot persist pattern
// leaves: the same nodes, counts and slots and, in RedoLog mode, the
// same retired log entries and a zero commit flag.
func TestDirectInsertMatchesPerSlot(t *testing.T) {
	for _, st := range directStreams(60_000) {
		for _, mode := range []Mode{InPlace, RedoLog} {
			t.Run(st.name+"/"+mode.String(), func(t *testing.T) {
				direct, dh := buildStream(t, mode, st.ops, false)
				slot, sh := buildStream(t, mode, st.ops, true)
				if direct.Height() < 3 {
					t.Fatalf("height %d: the stream must split the root at least twice", direct.Height())
				}
				if dh.Used() != sh.Used() || direct.Height() != slot.Height() ||
					direct.Nodes() != slot.Nodes() || direct.Splits() != slot.Splits() {
					t.Fatalf("bulk used=%d height=%d nodes=%d splits=%d; per-slot used=%d height=%d nodes=%d splits=%d",
						dh.Used(), direct.Height(), direct.Nodes(), direct.Splits(),
						sh.Used(), slot.Height(), slot.Nodes(), slot.Splits())
				}
				a, b := dh.Snapshot(), sh.Snapshot()
				if !bytes.Equal(a, b) {
					i := 0
					for a[i] == b[i] {
						i++
					}
					t.Fatalf("heap images differ first at %v: bulk %#x, per-slot %#x",
						dh.Base()+mem.Addr(i), a[i], b[i])
				}
				if err := direct.Validate(pmem.NewFreeSession(dh)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// fenceEpochs records the observed stores between fences.
type fenceEpochs struct{ stores []int }

func (f *fenceEpochs) ObserveStore(mem.Addr)   { f.stores[len(f.stores)-1]++ }
func (f *fenceEpochs) ObserveNTStore(mem.Addr) {}
func (f *fenceEpochs) ObserveFlush(mem.Addr)   {}
func (f *fenceEpochs) ObserveFence()           { f.stores = append(f.stores, 0) }

// TestObservedInsertKeepsSlotGranularity guards the crash tracker's
// view of an interior in-place insert: an observed session must still
// store and fence once per shifted slot (plus the top duplicate, the
// count and the new slot), so every intermediate shift state is a
// distinct crash point.
func TestObservedInsertKeepsSlotGranularity(t *testing.T) {
	h := pmem.NewPMHeap(1 << 20)
	s := pmem.NewFreeSession(h)
	tr := New(s, h, InPlace)
	w := tr.NewWriter(s, nil)
	const cnt = 40
	for k := uint64(1); k <= cnt; k++ {
		if err := tr.Insert(w, 2*k, k); err != nil {
			t.Fatal(err)
		}
	}
	obs := &fenceEpochs{stores: []int{0}}
	s.SetObserver(obs)
	if err := tr.Insert(w, 5, 5); err != nil { // lands at slot 2
		t.Fatal(err)
	}
	shifted := cnt - 2
	if got, want := len(obs.stores)-1, shifted+2; got != want {
		t.Fatalf("insert shifting %d slots fenced %d times, want %d", shifted, got, want)
	}
	for i, n := range obs.stores[:len(obs.stores)-1] {
		if n == 0 {
			t.Fatalf("fence epoch %d observed no store", i)
		}
	}
	if got, ok := tr.Get(s, 5); !ok || got != 5 {
		t.Fatalf("Get(5) = %d, %v", got, ok)
	}
}

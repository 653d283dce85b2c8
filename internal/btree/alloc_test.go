package btree

import (
	"testing"

	"optanesim/internal/pmem"
)

// TestIndexHotPathAllocs pins the index's zero-allocation guarantee on
// a warmed free session: once the writer's descent path and redo
// buffers have reached their working size, an Insert that does not
// split — in both modes — and a Get allocate nothing on the host. The
// inserted keys are odd keys spread over a tree of even keys built in
// ascending order, whose leaves are all left half full by their
// splits, so no measured insert splits a node. The untracked arm times
// the bulk leaf insert; the observed arm attaches a no-op observer
// after the build, so its inserts take the per-slot path.
func TestIndexHotPathAllocs(t *testing.T) {
	for _, mode := range []Mode{InPlace, RedoLog} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Run("untracked", func(t *testing.T) { testIndexHotPathAllocs(t, mode, false) })
			t.Run("observed", func(t *testing.T) { testIndexHotPathAllocs(t, mode, true) })
		})
	}
}

func testIndexHotPathAllocs(t *testing.T, mode Mode, observed bool) {
	h := pmem.NewPMHeap(8 << 20)
	s := pmem.NewFreeSession(h)
	tr := New(s, h, mode)
	w := tr.NewWriter(s, nil)
	const prebuilt = 20_000
	for k := uint64(2); k <= 2*prebuilt; k += 2 {
		if err := tr.Insert(w, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if observed {
		s.SetObserver(nopObserver{})
	}
	if s.Untracked() == observed {
		t.Fatalf("Untracked() = %v with observed = %v", s.Untracked(), observed)
	}

	next := uint64(1)
	splits := tr.Splits()
	insert := testing.AllocsPerRun(200, func() {
		if err := tr.Insert(w, next, next); err != nil {
			t.Fatal(err)
		}
		next += 22 // about three inserts per half-full leaf
	})
	if tr.Splits() != splits {
		t.Fatalf("measured inserts split %d nodes; the probe must not split", tr.Splits()-splits)
	}
	if insert != 0 {
		t.Errorf("Insert allocates %.1f times per op, want 0", insert)
	}

	i := uint64(0)
	get := testing.AllocsPerRun(200, func() {
		i = (i + 7919) % prebuilt
		k := 2 + 2*i
		if _, ok := tr.Get(s, k); !ok {
			t.Fatalf("Get(%d) missed", k)
		}
	})
	if get != 0 {
		t.Errorf("Get allocates %.1f times per op, want 0", get)
	}
}

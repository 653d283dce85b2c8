package btree

import (
	"fmt"
	"testing"

	"optanesim/internal/crash"
	"optanesim/internal/mem"
	"optanesim/internal/pmem"
	"optanesim/internal/sim"
)

// crashOp is one mutation of a tracked trace.
type crashOp struct {
	del      bool
	key, val uint64
}

// applyOps replays the first n ops into the expected key->value map.
func applyOps(ops []crashOp, n int) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for _, o := range ops[:n] {
		if o.del {
			delete(m, o.key)
		} else {
			m[o.key] = o.val
		}
	}
	return m
}

// recoveryCheck returns the invariant function the crash harness runs
// on every materialized image: reopen the tree from its superblock,
// replay the redo log, complete in-flight splits, validate the
// structure, and verify every committed key. meta is the number of ops
// whose final fence had retired before the crash; the op in flight at
// the cut may or may not have taken effect.
func recoveryCheck(mode Mode, super, logBase, flagAddr mem.Addr, ops []crashOp) func(img *pmem.Heap, meta any) error {
	return func(img *pmem.Heap, meta any) error {
		n := meta.(int)
		s := pmem.NewFreeSession(img)
		tr := Open(s, img, mode, super)
		w := tr.OpenWriter(s, logBase, flagAddr)
		w.Recover()
		tr.Recover(s)
		if err := tr.Validate(s); err != nil {
			return err
		}
		expect := applyOps(ops, n)
		var pending *crashOp
		if n < len(ops) {
			pending = &ops[n]
		}
		for k, v := range expect {
			got, ok := tr.Get(s, k)
			if pending != nil && pending.key == k {
				switch {
				case pending.del:
					if ok && got != v {
						return fmt.Errorf("key %d = %d mid-delete, want %d or absent", k, got, v)
					}
				default:
					if !ok {
						return fmt.Errorf("key %d lost mid-overwrite", k)
					}
					if got != v && got != pending.val {
						return fmt.Errorf("key %d = %d, want %d or pending %d", k, got, v, pending.val)
					}
				}
				continue
			}
			if !ok {
				return fmt.Errorf("committed key %d missing", k)
			}
			if got != v {
				return fmt.Errorf("committed key %d = %d, want %d", k, got, v)
			}
		}
		return nil
	}
}

// runCrashMatrix executes ops on a fresh tree under the tracker and
// checks every enumerated crash state.
func runCrashMatrix(t *testing.T, mode Mode, ops []crashOp, opts crash.Options) crash.Outcome {
	t.Helper()
	h := pmem.NewPMHeap(1 << 20)
	s := pmem.NewFreeSession(h)
	tr := New(s, h, mode)
	w := tr.NewWriter(s, nil)

	tk := crash.NewTracker(h)
	done := 0
	tk.SetMetaFunc(func() any { return done })
	tk.Attach(s)

	for _, o := range ops {
		if o.del {
			tr.Delete(w, o.key)
		} else {
			if err := tr.Insert(w, o.key, o.val); err != nil {
				t.Fatal(err)
			}
		}
		done++
	}

	o := tk.Check(opts, recoveryCheck(mode, tr.Super(), w.LogBase(), w.FlagAddr(), ops))
	for i, v := range o.Violations {
		if i >= 5 {
			t.Errorf("... %d more violations", len(o.Violations)-5)
			break
		}
		t.Errorf("violation: %v", v)
	}
	if t.Failed() {
		t.Fatalf("crash matrix failed: %v", o)
	}
	return o
}

// TestCrashMatrixSmall exhaustively enumerates every survivable crash
// state of a short single-leaf trace in both modes: interior inserts,
// an append, an overwrite, and a delete.
func TestCrashMatrixSmall(t *testing.T) {
	ops := []crashOp{
		{key: 30, val: 300},
		{key: 10, val: 100},
		{key: 20, val: 200},
		{key: 40, val: 400},
		{key: 20, val: 201}, // overwrite
		{del: true, key: 30},
	}
	for _, mode := range []Mode{InPlace, RedoLog} {
		o := runCrashMatrix(t, mode, ops, crash.Options{})
		if o.States < 10 {
			t.Fatalf("%v: implausibly few states: %v", mode, o)
		}
	}
}

// TestCrashMatrixSplit drives the trace through leaf and root splits
// (Fanout+2 inserts) with sampled crash points.
func TestCrashMatrixSplit(t *testing.T) {
	var ops []crashOp
	for i := 0; i < Fanout+2; i++ {
		// Interleave low/high keys so splits see interior inserts.
		k := uint64(2*i + 1)
		if i%2 == 1 {
			k = uint64(10000 - 2*i)
		}
		ops = append(ops, crashOp{key: k, val: k * 7})
	}
	for _, mode := range []Mode{InPlace, RedoLog} {
		runCrashMatrix(t, mode, ops, crash.Options{MaxPoints: 120, MaxStatesPerPoint: 8, Seed: 3})
	}
}

// TestCrashMatrixDeepTraceSeeded is the seeded-random deep-trace run:
// hundreds of mixed operations, sampled crash points and states.
func TestCrashMatrixDeepTraceSeeded(t *testing.T) {
	r := sim.NewRand(1234)
	var ops []crashOp
	for i := 0; i < 300; i++ {
		k := uint64(r.Intn(200) + 1)
		if r.Intn(5) == 0 {
			ops = append(ops, crashOp{del: true, key: k})
		} else {
			ops = append(ops, crashOp{key: k, val: r.Uint64()%1000 + 1})
		}
	}
	for _, mode := range []Mode{InPlace, RedoLog} {
		o := runCrashMatrix(t, mode, ops, crash.Options{MaxPoints: 80, MaxStatesPerPoint: 6, Seed: 99})
		if o.Points < 40 {
			t.Fatalf("%v: expected sampled points, got %v", mode, o)
		}
	}
}

// TestBrokenCommitOrderingDetected is the negative control: log entries
// are stored but never flushed, yet the commit flag is persisted — the
// classic missing-flush bug. The harness must surface violations.
func TestBrokenCommitOrderingDetected(t *testing.T) {
	h := pmem.NewPMHeap(1 << 20)
	s := pmem.NewFreeSession(h)
	tr := New(s, h, RedoLog)
	w := tr.NewWriter(s, nil)
	for _, k := range []uint64{10, 30} {
		if err := tr.Insert(w, k, k*10); err != nil {
			t.Fatal(err)
		}
	}

	tk := crash.NewTracker(h)
	tk.Attach(s)
	leaf := tr.descend(s, 10, nil)

	// Broken transaction: entries only stored (no flush, no fence), flag
	// flushed and fenced. A crash can surface flag=2 with garbage (or
	// missing) entries.
	for i, u := range []update{
		{kind: entrySlot, addr: slotAddr(leaf, 2), key: 30, val: 300},
		{kind: entrySlot, addr: slotAddr(leaf, 1), key: 20, val: 200},
	} {
		entry := w.logBase + mem.Addr(i*logEntryBytes)
		s.Poke64(entry, u.kind)
		s.Poke64(entry+8, uint64(u.addr))
		s.Poke64(entry+16, u.key)
		s.Poke64(entry+24, u.val)
		s.StoreLine(entry)
	}
	s.Store64(w.flagAddr, 2)
	s.Flush(w.flagAddr, 8)
	s.FenceOrdered()

	o := tk.Check(crash.Options{}, func(img *pmem.Heap, _ any) error {
		s2 := pmem.NewFreeSession(img)
		t2 := Open(s2, img, RedoLog, tr.Super())
		w2 := t2.OpenWriter(s2, w.LogBase(), w.FlagAddr())
		w2.Recover()
		t2.Recover(s2)
		if err := t2.Validate(s2); err != nil {
			return err
		}
		for _, want := range []struct{ k, v uint64 }{{10, 100}, {30, 300}} {
			if v, ok := t2.Get(s2, want.k); !ok || v != want.v {
				return fmt.Errorf("get %d = (%d,%v)", want.k, v, ok)
			}
		}
		return nil
	})
	if !o.Failed() {
		t.Fatalf("missing-flush commit ordering not detected: %v", o)
	}

	// The same transaction done through the writer's correct protocol
	// must pass: entries persisted before the flag. First retire the
	// broken commit so it doesn't leak into the new baseline.
	s.Store64(w.FlagAddr(), 0)
	s.Flush(w.FlagAddr(), 8)
	s.FenceOrdered()
	tk.Reset()
	w.beginTxn()
	w.logUpdate(slotAddr(leaf, 2), 30, 300)
	w.logUpdate(slotAddr(leaf, 1), 20, 200)
	w.logCount(leaf, 3)
	w.commit()
	w.apply()
	o = tk.Check(crash.Options{}, func(img *pmem.Heap, _ any) error {
		s2 := pmem.NewFreeSession(img)
		t2 := Open(s2, img, RedoLog, tr.Super())
		w2 := t2.OpenWriter(s2, w.LogBase(), w.FlagAddr())
		w2.Recover()
		t2.Recover(s2)
		if err := t2.Validate(s2); err != nil {
			return err
		}
		for _, want := range []struct{ k, v uint64 }{{10, 100}, {30, 300}} {
			if v, ok := t2.Get(s2, want.k); !ok || v != want.v {
				return fmt.Errorf("get %d = (%d,%v)", want.k, v, ok)
			}
		}
		return nil
	})
	if o.Failed() {
		t.Fatalf("correct commit protocol flagged: %v", o.Violations[0])
	}
}

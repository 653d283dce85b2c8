package pmem

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"optanesim/internal/fault"
	"optanesim/internal/machine"
	"optanesim/internal/mem"
)

// twoHeaps returns a PM heap and a DRAM heap of one page each, with
// their first lines allocated.
func twoHeaps() (pm, dram *Heap) {
	pm, dram = NewPMHeap(4096), NewDRAMHeap(4096)
	pm.Alloc(mem.CachelineSize, mem.CachelineSize)
	dram.Alloc(mem.CachelineSize, mem.CachelineSize)
	return pm, dram
}

// backing reads the word at addr straight from h's backing bytes.
func backing(h *Heap, addr mem.Addr) uint64 {
	return binary.LittleEndian.Uint64(h.buf[addr-h.base:])
}

// alternate drives s back and forth between the two heaps, so every
// access misses the heap that served the previous one, and checks that
// each access reads or writes the right backing bytes.
func alternate(t *testing.T, s *Session, pm, dram *Heap) {
	t.Helper()
	for i := 0; i < 8; i++ {
		pa := pm.Base() + mem.Addr(8*i)
		da := dram.Base() + mem.Addr(dram.Size()) - mem.Addr(8*(i+1))
		s.Poke64(pa, uint64(100+i))
		s.Poke64(da, uint64(200+i))
		if got := backing(pm, pa); got != uint64(100+i) {
			t.Fatalf("Poke64(%v): PM backing holds %d, want %d", pa, got, 100+i)
		}
		if got := backing(dram, da); got != uint64(200+i) {
			t.Fatalf("Poke64(%v): DRAM backing holds %d, want %d", da, got, 200+i)
		}
		if got := s.Peek64(pa); got != uint64(100+i) {
			t.Fatalf("Peek64(%v) = %d, want %d", pa, got, 100+i)
		}
		if got := s.Load64(da); got != uint64(200+i) {
			t.Fatalf("Load64(%v) = %d, want %d", da, got, 200+i)
		}
		if got := s.Load64(pa); got != uint64(100+i) {
			t.Fatalf("Load64(%v) = %d, want %d", pa, got, 100+i)
		}
		if s.last != pm {
			t.Fatalf("dispatch cache holds %q after a PM access", s.last.name)
		}
	}
	// Ranges dispatch once on their first byte and land whole.
	pa, da := pm.Base()+mem.CachelineSize, dram.Base()+mem.CachelineSize
	s.StoreRange(pa, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	s.StoreRange(da, []byte{8, 7, 6, 5, 4, 3, 2, 1})
	if got := pm.buf[mem.CachelineSize : mem.CachelineSize+8]; string(got) != "\x01\x02\x03\x04\x05\x06\x07\x08" {
		t.Fatalf("StoreRange into PM landed as %v", got)
	}
	if got := s.LoadRange(da, 8); string(got) != "\x08\x07\x06\x05\x04\x03\x02\x01" {
		t.Fatalf("LoadRange from DRAM = %v", got)
	}
	if got := s.Peek64(pa); got != 0x0807060504030201 {
		t.Fatalf("Peek64 after StoreRange = %#x", got)
	}
}

// wantOutsidePanic checks that accessing addr through op panics with
// the session's out-of-range message.
func wantOutsidePanic(t *testing.T, what string, addr mem.Addr, op func(mem.Addr)) {
	t.Helper()
	defer func() {
		r := recover()
		want := fmt.Sprintf("address %v outside all session heaps", addr)
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("%s at %v: recovered %v, want a panic containing %q", what, addr, r, want)
		}
	}()
	op(addr)
}

// outside is every address the two-heap layout leaves unmapped at an
// edge: below the DRAM base, one past each heap's end, and inside the
// gap between them.
func outside(pm, dram *Heap) []mem.Addr {
	return []mem.Addr{
		0,
		dram.Base() - 1,
		dram.Base() + mem.Addr(dram.Size()),
		(dram.Base() + mem.Addr(dram.Size()) + pm.Base()) / 2,
		pm.Base() - 1,
		pm.Base() + mem.Addr(pm.Size()),
	}
}

func checkOutsidePanics(t *testing.T, s *Session, pm, dram *Heap) {
	t.Helper()
	for _, a := range outside(pm, dram) {
		// Warm the dispatch cache on each heap in turn, so the edge
		// address is tested against a cached neighbour.
		for _, warm := range []mem.Addr{pm.Base(), dram.Base()} {
			s.Peek64(warm)
			wantOutsidePanic(t, "Peek64", a, func(a mem.Addr) { s.Peek64(a) })
			s.Peek64(warm)
			wantOutsidePanic(t, "Poke64", a, func(a mem.Addr) { s.Poke64(a, 1) })
			s.Peek64(warm)
			wantOutsidePanic(t, "Load64", a, func(a mem.Addr) { s.Load64(a) })
			s.Peek64(warm)
			wantOutsidePanic(t, "StoreRange", a, func(a mem.Addr) { s.StoreRange(a, []byte{1}) })
		}
	}
}

// TestSessionDispatch pins heap dispatch on a two-heap session: accesses
// that alternate between PM and DRAM reach the right backing bytes, and
// every unmapped edge address panics, on a free session, on a session
// derived with WithThread, and on a timed session.
func TestSessionDispatch(t *testing.T) {
	t.Run("free", func(t *testing.T) {
		pm, dram := twoHeaps()
		s := NewFreeSession(pm, dram)
		alternate(t, s, pm, dram)
		checkOutsidePanics(t, s, pm, dram)
	})
	t.Run("with-thread", func(t *testing.T) {
		pm, dram := twoHeaps()
		parent := NewFreeSession(dram, pm)
		parent.Peek64(dram.Base()) // the derived session inherits a warm cache
		s := parent.WithThread(nil)
		if s.last != dram {
			t.Fatal("WithThread dropped the dispatch cache")
		}
		alternate(t, s, pm, dram)
		checkOutsidePanics(t, s, pm, dram)
	})
	t.Run("timed", func(t *testing.T) {
		pm, dram := twoHeaps()
		sys := machine.MustNewSystem(machine.G1Config(1))
		sys.Go("dispatch", 0, false, func(th *machine.Thread) {
			alternate(t, NewSession(th, pm, dram), pm, dram)
			alternate(t, NewFreeSession(pm, dram).WithThread(th), pm, dram)
		})
		sys.Run()
		if sys.PMCounters().DemandReadBytes == 0 || sys.DRAMCounters().DemandReadBytes == 0 {
			t.Fatal("timed loads did not reach both regions")
		}
	})
}

// TestSessionDispatchFaults checks that the dispatch cache changes no
// read classification: with an injector attached, every load of a
// poisoned line in either heap is counted as absorbed outside a checked
// scope and surfaces as a typed error inside one.
func TestSessionDispatchFaults(t *testing.T) {
	pm, dram := twoHeaps()
	s := NewFreeSession(pm, dram)
	inj := fault.New(fault.Config{})
	s.SetFaults(inj)
	pa, da := pm.Base(), dram.Base()
	inj.InstallPoison(pa)
	inj.InstallPoison(da)

	for i := 0; i < 5; i++ {
		s.Peek64(pa)
		s.Load64(da)
		s.Peek64(da + mem.CachelineSize) // clean
		s.LoadRange(pa, 16)
	}
	if got := inj.Stats().UnreportedHits; got != 15 {
		t.Fatalf("UnreportedHits = %d, want 15", got)
	}
	for _, a := range []mem.Addr{pa, da} {
		s.Peek64(pm.Base() + mem.CachelineSize)
		if err := s.FaultCheck(func() { s.Peek64(a) }); !mem.IsPoison(err) {
			t.Fatalf("FaultCheck over poisoned %v: %v, want a poison error", a, err)
		}
	}
	if err := s.FaultCheck(func() { s.Peek64(pa + mem.CachelineSize); s.Peek64(da + mem.CachelineSize) }); err != nil {
		t.Fatalf("FaultCheck over clean lines: %v", err)
	}
	// A store through either heap still clears the line's poison.
	s.Poke64(da, 1)
	s.StoreRange(pa, []byte{1})
	if inj.Poisoned(pa) || inj.Poisoned(da) {
		t.Fatal("stores did not clear poison")
	}
}

// storeCounter counts observed stores per line.
type storeCounter struct{ stores map[mem.Addr]int }

func (c *storeCounter) ObserveStore(line mem.Addr) { c.stores[line]++ }
func (c *storeCounter) ObserveNTStore(mem.Addr)    {}
func (c *storeCounter) ObserveFlush(mem.Addr)      {}
func (c *storeCounter) ObserveFence()              {}

// TestSessionDispatchObserver checks that an attached observer sees
// every Poke64 store, on both heaps and with no injector attached.
func TestSessionDispatchObserver(t *testing.T) {
	pm, dram := twoHeaps()
	s := NewFreeSession(pm, dram)
	obs := &storeCounter{stores: map[mem.Addr]int{}}
	s.SetObserver(obs)
	for i := 0; i < 4; i++ {
		s.Poke64(pm.Base()+8, uint64(i))
		s.Poke64(dram.Base()+mem.CachelineSize, uint64(i))
	}
	s.WithThread(nil).Poke64(pm.Base(), 9)
	if got, want := obs.stores[pm.Base()], 5; got != want {
		t.Errorf("PM line observed %d stores, want %d", got, want)
	}
	if got, want := obs.stores[dram.Base()+mem.CachelineSize], 4; got != want {
		t.Errorf("DRAM line observed %d stores, want %d", got, want)
	}
	if len(obs.stores) != 2 {
		t.Errorf("observed stores on %d lines, want 2", len(obs.stores))
	}
}

// TestUntracked checks the predicate that lets callers skip a persist
// pattern: only a session with no timing thread, no observer and no
// injector is untracked, and detaching the last watcher restores it.
func TestUntracked(t *testing.T) {
	pm, dram := twoHeaps()
	s := NewFreeSession(pm, dram)
	if !s.Untracked() || !s.WithThread(nil).Untracked() {
		t.Fatal("a free session is not untracked")
	}
	s.SetObserver(&storeCounter{stores: map[mem.Addr]int{}})
	if s.Untracked() || s.WithThread(nil).Untracked() {
		t.Fatal("a session with an observer is untracked")
	}
	s.SetObserver(nil)
	s.SetFaults(fault.New(fault.Config{}))
	if s.Untracked() || s.WithThread(nil).Untracked() {
		t.Fatal("a session with an injector is untracked")
	}
	s.SetFaults(nil)
	if !s.Untracked() {
		t.Fatal("detaching every watcher did not restore an untracked session")
	}
	sys := machine.MustNewSystem(machine.G1Config(1))
	sys.Go("untracked", 0, false, func(th *machine.Thread) {
		if NewSession(th, pm).Untracked() || s.WithThread(th).Untracked() {
			t.Error("a timed session is untracked")
		}
	})
	sys.Run()
}

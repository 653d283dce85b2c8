package fault

import (
	"testing"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

func TestPoisonHardAndClear(t *testing.T) {
	inj := New(Config{})
	addr := mem.PMBase + 0x1234 // mid-line address; poison is line-granular
	if inj.Poisoned(addr) || inj.ReadCheck(addr) != nil {
		t.Fatal("fresh injector reports poison")
	}
	inj.InstallPoison(addr)
	if !inj.Poisoned(addr) || !inj.Poisoned(addr.Line()) {
		t.Fatal("installed poison not visible on the line")
	}
	for i := 0; i < 3; i++ {
		err := inj.ReadCheck(addr)
		if !mem.IsPoison(err) {
			t.Fatalf("read %d: want poison error, got %v", i, err)
		}
		var pe *mem.PoisonError
		if pe, _ = err.(*mem.PoisonError); pe == nil || pe.Addr != addr.Line() {
			t.Fatalf("read %d: error addr = %v, want %v", i, pe, addr.Line())
		}
	}
	if !inj.ClearLine(addr) {
		t.Fatal("ClearLine on poisoned line returned false")
	}
	if inj.Poisoned(addr) || inj.ClearLine(addr) {
		t.Fatal("poison survived ClearLine")
	}
	st := inj.Stats()
	if st.PoisonArmed != 1 || st.PoisonHits != 3 || st.Scrubbed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoisonTransientClearsAfterFails(t *testing.T) {
	inj := New(Config{})
	addr := mem.PMBase.Line()
	inj.InstallTransient(addr, 2)
	if !mem.IsPoison(inj.ReadCheck(addr)) || !mem.IsPoison(inj.ReadCheck(addr)) {
		t.Fatal("transient did not fail its first two reads")
	}
	if err := inj.ReadCheck(addr); err != nil {
		t.Fatalf("transient still failing after budget: %v", err)
	}
	if inj.Poisoned(addr) {
		t.Fatal("transient still installed after budget")
	}
}

func TestUnreportedHits(t *testing.T) {
	inj := New(Config{})
	addr := mem.PMBase + 64
	inj.NoteUnchecked(addr)
	inj.InstallPoison(addr)
	inj.NoteUnchecked(addr)
	inj.NoteUnchecked(addr + 7) // same line
	inj.NoteUnchecked(addr + 64)
	if got := inj.Stats().UnreportedHits; got != 2 {
		t.Fatalf("UnreportedHits = %d, want 2", got)
	}
}

func TestMediaReadPenalty(t *testing.T) {
	inj := New(Config{Poison: PoisonProfile{ReadExtraCycles: 500}})
	xpl := mem.PMBase.XPLine()
	if extra, bad := inj.MediaRead(xpl); bad || extra != 0 {
		t.Fatal("clean XPLine flagged poisoned")
	}
	inj.InstallPoison(xpl + 3*mem.CachelineSize) // last line of the XPLine
	extra, bad := inj.MediaRead(xpl)
	if !bad || extra != 500 {
		t.Fatalf("MediaRead = (%d, %v), want (500, true)", extra, bad)
	}
	if got := inj.Stats().MediaPoisonReads; got != 1 {
		t.Fatalf("MediaPoisonReads = %d, want 1", got)
	}
}

func TestMediaWriteClearsAndArms(t *testing.T) {
	inj := New(Config{}) // no write arming
	xpl := mem.PMBase.XPLine()
	inj.InstallPoison(xpl + mem.CachelineSize)
	if inj.MediaWrite(xpl) {
		t.Fatal("armed a UE with WriteOneIn = 0")
	}
	if inj.PoisonedLines() != 0 {
		t.Fatal("full-XPLine write did not clear resident poison")
	}

	// WriteOneIn = 1: every media write arms exactly one line of the
	// written XPLine.
	inj = New(Config{Seed: 7, Poison: PoisonProfile{WriteOneIn: 1}})
	if !inj.MediaWrite(xpl) {
		t.Fatal("WriteOneIn=1 write did not arm")
	}
	if inj.PoisonedLines() != 1 {
		t.Fatalf("PoisonedLines = %d, want 1", inj.PoisonedLines())
	}
	if _, bad := inj.MediaRead(xpl); !bad {
		t.Fatal("armed poison not in the written XPLine")
	}
}

func TestWriteArmingDeterminism(t *testing.T) {
	run := func() []int {
		inj := New(Config{Seed: 42, Poison: PoisonProfile{WriteOneIn: 4}})
		var armed []int
		for i := 0; i < 256; i++ {
			if inj.MediaWrite(mem.PMBase.XPLine() + mem.Addr(i*mem.XPLineSize)) {
				armed = append(armed, i)
			}
		}
		return armed
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no UEs armed over 256 writes at 1-in-4")
	}
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arming sequence diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestThermalWindows(t *testing.T) {
	inj := New(Config{Thermal: ThermalProfile{Period: 1000, Window: 250, Start: 100, DeratePct: 100}})
	cases := []struct {
		now       sim.Cycles
		throttled bool
	}{
		{0, false}, {99, false}, {100, true}, {349, true}, {350, false},
		{1099, false}, {1100, true}, {1349, true}, {1350, false},
	}
	for _, c := range cases {
		if got := inj.ThrottledAt(c.now); got != c.throttled {
			t.Errorf("ThrottledAt(%d) = %v, want %v", c.now, got, c.throttled)
		}
	}
	if got := inj.DerateMedia(50, 400); got != 400 {
		t.Fatalf("derated outside window: %d", got)
	}
	if got := inj.DerateMedia(200, 400); got != 800 {
		t.Fatalf("DerateMedia in window = %d, want 800", got)
	}
	st := inj.Stats()
	if st.ThrottledOps != 1 || st.ThrottleExtraCycles != 400 {
		t.Fatalf("thermal stats = %+v", st)
	}
}

func TestStallWindows(t *testing.T) {
	inj := New(Config{Stall: StallProfile{Period: 1000, Window: 200}})
	if got := inj.StallUntil(500); got != 500 {
		t.Fatalf("stalled outside window: %d", got)
	}
	if got := inj.StallUntil(1050); got != 1200 {
		t.Fatalf("StallUntil(1050) = %d, want 1200", got)
	}
	st := inj.Stats()
	if st.Stalls != 1 || st.StallCycles != 150 {
		t.Fatalf("stall stats = %+v", st)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("poison=64,poison-extra=450,thermal=400000/200000/150,stall=200000/50000,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed:    7,
		Poison:  PoisonProfile{WriteOneIn: 64, ReadExtraCycles: 450},
		Thermal: ThermalProfile{Period: 400000, Window: 200000, DeratePct: 150},
		Stall:   StallProfile{Period: 200000, Window: 50000},
	}
	if cfg != want {
		t.Fatalf("ParseSpec = %+v, want %+v", cfg, want)
	}
	if cfg, err = ParseSpec("poison=8"); err != nil || cfg.Poison.ReadExtraCycles != 300 {
		t.Fatalf("default poison-extra: cfg=%+v err=%v", cfg, err)
	}
	if cfg, err = ParseSpec("thermal=1000/1000/1000,poison-extra=1000000"); err != nil ||
		cfg.Thermal.DeratePct != MaxDeratePct || cfg.Poison.ReadExtraCycles != MaxPoisonExtraCycles {
		t.Fatalf("caps themselves must parse: cfg=%+v err=%v", cfg, err)
	}
	for _, bad := range []string{
		"", "bogus", "poison", "poison=0", "poison=-3", "thermal=10/20",
		"thermal=100/200/50", "stall=1/2/3", "stall=100/200", "frob=1",
		// Magnitudes past the caps: the derate product and the poison
		// penalty sum would overflow int64.
		"thermal=1000/1000/40000000000000000", "thermal=1000/1000/1001",
		"poison-extra=9223372036854775807", "poison-extra=1000001",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

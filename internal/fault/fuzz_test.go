package fault

import (
	"testing"

	"optanesim/internal/sim"
)

// FuzzParseSpec drives the CLI spec parser with arbitrary strings. The
// contract under fuzzing: never panic, and every accepted spec builds an
// injector whose timing hooks only ever delay — a derated media
// operation is never faster than its base latency and a stalled write
// never enters the WPQ before it arrives — for base latencies up to
// 1e6 cycles and clocks below 2^62.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		"poison=64,poison-extra=450,thermal=400000/200000/150,stall=200000/50000,seed=7",
		"thermal=1000/1000/40000000000000000", // derate product overflow
		"poison-extra=9223372036854775807",    // clock sum overflow
		"thermal=1000/1000/1000,poison-extra=1000000",
		"stall=9223372036854775807/9223372036854775807",
		"thermal=10/20/5",
		"seed=18446744073709551615,poison=1",
		"poison=,thermal=//,stall=/",
		" , ,=",
		"",
	}
	for _, s := range seeds {
		f.Add(s, uint64(0), uint64(300))
	}
	f.Fuzz(func(t *testing.T, spec string, now, base uint64) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		if cfg.Thermal.DeratePct < 0 || cfg.Thermal.DeratePct > MaxDeratePct {
			t.Fatalf("%q: derate %d outside [0, %d]", spec, cfg.Thermal.DeratePct, MaxDeratePct)
		}
		if cfg.Poison.ReadExtraCycles < 0 || cfg.Poison.ReadExtraCycles > MaxPoisonExtraCycles {
			t.Fatalf("%q: poison-extra %d outside [0, %d]", spec, cfg.Poison.ReadExtraCycles, MaxPoisonExtraCycles)
		}
		inj := New(cfg)
		b := sim.Cycles(base % 1_000_001)
		// The fuzzed clock, plus 0: ParseSpec leaves every window's
		// start at 0, so clock 0 always takes the derate and stall paths.
		for _, c := range []sim.Cycles{sim.Cycles(now & (1<<62 - 1)), 0} {
			if got := inj.DerateMedia(c, b); got < b {
				t.Fatalf("%q: DerateMedia(%d, %d) = %d, below base", spec, c, b, got)
			}
			if got := inj.StallUntil(c); got < c {
				t.Fatalf("%q: StallUntil(%d) = %d, before arrival", spec, c, got)
			}
		}
	})
}

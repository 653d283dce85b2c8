// Package fault is the runtime fault injector: deterministic, seeded
// device-degradation models wired into the simulator the same way
// internal/crash and internal/telemetry are — hook-based, and zero-cost
// when detached (every integration point is a single nil-pointer test).
//
// Where the crash subsystem answers "which post-power-cut states can
// this structure survive?", this package answers the runtime half of
// the question: what happens while the device degrades underneath a
// live program. Three fault classes are modeled, matching the failure
// modes documented for Optane DCPMM:
//
//   - Poisoned cachelines: uncorrectable media errors (UEs). Lines are
//     armed explicitly (InstallPoison/InstallTransient) or by a seeded
//     roll on media writes (PoisonProfile.WriteOneIn, modeling
//     wear-induced UEs discovered on read-back). A media read of a
//     poisoned XPLine pays a detect penalty on the timing plane; on the
//     functional plane, checked loads through internal/pmem surface a
//     typed *mem.PoisonError while unchecked loads are counted as
//     silently absorbed (the negative-control signal).
//   - Thermal throttling: duty-cycled derating of the DIMM's media
//     latency (ThermalProfile), modeling the module's thermal governor
//     silently stretching media operations during throttle windows.
//   - Transient controller stalls: windows in which the iMC pauses WPQ
//     acceptance (StallProfile), exercising store/flush backpressure
//     end to end.
//
// Determinism: the injector's only randomness is the seeded write-arming
// roll, and the simulator presents media writes in a deterministic
// order, so a run with a given (workload, Config) is bit-reproducible.
// Each simulated system or session must own its own Injector (like a
// telemetry Recorder); sharing one across concurrently running units
// would race and break reproducibility.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"optanesim/internal/mem"
	"optanesim/internal/sim"
)

// PoisonProfile configures the media-UE fault class.
type PoisonProfile struct {
	// WriteOneIn, when positive, arms (approximately) one hard UE per
	// WriteOneIn media writes: each XPLine media write rolls the seeded
	// generator and on a hit poisons one cacheline of the written
	// XPLine. Zero disables write arming; poison can still be installed
	// explicitly.
	WriteOneIn int
	// ReadExtraCycles is the device-side detect-and-signal penalty a
	// media read of a poisoned XPLine pays before completing.
	ReadExtraCycles sim.Cycles
}

// ThermalProfile configures duty-cycled thermal throttling. The module
// is throttled during [k*Period+Start, k*Period+Start+Window) for every
// k >= 0; a zero Period disables the class.
type ThermalProfile struct {
	// Period is the duty cycle length in cycles.
	Period sim.Cycles
	// Window is the throttled span at the start of each period.
	Window sim.Cycles
	// Start offsets the first throttle window.
	Start sim.Cycles
	// DeratePct stretches media operations inside a window by this
	// percentage (100 doubles the media latency).
	DeratePct int
}

// StallProfile configures transient controller stalls: during
// [k*Period+Start, k*Period+Start+Window) the WPQ pauses acceptance and
// arriving writes wait for the window to close. A zero Period disables
// the class.
type StallProfile struct {
	Period sim.Cycles
	Window sim.Cycles
	Start  sim.Cycles
}

// Config assembles one injector.
type Config struct {
	// Seed drives the write-arming roll (zero picks a fixed default,
	// see sim.NewRand).
	Seed    uint64
	Poison  PoisonProfile
	Thermal ThermalProfile
	Stall   StallProfile
}

// Stats are the injector's cumulative observation counters. They are
// the matrix's ground truth: every fault the injector produced and
// every way the stack reacted to it.
type Stats struct {
	// PoisonArmed counts lines poisoned (explicit installs plus seeded
	// write arming).
	PoisonArmed uint64
	// PoisonHits counts checked functional-plane loads that observed a
	// poisoned line (and therefore surfaced a typed error).
	PoisonHits uint64
	// UnreportedHits counts unchecked functional-plane loads of a
	// poisoned line — data consumed with no error surfaced. A hardened
	// read path must keep this at zero; the negative-control matrix
	// entries assert the counter moves when an unhardened path reads
	// poison.
	UnreportedHits uint64
	// MediaPoisonReads counts timing-plane media reads of a poisoned
	// XPLine (each pays PoisonProfile.ReadExtraCycles).
	MediaPoisonReads uint64
	// Scrubbed counts poisoned lines cleared by a rewrite (an explicit
	// scrub, an ordinary store, or a full-XPLine media write).
	Scrubbed uint64
	// ThrottledOps counts media operations stretched by a thermal
	// window; ThrottleExtraCycles totals the added latency.
	ThrottledOps        uint64
	ThrottleExtraCycles sim.Cycles
	// Stalls counts writes deferred by a WPQ accept-pause window;
	// StallCycles totals the deferred time.
	Stalls      uint64
	StallCycles sim.Cycles
}

// Caps on the spec-settable magnitudes. They keep every derived
// latency in range: a derated media operation is base*(100+D)/100,
// and a poison penalty is added to a simulated clock, so with base
// latencies up to 1e6 cycles and clocks up to 2^62 neither a product
// nor a sum can overflow. Both caps sit far above any physically
// plausible setting (the faultmatrix experiment uses 150% and 500
// cycles).
const (
	// MaxDeratePct bounds ThermalProfile.DeratePct (media 11x slower).
	MaxDeratePct = 1000
	// MaxPoisonExtraCycles bounds PoisonProfile.ReadExtraCycles.
	MaxPoisonExtraCycles = 1_000_000
)

// hardPoison marks a line that fails every read until rewritten.
const hardPoison = -1

// Injector is one fault-injection instance. It is not safe for
// concurrent use; like the simulator components it hooks, it relies on
// the machine scheduler's single-threaded execution.
type Injector struct {
	cfg Config
	rng *sim.Rand
	// poison maps a poisoned cacheline to its remaining failed reads:
	// hardPoison for a hard UE, or a positive countdown for a transient
	// UE that clears after that many failed (checked) reads.
	poison map[mem.Addr]int
	stats  Stats
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: sim.NewRand(cfg.Seed)}
}

// Config returns the injector's configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// Stats returns a snapshot of the cumulative counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// PoisonedLines reports how many lines are currently poisoned.
func (inj *Injector) PoisonedLines() int { return len(inj.poison) }

func (inj *Injector) install(line mem.Addr, remaining int) {
	if inj.poison == nil {
		inj.poison = make(map[mem.Addr]int)
	}
	if _, dup := inj.poison[line]; !dup {
		inj.stats.PoisonArmed++
	}
	inj.poison[line] = remaining
}

// InstallPoison arms a hard UE on addr's cacheline: every read fails
// until the line is rewritten.
func (inj *Injector) InstallPoison(addr mem.Addr) { inj.install(addr.Line(), hardPoison) }

// InstallTransient arms a transient UE on addr's cacheline: the next
// fails checked reads observe poison, after which the line reads clean
// (a marginal cell that recovers on retry).
func (inj *Injector) InstallTransient(addr mem.Addr, fails int) {
	if fails < 1 {
		fails = 1
	}
	inj.install(addr.Line(), fails)
}

// Poisoned reports whether addr's cacheline is currently poisoned,
// without consuming a transient read.
func (inj *Injector) Poisoned(addr mem.Addr) bool {
	if len(inj.poison) == 0 {
		return false
	}
	_, ok := inj.poison[addr.Line()]
	return ok
}

// ReadCheck validates a checked load of addr's cacheline. A clean line
// returns nil. A poisoned line counts a hit and returns a typed
// *mem.PoisonError; a transient UE consumes one of its remaining
// failures and clears once they are exhausted.
func (inj *Injector) ReadCheck(addr mem.Addr) error {
	if len(inj.poison) == 0 {
		return nil
	}
	line := addr.Line()
	remaining, ok := inj.poison[line]
	if !ok {
		return nil
	}
	inj.stats.PoisonHits++
	if remaining > 0 {
		remaining--
		if remaining == 0 {
			delete(inj.poison, line)
		} else {
			inj.poison[line] = remaining
		}
	}
	return &mem.PoisonError{Addr: line}
}

// NoteUnchecked records an unchecked load of addr's cacheline: if the
// line is poisoned, the program just consumed corrupt data with no
// error surfaced, which the UnreportedHits counter exposes.
func (inj *Injector) NoteUnchecked(addr mem.Addr) {
	if len(inj.poison) == 0 {
		return
	}
	if _, ok := inj.poison[addr.Line()]; ok {
		inj.stats.UnreportedHits++
	}
}

// ClearLine removes addr's cacheline poison (the line was rewritten,
// which clears a UE), reporting whether poison was present.
func (inj *Injector) ClearLine(addr mem.Addr) bool {
	if len(inj.poison) == 0 {
		return false
	}
	line := addr.Line()
	if _, ok := inj.poison[line]; !ok {
		return false
	}
	delete(inj.poison, line)
	inj.stats.Scrubbed++
	return true
}

// MediaRead reports the timing-plane consequence of a media read of
// xpl: a nonzero detect penalty when any cacheline of the XPLine is
// poisoned.
func (inj *Injector) MediaRead(xpl mem.Addr) (extra sim.Cycles, poisoned bool) {
	if len(inj.poison) == 0 {
		return 0, false
	}
	for i := 0; i < mem.LinesPerXPLine; i++ {
		if _, ok := inj.poison[xpl+mem.Addr(i*mem.CachelineSize)]; ok {
			inj.stats.MediaPoisonReads++
			return inj.cfg.Poison.ReadExtraCycles, true
		}
	}
	return 0, false
}

// MediaWrite records a full-XPLine media write of xpl: existing poison
// in the XPLine is cleared (a rewrite clears UEs), and the seeded
// write-arming roll may poison one cacheline of the freshly written
// XPLine (wear-induced UE). It reports whether a new UE was armed.
func (inj *Injector) MediaWrite(xpl mem.Addr) (armed bool) {
	if len(inj.poison) > 0 {
		for i := 0; i < mem.LinesPerXPLine; i++ {
			line := xpl + mem.Addr(i*mem.CachelineSize)
			if _, ok := inj.poison[line]; ok {
				delete(inj.poison, line)
				inj.stats.Scrubbed++
			}
		}
	}
	if inj.cfg.Poison.WriteOneIn <= 0 {
		return false
	}
	if inj.rng.Intn(inj.cfg.Poison.WriteOneIn) != 0 {
		return false
	}
	victim := inj.rng.Intn(mem.LinesPerXPLine)
	inj.install(xpl+mem.Addr(victim*mem.CachelineSize), hardPoison)
	return true
}

// inWindow reports whether now falls inside a duty-cycle window.
func inWindow(now, period, window, start sim.Cycles) bool {
	if period <= 0 || window <= 0 || now < start {
		return false
	}
	return (now-start)%period < window
}

// ThrottledAt reports whether now is inside a thermal throttle window
// (the pm_throttled gauge).
func (inj *Injector) ThrottledAt(now sim.Cycles) bool {
	t := inj.cfg.Thermal
	return inWindow(now, t.Period, t.Window, t.Start)
}

// DerateMedia stretches a media operation of the given base latency
// when now falls inside a thermal throttle window.
func (inj *Injector) DerateMedia(now sim.Cycles, base sim.Cycles) sim.Cycles {
	t := inj.cfg.Thermal
	if !inWindow(now, t.Period, t.Window, t.Start) {
		return base
	}
	extra := base * sim.Cycles(t.DeratePct) / 100
	inj.stats.ThrottledOps++
	inj.stats.ThrottleExtraCycles += extra
	return base + extra
}

// StallUntil reports when a write arriving at now may enter the WPQ: the
// end of the enclosing accept-pause window, or now itself when
// acceptance is open. A deferred write is counted.
func (inj *Injector) StallUntil(now sim.Cycles) sim.Cycles {
	p := inj.cfg.Stall
	if !inWindow(now, p.Period, p.Window, p.Start) {
		return now
	}
	end := now - (now-p.Start)%p.Period + p.Window
	inj.stats.Stalls++
	inj.stats.StallCycles += end - now
	return end
}

// ParseSpec parses the CLI fault specification: comma-separated
// key=value terms.
//
//	seed=N          generator seed for write arming (default 0)
//	poison=N        arm ~one hard UE per N media writes
//	poison-extra=C  detect penalty of a poisoned media read (default 300,
//	                at most MaxPoisonExtraCycles)
//	thermal=P/W/D   throttle windows: period P, window W (cycles),
//	                derate D percent (at most MaxDeratePct)
//	stall=P/W       WPQ accept-pause windows: period P, window W
//
// Example: "poison=64,thermal=400000/200000/150,stall=200000/50000,seed=7".
func ParseSpec(spec string) (Config, error) {
	cfg := Config{Poison: PoisonProfile{ReadExtraCycles: 300}}
	if strings.TrimSpace(spec) == "" {
		return cfg, fmt.Errorf("fault: empty spec")
	}
	for _, term := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return cfg, fmt.Errorf("fault: term %q is not key=value", term)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("fault: seed: %v", err)
			}
			cfg.Seed = n
		case "poison":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("fault: poison wants a positive write count, got %q", val)
			}
			cfg.Poison.WriteOneIn = n
		case "poison-extra":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 || n > MaxPoisonExtraCycles {
				return cfg, fmt.Errorf("fault: poison-extra wants 0..%d cycles, got %q", MaxPoisonExtraCycles, val)
			}
			cfg.Poison.ReadExtraCycles = sim.Cycles(n)
		case "thermal":
			p, w, d, err := splitPWD(val, true)
			if err != nil {
				return cfg, fmt.Errorf("fault: thermal: %v", err)
			}
			if d > MaxDeratePct {
				return cfg, fmt.Errorf("fault: thermal derate %d%% exceeds %d%%", d, MaxDeratePct)
			}
			cfg.Thermal = ThermalProfile{Period: p, Window: w, DeratePct: int(d)}
		case "stall":
			p, w, _, err := splitPWD(val, false)
			if err != nil {
				return cfg, fmt.Errorf("fault: stall: %v", err)
			}
			cfg.Stall = StallProfile{Period: p, Window: w}
		default:
			return cfg, fmt.Errorf("fault: unknown term %q", key)
		}
	}
	if cfg.Thermal.Period > 0 && cfg.Thermal.Window > cfg.Thermal.Period {
		return cfg, fmt.Errorf("fault: thermal window %d exceeds period %d", cfg.Thermal.Window, cfg.Thermal.Period)
	}
	if cfg.Stall.Period > 0 && cfg.Stall.Window > cfg.Stall.Period {
		return cfg, fmt.Errorf("fault: stall window %d exceeds period %d", cfg.Stall.Window, cfg.Stall.Period)
	}
	return cfg, nil
}

// splitPWD parses "period/window" or (wantThird) "period/window/derate".
func splitPWD(val string, wantThird bool) (p, w, third sim.Cycles, err error) {
	parts := strings.Split(val, "/")
	want := 2
	if wantThird {
		want = 3
	}
	if len(parts) != want {
		return 0, 0, 0, fmt.Errorf("want %d /-separated numbers, got %q", want, val)
	}
	nums := make([]int64, len(parts))
	for i, s := range parts {
		nums[i], err = strconv.ParseInt(s, 10, 64)
		if err != nil || nums[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("component %q must be a positive number", s)
		}
	}
	p, w = sim.Cycles(nums[0]), sim.Cycles(nums[1])
	if wantThird {
		third = sim.Cycles(nums[2])
	}
	return p, w, third, nil
}

// String summarizes the enabled fault classes for reports.
func (inj *Injector) String() string {
	var parts []string
	if inj.cfg.Poison.WriteOneIn > 0 {
		parts = append(parts, fmt.Sprintf("poison 1/%d writes", inj.cfg.Poison.WriteOneIn))
	}
	if inj.cfg.Thermal.Period > 0 {
		parts = append(parts, fmt.Sprintf("thermal %v/%v @%d%%",
			inj.cfg.Thermal.Window, inj.cfg.Thermal.Period, inj.cfg.Thermal.DeratePct))
	}
	if inj.cfg.Stall.Period > 0 {
		parts = append(parts, fmt.Sprintf("stall %v/%v", inj.cfg.Stall.Window, inj.cfg.Stall.Period))
	}
	if len(parts) == 0 {
		return "fault.Injector{idle}"
	}
	return "fault.Injector{" + strings.Join(parts, ", ") + "}"
}

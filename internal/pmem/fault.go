package pmem

import (
	"errors"

	"optanesim/internal/fault"
	"optanesim/internal/mem"
)

// SetFaults attaches a fault injector to the session's functional plane
// (nil detaches). Once attached, every load is classified: loads inside
// a FaultCheck/CheckedRead scope surface poisoned lines as typed
// *mem.PoisonError values, while loads outside one are counted as
// unchecked (silent absorption of poison — the negative-control
// signal). Stores and scrubs clear a line's poison, modeling the UE
// write-to-clear semantics.
//
// A session and the machine.System it times should share one injector
// (machine.System.AttachFaults) so the functional and timing planes
// degrade together; free sessions attach the injector alone.
func (s *Session) SetFaults(inj *fault.Injector) { s.faults = inj }

// Faults returns the session's injector (nil when healthy).
func (s *Session) Faults() *fault.Injector { return s.faults }

// noteRead classifies one functional-plane load of addr's cacheline
// when an injector is attached. The guard inlines into every load path;
// the classification is out of line.
func (s *Session) noteRead(addr mem.Addr) {
	if s.faults != nil {
		s.classifyRead(addr)
	}
}

// classifyRead classifies one load: inside a checked scope a poisoned
// line records the scope's error; outside one it counts as silently
// absorbed.
func (s *Session) classifyRead(addr mem.Addr) {
	if s.checkDepth > 0 {
		if err := s.faults.ReadCheck(addr); err != nil && s.checkErr == nil {
			s.checkErr = err
		}
		return
	}
	s.faults.NoteUnchecked(addr)
}

// noteWrite clears any poison on addr's cacheline: a store rewrites the
// line, which clears a UE.
func (s *Session) noteWrite(addr mem.Addr) {
	if s.faults != nil {
		s.faults.ClearLine(addr)
	}
}

// FaultCheck runs op with poison checking enabled and returns the first
// poisoned load op performed, or nil if every load was clean. Scopes
// nest; each records its own first error. With no injector attached op
// runs plainly and FaultCheck returns nil.
func (s *Session) FaultCheck(op func()) error {
	if s.faults == nil {
		op()
		return nil
	}
	s.checkDepth++
	saved := s.checkErr
	s.checkErr = nil
	op()
	err := s.checkErr
	s.checkErr = saved
	s.checkDepth--
	return err
}

// RepairPolicy bounds a CheckedRead's recovery effort.
type RepairPolicy struct {
	// MaxRetries re-runs the read this many times after a poisoned
	// load, which rides out transient UEs (a marginal cell that reads
	// clean on retry).
	MaxRetries int
	// Scrub, when set, escalates a read that still fails after the
	// retries: each reported line is scrubbed (rewritten from the
	// intact data plane and persisted, modeling ECC/replica-assisted
	// repair) once, and the read re-runs. Without Scrub the typed error
	// is reported to the caller instead.
	Scrub bool
}

// ReportPolicy returns the detect-and-report policy: one retry for
// transients, no repair — hard UEs surface as errors.
func ReportPolicy() RepairPolicy { return RepairPolicy{MaxRetries: 1} }

// RepairingPolicy returns the detect-and-repair policy: retry
// transients, then scrub hard UEs in place.
func RepairingPolicy() RepairPolicy { return RepairPolicy{MaxRetries: 1, Scrub: true} }

// CheckedRead is the hardened read path: it runs op with poison
// checking and applies pol when a load hits a poisoned line — bounded
// retry first, then per-line scrubbing if the policy allows it. It
// returns nil once op completes with no poisoned load, or the typed
// error (*mem.PoisonError somewhere in its chain) when recovery is
// exhausted. op must be re-runnable: it is repeated as long as recovery
// is making progress.
func (s *Session) CheckedRead(pol RepairPolicy, op func()) error {
	err := s.FaultCheck(op)
	if err == nil {
		return nil
	}
	for i := 0; i < pol.MaxRetries; i++ {
		if err = s.FaultCheck(op); err == nil {
			return nil
		}
	}
	if !pol.Scrub {
		return err
	}
	scrubbed := make(map[mem.Addr]bool)
	for {
		var pe *mem.PoisonError
		if !errors.As(err, &pe) {
			return err
		}
		line := pe.Addr.Line()
		if scrubbed[line] {
			// Scrubbing this line did not clear the fault; report
			// rather than loop forever.
			return err
		}
		scrubbed[line] = true
		s.Scrub(line)
		if err = s.FaultCheck(op); err == nil {
			return nil
		}
	}
}

// Scrub repairs addr's cacheline if it is poisoned: the line is
// rewritten from the intact data plane (timing plane charges one store
// plus a persistence barrier) and the UE clears. It reports whether a
// repair happened.
func (s *Session) Scrub(addr mem.Addr) bool {
	if s.faults == nil || !s.faults.Poisoned(addr) {
		return false
	}
	line := addr.Line()
	s.StoreLine(line)
	s.Persist(line, mem.CachelineSize)
	return true
}

package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"optanesim/internal/machine"
	"optanesim/internal/trace"
)

// cell is one simulated experiment point of a workload: one figure
// cell of the paper's experiments.
type cell interface {
	name() string
	// setup does the host work the cell needs before its simulated run
	// begins: system build or fork, heaps, inputs, prebuilt indexes.
	setup(tr *tracer)
	// run executes the simulated run and checks its outputs. It returns
	// the system whose counters describe the run and the experiment's
	// results (the numbers the paper's figure plots); a non-nil error
	// means an output check failed.
	run(tr *tracer) (*machine.System, []float64, error)
}

// outcome is what one cell produced in one pass.
type outcome struct {
	name    string
	results []float64
	report  machine.Report
	// ops and cycles are the simulated operations and cycles of the
	// cell's run (machine.GlobalStats delta).
	ops, cycles uint64
	digest      uint64
	err         error
}

// pass is one execution of every cell of a workload, in order, on the
// calling goroutine.
type pass struct {
	wall, setup float64 // host seconds
	// probe is the host probe's time, taken just before the pass.
	probe      float64
	simOps     uint64 // every simulated op of the pass, set-up included
	allocBytes uint64
	gcCycles   uint32
	gcPause    float64 // seconds
	outcomes   []outcome
	tr         *tracer
	// peakRSS is the largest resident set seen after a cell's set-up,
	// in bytes; only a memory pass (runPass with probeRSS) measures it.
	peakRSS uint64
}

// runPass runs the cells one after another. Set-up time is the host
// time spent in each cell's setup; wall time spans the whole pass.
//
// With probeRSS set, it is a memory pass instead, whose times are
// not used: after each cell's set-up, when the cell's system, heaps and
// inputs are all live, it collects garbage, returns every free page to
// the OS and reads the resident set size. That makes the peak a
// property of the workload's live data, not of when the collector
// happened to run, so it repeats from run to run.
func runPass(cells []cell, tr *tracer, probeRSS bool) (pass, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ops0, _ := machine.GlobalStats()
	p := pass{tr: tr}
	var probeErr error
	start := time.Now()
	tr.do("pass", "pass", func() {
		for i, c := range cells {
			// A finished cell's system and heaps (up to a few hundred MB)
			// must not outlive it.
			cells[i] = nil
			tr.do("cell", c.name(), func() {
				t0 := time.Now()
				c.setup(tr)
				p.setup += time.Since(t0).Seconds()
				if probeRSS && probeErr == nil {
					debug.FreeOSMemory()
					var rss uint64
					rss, probeErr = residentBytes()
					p.peakRSS = max(p.peakRSS, rss)
				}
				o0, c0 := machine.GlobalStats()
				sys, res, checkErr := c.run(tr)
				o1, c1 := machine.GlobalStats()
				out := outcome{name: c.name(), results: res, ops: o1 - o0, cycles: c1 - c0, err: checkErr}
				if sys != nil {
					out.report = sys.Report()
				}
				out.digest = digest(out)
				p.outcomes = append(p.outcomes, out)
			})
		}
	})
	p.wall = time.Since(start).Seconds()
	ops1, _ := machine.GlobalStats()
	runtime.ReadMemStats(&ms1)
	p.simOps = ops1 - ops0
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcPause = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	return p, probeErr
}

// residentBytes reads the process's resident set size.
func residentBytes() (uint64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("read resident set size: %w", err)
	}
	var size, resident uint64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm: %w", err)
	}
	return resident * uint64(os.Getpagesize()), nil
}

// digest hashes everything a cell simulated: its results, op and cycle
// counts and every counter of the system report. A change that only
// speeds the simulator up must leave every digest unchanged.
func digest(o outcome) uint64 {
	h := fnv.New64a()
	h.Write([]byte(o.name))
	put := func(vs ...uint64) {
		for _, v := range vs {
			_ = binary.Write(h, binary.LittleEndian, v) // hash.Hash writes never fail
		}
	}
	for _, r := range o.results {
		put(math.Float64bits(r))
	}
	r := o.report
	put(o.ops, o.cycles, r.L1Hits, r.L1Misses, r.L2Hits, r.L2Misses, r.L3Hits, r.L3Misses, r.PrefetchesProposed)
	_ = binary.Write(h, binary.LittleEndian, r.PM)
	_ = binary.Write(h, binary.LittleEndian, r.DRAM)
	for i := range r.AITHitRatio {
		put(uint64(r.ReadBufferLen[i]), uint64(r.WriteBufferLen[i]), math.Float64bits(r.AITHitRatio[i]))
	}
	return h.Sum64()
}

// tally counts the cells attempted over all passes and returns one
// error per failed cell: a failed output check, or simulated counts
// that differ from the first pass's run of the same cell with the same
// inputs.
func tally(passes []pass) (attempted int, failures []error) {
	for k, p := range passes {
		for i, o := range p.outcomes {
			attempted++
			switch first := passes[0].outcomes[i]; {
			case o.err != nil:
				failures = append(failures, o.err)
			case k > 0 && o.digest != first.digest:
				failures = append(failures, fmt.Errorf("%s: simulated counts differ between passes (digest %016x, first pass %016x)", o.name, o.digest, first.digest))
			}
		}
	}
	return attempted, failures
}

// simCounts aggregates the simulated statistics of one pass's cells:
// counts are summed over cells, ratios are taken over the sums, peaks
// are maxima. They are per-pass values, identical in every pass.
func simCounts(p pass) map[string]float64 {
	var ops, cycles, l1h, l1m, l2h, l2m, l3h, l3m, pf uint64
	var pm, dram trace.Counters
	var ait []float64
	for _, o := range p.outcomes {
		r := o.report
		ops += o.ops
		cycles += o.cycles
		l1h, l1m = l1h+r.L1Hits, l1m+r.L1Misses
		l2h, l2m = l2h+r.L2Hits, l2m+r.L2Misses
		l3h, l3m = l3h+r.L3Hits, l3m+r.L3Misses
		pf += r.PrefetchesProposed
		pm.Add(&r.PM)
		dram.Add(&r.DRAM)
		ait = append(ait, r.AITHitRatio...)
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	var aitMean float64
	for _, a := range ait {
		aitMean += a / float64(len(ait))
	}
	return map[string]float64{
		"machine.sim_ops":         float64(ops),
		"machine.sim_cycles":      float64(cycles),
		"cache.l1_hit_ratio":      ratio(l1h, l1h+l1m),
		"cache.l2_hit_ratio":      ratio(l2h, l2h+l2m),
		"cache.l3_hit_ratio":      ratio(l3h, l3h+l3m),
		"prefetch.proposed":       float64(pf),
		"imc.pm_read_mb":          float64(pm.IMCReadBytes) / 1e6,
		"imc.pm_write_mb":         float64(pm.IMCWriteBytes) / 1e6,
		"imc.wpq_peak":            float64(pm.WPQOccupancyPeak),
		"optane.ra":               pm.RA(),
		"optane.wa":               pm.WA(),
		"optane.rb_hits":          float64(pm.BufferReadHits),
		"optane.wcb_hits":         float64(pm.BufferWriteHits),
		"optane.wcb_evictions":    float64(pm.WCBEvictions),
		"optane.wcb_periodic_wbs": float64(pm.WCBPeriodicWBs),
		"optane.media_reads":      float64(pm.MediaReads),
		"optane.media_writes":     float64(pm.MediaWrites),
		"optane.ait_hit_ratio":    aitMean,
		"dram.read_mb":            float64(dram.IMCReadBytes) / 1e6,
		"dram.write_mb":           float64(dram.IMCWriteBytes) / 1e6,
	}
}

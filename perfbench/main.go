// Command perfbench is optanesim's benchmark: it runs one workload of
// simulated paper experiments for a fixed host time, checks every
// simulated output, and prints host-time, memory and model-accuracy
// metrics, or, with -trace 1, per-layer metrics from a traced run. See
// README.md for the workloads, metrics and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"optanesim/internal/calib"
)

// paperSeed is the default seed. With it the chase and btree cells get
// exactly the inputs of bench.Fig8 (whose chase lists use
// sim.NewRand(5)) and bench.Fig12 (fixed key salts).
const paperSeed = 5

// workloads maps each workload name to its cell list for a seed.
var workloads = map[string]func(seed int64) []cell{
	"chase":   chaseCells,
	"btree":   btreeCells,
	"xpwrite": xpwriteCells,
}

// units gives every metric the benchmark reports its unit. MB is 10^6
// bytes.
var units = map[string]string{
	"wall_s":         "s",
	"setup_s":        "s",
	"sim_mops_per_s": "Mops/s",
	"alloc_mb":       "MB",
	"peak_rss_mb":    "MB",
	"model_err_pct":  "%",

	"machine.build_s":              "s",
	"pmem.heap_s":                  "s",
	"workload.chase_build_s":       "s",
	"btree.prebuild_s":             "s",
	"btree.prebuild_ns_per_insert": "ns",
	"btree.get_ns":                 "ns",
	"machine.run_s":                "s",
	"machine.run_ns_per_op":        "ns",
	"machine.snapshot_s":           "s",
	"machine.fork_s":               "s",
	"calib.measure_s":              "s",
	"go.gc_cycles":                 "count",
	"go.gc_pause_s":                "s",
	"trace.overhead_s":             "s",
	"host.probe_s":                 "s",
	"machine.sim_ops":              "count",
	"machine.sim_cycles":           "count",
	"cache.l1_hit_ratio":           "ratio",
	"cache.l2_hit_ratio":           "ratio",
	"cache.l3_hit_ratio":           "ratio",
	"prefetch.proposed":            "count",
	"imc.pm_read_mb":               "MB",
	"imc.pm_write_mb":              "MB",
	"imc.wpq_peak":                 "count",
	"optane.ra":                    "ratio",
	"optane.wa":                    "ratio",
	"optane.rb_hits":               "count",
	"optane.wcb_hits":              "count",
	"optane.wcb_evictions":         "count",
	"optane.wcb_periodic_wbs":      "count",
	"optane.media_reads":           "count",
	"optane.media_writes":          "count",
	"optane.ait_hit_ratio":         "ratio",
	"dram.read_mb":                 "MB",
	"dram.write_mb":                "MB",
}

// minPasses is the fewest passes whose median a run reports, per kind
// of pass.
const minPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type provenance struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func main() {
	wl := flag.String("workload", "", "workload to run: chase, btree or xpwrite")
	seed := flag.Int64("seed", paperSeed, "seed every random input is made from")
	seconds := flag.Int("seconds", 10, "host seconds to keep repeating passes over the workload's cells")
	traceOn := flag.Int("trace", 0, "1 runs the traced run: per-layer metrics, span file and CPU profile")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans and CPU profile to")
	flag.Parse()
	cells, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload chase|btree|xpwrite [-seed n] [-seconds n] [-trace 0|1] [-out dir]")
		os.Exit(2)
	}
	// The simulator core runs on one goroutine; a second P lets the
	// garbage collector's background worker run beside it. More Ps would
	// let the host's core count leak into GC timing.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	prov := provenanceOf(*wl, *seed, *seconds, *traceOn == 1)
	line, _ := json.Marshal(map[string]provenance{"provenance": prov}) // plain struct, cannot fail
	fmt.Println(string(line))

	res, err := run(cells, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1, *out, prov)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ = json.Marshal(res) // plain struct, cannot fail
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload: the calibration error once, then passes
// over the workload's cells until the time is up. The traced run
// alternates untraced and traced passes, so the difference of their
// median wall times is the tracing overhead.
func run(cellsFor func(int64) []cell, seed int64, budget time.Duration, traced bool, outDir string, prov provenance) (res result, err error) {
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return result{}, err
		}
		f, err := os.Create(filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", prov.Workload, seed)))
		if err != nil {
			return result{}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return result{}, fmt.Errorf("start CPU profile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("write CPU profile: %w", cerr)
			}
		}()
	}

	var calTr *tracer
	if traced {
		calTr = newTracer()
	}
	var modelErr float64
	t0 := time.Now()
	calTr.layer("calib.measure", func() { modelErr = calibError() })
	calibSecs := time.Since(t0).Seconds()

	// The untraced run starts with a memory pass; its times are not
	// used, but its outcomes are checked like every other pass's. The
	// host probe is built after it, so its array is not in the resident
	// set, and runs before every timed pass.
	var mem, plain, tracedPasses []pass
	var probe *hostProbe
	start := time.Now()
	for i := 0; ; i++ {
		done := time.Since(start) >= budget && len(plain) >= minPasses && (!traced || len(tracedPasses) >= minPasses)
		if done {
			break
		}
		var tr *tracer
		list := &plain
		switch {
		case !traced && i == 0:
			list = &mem
		case traced && i%2 == 1:
			tr, list = newTracer(), &tracedPasses
		}
		if list != &mem && probe == nil {
			if probe, err = newHostProbe(); err != nil {
				return result{}, err
			}
		}
		runtime.GC() // every pass starts from the same live heap
		var probeT float64
		if list != &mem {
			probeT = probe.time()
		}
		p, err := runPass(cellsFor(seed), tr, list == &mem)
		if err != nil {
			return result{}, err
		}
		p.probe = probeT
		*list = append(*list, p)
	}

	all := append(append(mem, plain...), tracedPasses...)
	res.Metrics = map[string]metric{}
	var failures []error
	res.Attempted, failures = tally(all)
	res.Failed = len(failures)
	res.Correct = res.Failed == 0
	for _, err := range failures {
		fmt.Fprintln(os.Stderr, "FAIL", err)
	}
	printCells(all[0])
	for _, p := range all {
		fmt.Fprintf(os.Stderr, "pass wall %.3fs setup %.3fs\n", p.wall, p.setup)
	}
	fmt.Printf("digest %016x\n", workloadDigest(all[0]))

	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: units[name]} }
	perPass := func(ps []pass, f func(pass) float64) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = f(p)
		}
		return median(vs)
	}
	wall := func(p pass) float64 { return p.wall }
	probeMedian := perPass(all[len(mem):], func(p pass) float64 { return p.probe })
	if !traced {
		// Host speed drifts by tens of percent over minutes on shared
		// hosts, and the same drift slows the host probe run before each
		// pass. Scaling by the probe's median reports the times as they
		// would read on the reference host, which takes out the drift but
		// no change in the simulator's own speed.
		scale := probeRefSeconds / probeMedian
		rawWall, rawSetup := perPass(plain, wall), perPass(plain, func(p pass) float64 { return p.setup })
		fmt.Printf("raw wall_s %.4f setup_s %.4f probe_s %.5f scale %.4f\n", rawWall, rawSetup, probeMedian, scale)
		set("wall_s", rawWall*scale)
		set("setup_s", rawSetup*scale)
		set("sim_mops_per_s", perPass(plain, func(p pass) float64 { return float64(p.simOps) / p.wall / 1e6 })/scale)
		set("alloc_mb", perPass(plain, func(p pass) float64 { return float64(p.allocBytes) / 1e6 }))
		set("peak_rss_mb", float64(mem[0].peakRSS)/1e6)
		set("model_err_pct", modelErr)
	} else {
		layerMetrics(tracedPasses, set)
		set("calib.measure_s", calibSecs)
		set("host.probe_s", probeMedian)
		set("trace.overhead_s", perPass(tracedPasses, wall)-perPass(plain, wall))
		if err := writeSpans(filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", prov.Workload, seed)), prov, calTr, tracedPasses); err != nil {
			return result{}, err
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// layerMetrics reports the median over the traced passes of each
// layer's self time per pass, the per-operation times derived from the
// counts taken at the same boundaries, GC activity, and the simulated
// counts of one pass.
func layerMetrics(ps []pass, set func(string, float64)) {
	per := func(f func(p pass, self map[string]float64) float64) float64 {
		vs := make([]float64, len(ps))
		for i, p := range ps {
			vs[i] = f(p, p.tr.selfSeconds("layer"))
		}
		return median(vs)
	}
	perOp := func(layer, count string) func(pass, map[string]float64) float64 {
		return func(p pass, self map[string]float64) float64 {
			if n := p.tr.counts[count]; n > 0 {
				return self[layer] * 1e9 / float64(n)
			}
			return 0
		}
	}
	for _, l := range []string{"machine.build", "pmem.heap", "workload.chase_build", "btree.prebuild", "machine.run", "machine.snapshot", "machine.fork"} {
		set(l+"_s", per(func(_ pass, self map[string]float64) float64 { return self[l] }))
	}
	set("btree.prebuild_ns_per_insert", per(perOp("btree.prebuild", "btree.prebuild_inserts")))
	set("btree.get_ns", per(perOp("btree.get", "btree.gets")))
	set("machine.run_ns_per_op", per(perOp("machine.run", "machine.run_ops")))
	set("go.gc_cycles", per(func(p pass, _ map[string]float64) float64 { return float64(p.gcCycles) }))
	set("go.gc_pause_s", per(func(p pass, _ map[string]float64) float64 { return p.gcPause }))
	for name, v := range simCounts(ps[0]) {
		set(name, v)
	}
}

// calibError is the mean relative error, in percent, of the
// simulator's calibration metrics against every published value of
// every reference dataset.
func calibError() float64 {
	var sum float64
	var n int
	for _, ds := range calib.BuildReport(calib.Measure()).Datasets {
		for _, e := range ds.Errors {
			sum += e.RelErr
			n++
		}
	}
	return 100 * sum / float64(n)
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printCells lists each cell's experiment results and digest.
func printCells(p pass) {
	for _, o := range p.outcomes {
		fmt.Fprintf(os.Stderr, "cell %-36s %016x", o.name, o.digest)
		for _, r := range o.results {
			fmt.Fprintf(os.Stderr, " %.6g", r)
		}
		fmt.Fprintln(os.Stderr)
	}
}

// workloadDigest combines the cells' digests into one value that must
// repeat across runs with the same seed.
func workloadDigest(p pass) uint64 {
	h := fnv.New64a()
	for _, o := range p.outcomes {
		fmt.Fprintf(h, "%016x", o.digest)
	}
	return h.Sum64()
}

// writeSpans saves the traced run's spans: the calibration's, then each
// traced pass's, parents indexing within their own list.
func writeSpans(path string, prov provenance, cal *tracer, ps []pass) error {
	doc := struct {
		Provenance provenance `json:"provenance"`
		Calib      []span     `json:"calib"`
		Passes     [][]span   `json:"passes"`
	}{Provenance: prov, Calib: cal.spans}
	for _, p := range ps {
		doc.Passes = append(doc.Passes, p.tr.spans)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

func provenanceOf(wl string, seed int64, seconds int, traced bool) provenance {
	p := provenance{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Revision: "unknown", Modified: "unknown",
		Workload: wl, Seed: seed, Seconds: seconds, Trace: traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the host CPU's model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

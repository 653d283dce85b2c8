package bench_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optanesim/internal/bench"
)

// update rewrites the golden files from the current simulator output:
//
//	go test ./internal/bench -run TestGolden -update
//
// Review the diff before committing — a golden change means the
// reproduced results moved.
var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenExperiments are the claims-style fidelity locks: their full
// -quick-scale structured output is committed under testdata/, so any
// drift in the simulation — an off-by-one in a buffer model, a changed
// eviction policy, a float reordering — fails this test with a line
// diff instead of rotting silently.
var goldenExperiments = []string{"fig2", "fig3", "fig4", "fig7", "table1", "ablation", "ycsb", "sec33", "latency", "indexes", "crashmatrix", "replay", "faultmatrix", "tenants", "bandwidth", "fig13", "fig14"}

func TestGoldenQuickResults(t *testing.T) {
	for _, name := range goldenExperiments {
		name := name
		t.Run(name, func(t *testing.T) {
			units, ok := bench.ExperimentUnits(name, bench.Options{Quick: true})
			if !ok {
				t.Fatalf("experiment %q not registered", name)
			}
			results := make([]bench.UnitResult, len(units))
			for i, u := range units {
				results[i] = u.Run()
			}
			got, err := bench.EncodeIndentedJSON(results)
			if err != nil {
				t.Fatalf("encoding: %v", err)
			}
			path := filepath.Join("testdata", name+".quick.json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatalf("writing golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if diff := diffLines(string(want), string(got)); diff != "" {
				t.Errorf("%s drifted from testdata/%s.quick.json (rerun with -update if intended):\n%s",
					name, name, diff)
			}
		})
	}
}

// diffLines reports a unified-diff-style excerpt of the first run of
// differing lines, with context, or "" when equal. It is deliberately
// small: golden mismatches should be readable in test logs.
func diffLines(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	// Find the first and last differing line indices.
	first := -1
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			first = i
			break
		}
	}
	if first == -1 {
		if len(wl) == len(gl) {
			return ""
		}
		first = n
	}
	var b strings.Builder
	fmt.Fprintf(&b, "first difference at line %d:\n", first+1)
	const context, window = 2, 8
	start := first - context
	if start < 0 {
		start = 0
	}
	for i := start; i < first+window; i++ {
		inW, inG := i < len(wl), i < len(gl)
		switch {
		case inW && inG && wl[i] == gl[i]:
			fmt.Fprintf(&b, "   %s\n", wl[i])
		default:
			if inW {
				fmt.Fprintf(&b, " - %s\n", wl[i])
			}
			if inG {
				fmt.Fprintf(&b, " + %s\n", gl[i])
			}
		}
	}
	if len(wl) != len(gl) {
		fmt.Fprintf(&b, " (%d golden lines vs %d current)\n", len(wl), len(gl))
	}
	return b.String()
}

package main

import (
	"runtime/pprof"
	"strings"
	"testing"

	"optanesim/internal/bench"
)

func TestParseCPUModel(t *testing.T) {
	const cpuinfo = `processor	: 0
vendor_id	: GenuineIntel
cpu family	: 6
model		: 85
model name	: Intel(R) Xeon(R) Gold 6230 CPU @ 2.10GHz
stepping	: 7

processor	: 1
vendor_id	: GenuineIntel
model name	: Some Other CPU
`
	for _, tc := range []struct{ in, want string }{
		{cpuinfo, "Intel(R) Xeon(R) Gold 6230 CPU @ 2.10GHz"},
		{"model name\t:   \nmodel name\t: second\n", "second"},
		{"processor\t: 0\nmodel\t\t: 85\n", "unknown"},
		{"", "unknown"},
	} {
		if got := parseCPUModel(tc.in); got != tc.want {
			t.Errorf("parseCPUModel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestUnitTaskLabels checks that a unit's work runs under the unit's
// experiment and unit pprof labels, that the labels end with the task,
// and that the task returns the unit's result unchanged.
func TestUnitTaskLabels(t *testing.T) {
	const want = `"experiment":"fig2", "unit":"fig2/G1"`
	labelled := func() bool {
		var b strings.Builder
		if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
			t.Fatal(err)
		}
		return strings.Contains(b.String(), want)
	}
	var inUnit bool
	u := bench.Unit{Experiment: "fig2", Name: "G1", Run: func() bench.UnitResult {
		inUnit = labelled()
		return bench.UnitResult{Experiment: "fig2", Unit: "G1"}
	}}
	task := unitTask(u)
	if task.ID != "fig2/G1" {
		t.Fatalf("task ID %q, want fig2/G1", task.ID)
	}
	res, err := task.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r := res.(bench.UnitResult); r.Experiment != "fig2" || r.Unit != "G1" {
		t.Fatalf("task returned %+v", r)
	}
	if !inUnit {
		t.Fatalf("the unit did not run under labels %s", want)
	}
	if labelled() {
		t.Fatal("labels outlive the task")
	}
}

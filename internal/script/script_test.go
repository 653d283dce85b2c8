package script

import (
	"strings"
	"testing"
)

const demo = `
# strict-persistency random updates against a 64MB store
gen g1
dimms 1
prefetch all
region store pm 64M
region log dram 64K

thread writer core=0
  loop 500
    loaddep store rand
    store store last
    clwb store last
    sfence
  end
end
`

func TestParseDemo(t *testing.T) {
	p, err := Parse(demo)
	if err != nil {
		t.Fatal(err)
	}
	if p.Gen != 1 || p.DIMMs != 1 || !p.Prefetch.Any() {
		t.Fatalf("header wrong: %+v", p)
	}
	if len(p.Regions) != 2 || p.Regions[0].Name != "store" || !p.Regions[0].PM || p.Regions[0].Size != 64<<20 {
		t.Fatalf("regions wrong: %+v", p.Regions)
	}
	if len(p.Threads) != 1 || p.Threads[0].Name != "writer" {
		t.Fatalf("threads wrong: %+v", p.Threads)
	}
	body := p.Threads[0].Body
	if len(body) != 1 || body[0].Count != 500 || len(body[0].Body) != 4 {
		t.Fatalf("loop wrong: %+v", body)
	}
}

func TestRunDemo(t *testing.T) {
	p, err := Parse(demo)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.EndCycles == 0 {
		t.Fatal("no simulated time")
	}
	tr := res.Threads[0]
	if tr.Ops < 2000 {
		t.Fatalf("thread executed %d ops, want >= 2000", tr.Ops)
	}
	perIter := float64(tr.Cycles) / 500
	// Random 64MB loads must dominate: several hundred cycles each.
	if perIter < 400 {
		t.Fatalf("per-iteration %f cycles; random media reads should dominate", perIter)
	}
	if res.Report.PM.MediaReadBytes == 0 || res.Report.PM.IMCWriteBytes == 0 {
		t.Fatalf("missing PM traffic: %+v", res.Report.PM)
	}
}

func TestRunMultiThreadRemote(t *testing.T) {
	src := `
gen g2
region a pm 1M
thread t0 core=0
  loop 100
    load a seq
  end
end
thread t1 core=1 remote
  loop 100
    load a seq
  end
end
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 2 {
		t.Fatal("thread results missing")
	}
	if res.Threads[1].Cycles <= res.Threads[0].Cycles {
		t.Fatalf("remote thread (%v) should be slower than local (%v)",
			res.Threads[1].Cycles, res.Threads[0].Cycles)
	}
}

func TestRunDeterministic(t *testing.T) {
	p, _ := Parse(demo)
	a, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(p)
	if a.EndCycles != b.EndCycles {
		t.Fatalf("script runs differ: %v vs %v", a.EndCycles, b.EndCycles)
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]uint64{"64": 64, "64K": 64 << 10, "4m": 4 << 20, "1G": 1 << 30}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v", in, got, err)
		}
	}
	for _, bad := range []string{"", "x", "-3", "0", "4KB", "17179869184G", "18446744073709551616"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"gen g3\nthread t\nend", "unknown generation"},
		{"region a pm 1M\nregion a pm 1M\nthread t\nend", "duplicate region"},
		{"thread t\nload a rand\nend", "unknown region"},
		{"region a pm 1M\nthread t\nload a sideways\nend", "mode must be"},
		{"region a pm 1M\nthread t\nloop 3\nload a rand\nend", "unclosed block"},
		{"end", "end without"},
		{"region a pm 1M", "no threads"},
		{"bogus", "unknown statement"},
		{"region a pm 1M\nthread t\nloop zero\nend\nend", "bad loop count"},
		{"thread t core=x\nend", "bad core"},
		{"thread t core=64\nend", "bad core"},
		{"thread t core=9223372036854775807\nend", "bad core"},
		{"dimms 0\nthread t\nend", "bad DIMM count"},
		{"dimms 17\nthread t\nend", "bad DIMM count"},
		{"region a pm 17179869184G\nthread t\nend", "bad size"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestLineNumbersInErrors(t *testing.T) {
	_, err := Parse("gen g1\n\nbogus here\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error should cite line 3: %v", err)
	}
}

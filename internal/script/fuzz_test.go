package script

import "testing"

// FuzzParse drives the script parser with arbitrary text. The contract
// under fuzzing: Parse never panics, and a program it accepts is one
// Run can build — every region has a nonzero size, every core index and
// the DIMM count lie within MaxCore and MaxDIMMs.
func FuzzParse(f *testing.F) {
	seeds := []string{
		demo,
		"gen g2\ndimms 16\nprefetch none\nregion a dram 4K\nthread t core=63 remote\ncompute 5\nend\n",
		"dimms 9223372036854775807\nthread t\nend\n",
		"region a pm 1M\nthread t\nloop 2\nloop 3\nload a last\nend\nend\nend\n",
		"thread t\nend\nend\n",
		"region a pm 0\nthread t core=-1\n",
		"# only a comment\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// The core and size overflow seeds are in testdata/fuzz/FuzzParse.
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if p.DIMMs < 1 || p.DIMMs > MaxDIMMs {
			t.Fatalf("accepted DIMM count %d", p.DIMMs)
		}
		for _, r := range p.Regions {
			if r.Size == 0 {
				t.Fatalf("region %q accepted with size 0", r.Name)
			}
		}
		for _, th := range p.Threads {
			if th.Core < 0 || th.Core > MaxCore {
				t.Fatalf("thread %q accepted with core %d", th.Name, th.Core)
			}
		}
	})
}

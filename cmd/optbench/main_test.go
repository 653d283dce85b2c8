package main

import "testing"

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

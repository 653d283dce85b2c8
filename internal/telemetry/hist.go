package telemetry

import (
	"math"
	"math/bits"

	"optanesim/internal/sim"
)

// Hist is a fixed-bucket log-scale latency histogram (HDR-style): values
// below 128 cycles are recorded exactly, larger values land in buckets of
// 64 sub-divisions per power of two, giving a worst-case relative
// resolution of 1/64 (~1.6%) across the whole range. The bucket layout is
// a pure function of the value, so two histograms built from the same
// multiset of samples are identical regardless of insertion order, and
// Merge (bucket-wise addition) is exact and deterministic — the property
// the byte-identity-across-worker-counts gates rely on.
//
// Count and Sum are tracked exactly (not reconstructed from buckets), so
// cycle-conservation checks against histogram sums are exact.
type Hist struct {
	counts []uint64
	count  uint64
	sum    sim.Cycles
	max    sim.Cycles
}

const (
	// histSub is the number of sub-buckets per power-of-two range.
	histSub = 64
	// histMaxValue saturates recording; anything larger lands in the
	// final bucket. 2^32 cycles is ~1.2 simulated seconds — far beyond
	// any single-op latency the model can produce.
	histMaxValue = sim.Cycles(1)<<32 - 1
	// histNumBuckets is histBucket(histMaxValue)+1.
	histNumBuckets = 1728
)

// histBucket maps a value to its bucket index.
func histBucket(v sim.Cycles) int {
	if v < 2*histSub {
		return int(v) // 0..127 exact
	}
	k := bits.Len64(uint64(v)) - 7
	return histSub*k + int(v>>uint(k))
}

// histBucketLow returns the smallest value mapping to bucket b — the
// representative reported by Quantile.
func histBucketLow(b int) sim.Cycles {
	if b < 2*histSub {
		return sim.Cycles(b)
	}
	k := uint(b/histSub - 1)
	return sim.Cycles(histSub+b%histSub) << k
}

// NewHist builds a histogram with its bucket array preallocated, so
// Record never allocates — required on paths covered by the hot-path
// alloc tests.
func NewHist() *Hist {
	return &Hist{counts: make([]uint64, histNumBuckets)}
}

// Record adds one sample. Negative values clamp to zero; values above
// histMaxValue saturate into the final bucket (Sum and Max stay exact).
func (h *Hist) Record(v sim.Cycles) {
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v > histMaxValue {
		v = histMaxValue
	}
	if h.counts == nil {
		h.counts = make([]uint64, histNumBuckets)
	}
	h.counts[histBucket(v)]++
}

// Count reports the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Sum reports the exact total of all recorded samples.
func (h *Hist) Sum() sim.Cycles { return h.sum }

// Max reports the exact largest recorded sample (0 when empty).
func (h *Hist) Max() sim.Cycles { return h.max }

// Quantile returns the value at quantile q in [0,1]: the lower bound of
// the bucket holding the ceil(q*count)-th smallest sample. Exact for
// values below 128; within 1/64 below the true value otherwise. Returns
// 0 for an empty histogram; q=1 returns the exact Max.
func (h *Hist) Quantile(q float64) sim.Cycles {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			return histBucketLow(b)
		}
	}
	return h.max
}

// Merge adds o's samples into h (bucket-wise; exact and deterministic).
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
	if h.counts == nil {
		h.counts = make([]uint64, histNumBuckets)
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
}

// Clone returns an independent copy.
func (h *Hist) Clone() *Hist {
	c := &Hist{count: h.count, sum: h.sum, max: h.max}
	if h.counts != nil {
		c.counts = append([]uint64(nil), h.counts...)
	}
	return c
}

package stats

import "math/bits"

// LogHist is a histogram over non-negative int64 values with
// power-of-two ("log-bucket") bucket edges: bucket 0 holds the value 0,
// bucket i >= 1 holds values in [2^(i-1), 2^i - 1]. The fixed bucket
// layout makes histograms from different runs (or seeds) mergeable by
// plain elementwise addition, giving exactly the distribution one
// histogram over all the events would have produced — no rebinning, no
// approximation beyond the bucket width itself.
//
// Negative values are clamped to 0 (callers record durations and queue
// depths, which are never meaningfully negative). The zero value is an
// empty histogram ready for use.
type LogHist struct {
	n   int64
	sum int64
	b   [64]int64 // bits.Len64 of a positive int64 is at most 63
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketHi returns the inclusive upper edge of bucket i without
// overflowing int64 at i == 63.
func bucketHi(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(^uint64(0) >> (64 - uint(i)))
}

// Add records one value.
func (h *LogHist) Add(v int64) { h.AddN(v, 1) }

// AddN records a value n times (n <= 0 is a no-op).
func (h *LogHist) AddN(v int64, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.b[bucketOf(v)] += n
	h.n += n
	h.sum += v * n
}

// Merge folds o into h. Because bucket edges are fixed, the result is
// exactly the histogram of the concatenated value streams.
func (h *LogHist) Merge(o LogHist) {
	h.n += o.n
	h.sum += o.sum
	for i := range h.b {
		h.b[i] += o.b[i]
	}
}

// N returns the number of recorded values.
func (h *LogHist) N() int64 { return h.n }

// Mean returns the exact mean of the recorded values (the sum is kept
// outside the buckets), or 0 when empty.
func (h *LogHist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns a conservative estimate of the q-quantile (0 <= q <= 1):
// the upper edge of the bucket containing the ceil(q*n)-th smallest
// value. "Conservative" means the true quantile is never underestimated;
// the overestimate is bounded by the bucket width (< 2x). Returns 0 when
// empty.
func (h *LogHist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen int64
	for i, c := range h.b {
		seen += c
		if seen >= rank {
			return bucketHi(i)
		}
	}
	return bucketHi(len(h.b) - 1) // unreachable: seen reaches h.n
}

// Buckets calls f for every non-empty bucket with the bucket's inclusive
// value range [lo, hi] and its count, in ascending value order.
func (h *LogHist) Buckets(f func(lo, hi, count int64)) {
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if i == 0 {
			f(0, 0, c)
			continue
		}
		f(bucketHi(i-1)+1, bucketHi(i), c)
	}
}

package main

import "math/bits"

// This is the log-linear layout of internal/loadgen/hist.go, copied because
// that type is unexported. Quantiles here interpolate inside the bucket
// instead of returning its midpoint, so a percentile moves continuously
// with the data rather than snapping to one of 32 values per octave.

// subBits splits each power-of-two range into 1<<subBits linear
// sub-buckets, bounding the bucket width to ~3% of its values.
const subBits = 5

// histBuckets covers every non-negative int64.
const histBuckets = (64 - subBits) << subBits

// hist is a fixed-size log-linear histogram of non-negative int64 values.
// Each driver owns one; they are merged after the run.
type hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	max    int64
}

// bucketOf maps a value to its bucket: values below 1<<subBits exactly,
// larger values by their top subBits+1 significant bits.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	shift := bits.Len64(u) - subBits - 1
	return (shift << subBits) + int(u>>uint(shift))
}

// bucketRange returns the half-open value range [lo, lo+width) of a bucket.
func bucketRange(idx int) (lo, width int64) {
	if idx < 1<<subBits {
		return int64(idx), 1
	}
	shift := (idx >> subBits) - 1
	return int64(idx-(shift<<subBits)) << uint(shift), int64(1) << uint(shift)
}

// recordN adds n observations of v.
func (h *hist) recordN(v, n int64) {
	h.counts[bucketOf(v)] += n
	h.n += n
	h.sum += v * n
	if v > h.max {
		h.max = v
	}
}

// merge folds o into h.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the value at quantile q in [0, 1], interpolated linearly
// inside the bucket that holds that rank and clamped to the observed
// maximum.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	if rank >= float64(h.n-1) {
		return float64(h.max)
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 || float64(cum+c) <= rank {
			cum += c
			continue
		}
		lo, width := bucketRange(i)
		v := float64(lo) + float64(width)*(rank-float64(cum)+0.5)/float64(c)
		return min(v, float64(h.max))
	}
	return float64(h.max)
}

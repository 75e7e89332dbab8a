package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bucket streaming histogram. It mirrors the role of
// the oscilloscope's "highly compressed histogram format" from the paper's
// Sec II: voltage samples are recorded once per cycle for minutes of
// execution, and all later analysis (CDFs, percentiles, droop/overshoot
// extremes) is derived from the bucket counts.
//
// Samples below Lo land in the underflow bucket and samples at or above Hi
// land in the overflow bucket, so extreme excursions are never lost. A NaN
// sample has no place on the axis and is not recorded.
type Histogram struct {
	Lo, Hi    float64
	counts    []uint64
	underflow uint64
	overflow  uint64
	total     uint64
	sum       float64 // running sum of raw samples for exact Mean
	min, max  float64
}

// NewHistogram creates a histogram covering [lo, hi) with nbuckets buckets.
func NewHistogram(lo, hi float64, nbuckets int) *Histogram {
	if nbuckets <= 0 {
		panic("stats: NewHistogram needs nbuckets > 0")
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: NewHistogram invalid range [%g, %g)", lo, hi))
	}
	return &Histogram{
		Lo:     lo,
		Hi:     hi,
		counts: make([]uint64, nbuckets),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Add records one sample; it ignores NaN.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	h.total++
	h.sum += x
	if x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
	switch {
	case x < h.Lo:
		h.underflow++
	case x >= h.Hi:
		h.overflow++
	default:
		idx := int(float64(len(h.counts)) * (x - h.Lo) / (h.Hi - h.Lo))
		if idx >= len(h.counts) { // guard against float rounding at Hi
			idx = len(h.counts) - 1
		}
		h.counts[idx]++
	}
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the exact mean of all recorded samples (tracked alongside
// the buckets, so it is not subject to quantization).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min returns the smallest recorded sample (exact), or 0 if empty.
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (exact), or 0 if empty.
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// bucketCenter returns the midpoint value of bucket i.
func (h *Histogram) bucketCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.counts))
	return h.Lo + (float64(i)+0.5)*w
}

// FractionBelow returns the fraction of samples strictly below x.
// Bucket contents are attributed by their bucket's upper edge, so the
// answer is exact at bucket boundaries and conservative inside a bucket.
func (h *Histogram) FractionBelow(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	var below uint64
	if x >= h.Lo { // underflow samples are all strictly below Lo
		below += h.underflow
	}
	w := (h.Hi - h.Lo) / float64(len(h.counts))
	for i, c := range h.counts {
		upper := h.Lo + float64(i+1)*w
		if upper <= x {
			below += c
		}
	}
	if h.overflow > 0 && x > h.max { // all overflow samples are <= max
		below += h.overflow
	}
	return float64(below) / float64(h.total)
}

// CDFPoint is one point of a cumulative distribution: the fraction of
// samples <= X.
type CDFPoint struct {
	X    float64
	Frac float64
}

// CDF returns the cumulative distribution implied by the buckets, one point
// per non-empty bucket (plus underflow/overflow attribution at the edges).
func (h *Histogram) CDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	pts := make([]CDFPoint, 0, len(h.counts)+2)
	var cum uint64
	if h.underflow > 0 {
		cum += h.underflow
		pts = append(pts, CDFPoint{X: h.Lo, Frac: float64(cum) / float64(h.total)})
	}
	w := (h.Hi - h.Lo) / float64(len(h.counts))
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		pts = append(pts, CDFPoint{X: h.Lo + float64(i+1)*w, Frac: float64(cum) / float64(h.total)})
	}
	if h.overflow > 0 {
		cum += h.overflow
		pts = append(pts, CDFPoint{X: h.Hi, Frac: 1})
	}
	return pts
}

// Quantile returns the approximate q-quantile (0..1) from the buckets,
// using the exact tracked min/max for the extremes. Every result is
// clamped into [Min(), Max()]: a quantile landing in the underflow bucket
// reports the exact minimum (consistent with the q<=0 path — the samples
// there are below Lo, and Min is the only exact statistic held for them),
// and a bucket center in a sparsely filled edge bucket can never stray
// outside the recorded sample range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	target := uint64(q * float64(h.total))
	var cum uint64
	cum += h.underflow
	if cum > target {
		return h.Min()
	}
	for i, c := range h.counts {
		cum += c
		if cum > target {
			return h.clampToRange(h.bucketCenter(i))
		}
	}
	return h.Max()
}

// clampToRange bounds a bucket-derived estimate by the exact recorded
// extremes. Callers guarantee total > 0.
func (h *Histogram) clampToRange(x float64) float64 {
	if x < h.min {
		return h.min
	}
	if x > h.max {
		return h.max
	}
	return x
}

// Merge adds all samples of other into h. Both histograms must have the
// same range and bucket count.
func (h *Histogram) Merge(other *Histogram) {
	if h.Lo != other.Lo || h.Hi != other.Hi || len(h.counts) != len(other.counts) {
		panic("stats: Merge on mismatched histograms")
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.underflow += other.underflow
	h.overflow += other.overflow
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Reset clears all recorded samples, keeping the bucket configuration.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.underflow, h.overflow, h.total = 0, 0, 0
	h.sum = 0
	h.min, h.max = math.Inf(1), math.Inf(-1)
}

package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	if h.Total() != 10 {
		t.Fatalf("Total = %d", h.Total())
	}
	if got := h.Mean(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %g", got)
	}
	if h.Min() != 0.5 || h.Max() != 9.5 {
		t.Errorf("Min/Max = %g/%g", h.Min(), h.Max())
	}
}

func TestHistogramUnderOverflow(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(2)
	h.Add(0.5)
	if h.Total() != 3 {
		t.Fatalf("Total = %d", h.Total())
	}
	if got := h.FractionBelow(0); got != 1.0/3 {
		t.Errorf("FractionBelow(0) = %g", got)
	}
	if got := h.FractionBelow(1.5); !almostEqual(got, 2.0/3, 1e-12) {
		t.Errorf("FractionBelow(1.5) = %g", got)
	}
	if h.Min() != -5 || h.Max() != 2 {
		t.Errorf("extremes not tracked exactly: %g/%g", h.Min(), h.Max())
	}
}

// TestHistogramIgnoresNaN pins what a NaN sample does: nothing. It has
// no place on the axis, so every statistic stays what the other samples
// make it. (It used to index a bucket with int(NaN) and panic.)
func TestHistogramIgnoresNaN(t *testing.T) {
	h, want := NewHistogram(0, 1, 4), NewHistogram(0, 1, 4)
	h.Add(0.5)
	h.Add(math.NaN())
	h.Add(2)
	want.Add(0.5)
	want.Add(2)
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("a NaN sample changed the histogram:\n got %#v\nwant %#v", h, want)
	}
}

func TestHistogramFractionBelowAtBucketEdges(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i%10) + 0.5)
	}
	for edge := 1; edge <= 10; edge++ {
		want := float64(edge) / 10
		if got := h.FractionBelow(float64(edge)); !almostEqual(got, want, 1e-12) {
			t.Errorf("FractionBelow(%d) = %g, want %g", edge, got, want)
		}
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram(-1, 1, 64)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		h.Add(rng.NormFloat64() * 0.3)
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Frac < cdf[i-1].Frac || cdf[i].X < cdf[i-1].X {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, cdf[i-1], cdf[i])
		}
	}
	if last := cdf[len(cdf)-1].Frac; !almostEqual(last, 1, 1e-12) {
		t.Errorf("CDF does not reach 1: %g", last)
	}
}

func TestHistogramQuantileApproximatesExact(t *testing.T) {
	h := NewHistogram(0, 1, 1000)
	xs := make([]float64, 0, 5000)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		x := rng.Float64()
		h.Add(x)
		xs = append(xs, x)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := Percentile(xs, q*100)
		if math.Abs(got-want) > 0.01 { // within ~10 bucket widths
			t.Errorf("Quantile(%g) = %g, exact %g", q, got, want)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Error("extreme quantiles should be exact min/max")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	b := NewHistogram(0, 10, 10)
	for i := 0; i < 50; i++ {
		a.Add(float64(i % 10))
		b.Add(float64(i%10) + 0.25)
	}
	total := a.Total() + b.Total()
	meanWant := (a.Mean()*float64(a.Total()) + b.Mean()*float64(b.Total())) / float64(total)
	a.Merge(b)
	if a.Total() != total {
		t.Errorf("merged Total = %d, want %d", a.Total(), total)
	}
	if !almostEqual(a.Mean(), meanWant, 1e-12) {
		t.Errorf("merged Mean = %g, want %g", a.Mean(), meanWant)
	}
}

func TestHistogramMergeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(0, 1, 4).Merge(NewHistogram(0, 2, 4))
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(0.5)
	h.Reset()
	if h.Total() != 0 || h.Mean() != 0 {
		t.Error("Reset did not clear state")
	}
	h.Add(0.25)
	if h.Total() != 1 {
		t.Error("histogram unusable after Reset")
	}
}

// Property: FractionBelow agrees with brute-force counting at bucket edges
// for arbitrary sample streams.
func TestHistogramFractionBelowProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(-2, 2, 40)
		var samples []float64
		n := 1 + rng.Intn(300)
		for i := 0; i < n; i++ {
			x := rng.NormFloat64()
			h.Add(x)
			samples = append(samples, x)
		}
		// Check at a few bucket edges.
		for _, edge := range []float64{-2, -1, 0, 1, 2} {
			var below int
			for _, s := range samples {
				if s < edge {
					below++
				}
			}
			want := float64(below) / float64(n)
			if math.Abs(h.FractionBelow(edge)-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHistogramQuantileUnderflow pins the fix for the underflow path: a
// quantile landing in the underflow bucket reports the exact minimum, not
// the bucket floor Lo (which no recorded sample may equal).
func TestHistogramQuantileUnderflow(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(-7)
	h.Add(-5)
	h.Add(-3)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.99} {
		if got := h.Quantile(q); got != -7 {
			t.Errorf("all-underflow Quantile(%g) = %g, want Min() = -7", q, got)
		}
	}
	if got := h.Quantile(1); got != -3 {
		t.Errorf("all-underflow Quantile(1) = %g, want Max() = -3", got)
	}
}

// TestHistogramQuantileOverflow mirrors the underflow case at the top: all
// mass above Hi reports the exact maximum.
func TestHistogramQuantileOverflow(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(12)
	h.Add(15)
	h.Add(40)
	if got := h.Quantile(0); got != 12 {
		t.Errorf("all-overflow Quantile(0) = %g, want Min() = 12", got)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got < 12 || got > 40 {
			t.Errorf("all-overflow Quantile(%g) = %g outside [12, 40]", q, got)
		}
	}
}

// TestHistogramQuantileSingleSample: with one sample, every quantile is
// that sample — the clamp pins bucket centers to the degenerate range.
func TestHistogramQuantileSingleSample(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(4.2)
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 4.2 {
			t.Errorf("single-sample Quantile(%g) = %g, want 4.2", q, got)
		}
	}
}

// TestHistogramQuantileWithinRangeProperty: for arbitrary streams mixing
// in-range, underflow, and overflow samples, every quantile result lies in
// [Min(), Max()] and is monotone in q.
func TestHistogramQuantileWithinRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(-1, 1, 16)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			h.Add(3 * rng.NormFloat64()) // plenty of under/overflow
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < h.Min() || v > h.Max() {
				return false
			}
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHistogramFractionBelowBoundaries pins the documented attribution
// semantics: bucket contents count by their bucket's upper edge (exact at
// edges, conservative inside a bucket), underflow counts from x = Lo on,
// and overflow only once x passes the exact maximum.
func TestHistogramFractionBelowBoundaries(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(1.0) // lands in bucket [1,2)
	if got := h.FractionBelow(1.0); got != 0 {
		t.Errorf("FractionBelow(1.0) = %g, want 0 (sample at 1.0 is not strictly below)", got)
	}
	if got := h.FractionBelow(2.0); got != 1 {
		t.Errorf("FractionBelow(2.0) = %g, want 1 (bucket [1,2) resolved at its upper edge)", got)
	}

	u := NewHistogram(0, 10, 10)
	u.Add(-1)
	if got := u.FractionBelow(0); got != 1 {
		t.Errorf("FractionBelow(Lo) = %g, want 1 (underflow is strictly below Lo)", got)
	}
	if got := u.FractionBelow(-0.5); got != 0 {
		t.Errorf("FractionBelow(-0.5) = %g, want 0 (below Lo nothing is attributable)", got)
	}

	o := NewHistogram(0, 10, 10)
	o.Add(15)
	if got := o.FractionBelow(12); got != 0 {
		t.Errorf("FractionBelow(12) = %g, want 0 (overflow counts only past the exact max)", got)
	}
	if got := o.FractionBelow(15.5); got != 1 {
		t.Errorf("FractionBelow(15.5) = %g, want 1", got)
	}
}

// TestHistogramRoundTripMergeBitIdentical is the journal's core guarantee
// at the stats layer, as a property: marshaling a histogram to JSON,
// restoring it, and merging the restored copy produces a result
// bit-identical (reflect.DeepEqual on all internal state, == on every
// float statistic) to merging the live histogram.
func TestHistogramRoundTripMergeBitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		live := NewHistogram(-2, 2, 32)
		n := rng.Intn(400) // zero-sample histograms must round-trip too
		for i := 0; i < n; i++ {
			live.Add(3 * rng.NormFloat64())
		}

		data, err := json.Marshal(live)
		if err != nil {
			t.Fatal(err)
		}
		restored := &Histogram{}
		if err := json.Unmarshal(data, restored); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live, restored) {
			return false
		}

		base := func() *Histogram {
			h := NewHistogram(-2, 2, 32)
			for i := 0; i < 100; i++ {
				h.Add(float64(i%40)/10 - 2)
			}
			return h
		}
		a, b := base(), base()
		a.Merge(live)
		b.Merge(restored)
		if !reflect.DeepEqual(a, b) {
			return false
		}
		// Spot-check the derived statistics bit-for-bit (== on float64).
		for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
			if a.Quantile(q) != b.Quantile(q) {
				return false
			}
		}
		return a.Mean() == b.Mean() && a.Min() == b.Min() && a.Max() == b.Max() &&
			a.FractionBelow(0.5) == b.FractionBelow(0.5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

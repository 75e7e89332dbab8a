package sense_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"voltsmooth/internal/core"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/stats"
)

// loopScope is the scope's crossing detector before the prefix walk:
// every sample tests every margin. It is the reference Scope.Sample must
// equal on every input.
type loopScope struct {
	vnom      float64
	margins   []float64
	threshold []float64
	below     []bool
	crossings []uint64
	samples   uint64
	hist      *stats.Histogram
}

func newLoopScope(vnom float64, margins []float64) *loopScope {
	ms := append([]float64(nil), margins...)
	sort.Float64s(ms)
	thr := make([]float64, len(ms))
	for i, m := range ms {
		thr[i] = vnom * (1 - m)
	}
	return &loopScope{
		vnom:      vnom,
		margins:   ms,
		threshold: thr,
		below:     make([]bool, len(ms)),
		crossings: make([]uint64, len(ms)),
		hist:      stats.NewHistogram(-20, 20, 800),
	}
}

func (s *loopScope) Sample(v float64) {
	dev := 100 * (v - s.vnom) / s.vnom
	s.hist.Add(dev)
	s.samples++
	for i, thr := range s.threshold {
		isBelow := v < thr
		if isBelow && !s.below[i] {
			s.crossings[i]++
		}
		s.below[i] = isBelow
	}
}

// walkTrace returns n seeded samples around vnom that hit every case the
// prefix walk distinguishes: noise around the current level, samples
// exactly at a threshold and one ulp either side of it, jumps across the
// whole margin range in both directions, and NaN and ±Inf.
func walkTrace(seed int64, n int, vnom float64, thr []float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	v := vnom
	for i := range out {
		switch r := rng.Float64(); {
		case r < 0.5:
			v += rng.NormFloat64() * 0.01 * vnom
		case r < 0.65:
			v = thr[rng.Intn(len(thr))]
		case r < 0.75:
			v = math.Nextafter(thr[rng.Intn(len(thr))], math.Inf(2*rng.Intn(2)-1))
		case r < 0.85:
			v = vnom * (1 - 0.2*rng.Float64()) // anywhere across the margins
		case r < 0.9:
			v = vnom * 0.8 // below every margin
		case r < 0.95:
			v = vnom * 1.05 // above every threshold
		default:
			v = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			out[i] = v
			v = vnom
			continue
		}
		out[i] = v
	}
	return out
}

// TestSampleWalkMatchesMarginLoop holds the prefix walk to the loop it
// replaced: at the default margins and at one margin, over seeded traces
// with samples exactly at thresholds, NaN, ±Inf and jumps across the whole
// margin range, every sample leaves the same crossings and below state,
// and the sample count and histogram stay equal.
func TestSampleWalkMatchesMarginLoop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		vnom    float64
		margins []float64
	}{
		{"default", 1.25, core.DefaultMargins()},
		{"default-unit", 1.0, core.DefaultMargins()},
		{"one", 1.25, []float64{core.PhaseMarginFor(0.03)}},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				got := sense.NewScope(tc.vnom, tc.margins)
				want := newLoopScope(tc.vnom, tc.margins)
				for i, v := range walkTrace(seed, 20_000, tc.vnom, want.threshold) {
					got.Sample(v)
					want.Sample(v)
					for m, b := range want.below {
						if b != (m < got.BelowCount()) {
							t.Fatalf("sample %d (%v): below margin %g = %v, want %v",
								i, v, want.margins[m], !b, b)
						}
						if g := got.Crossings(want.margins[m]); g != want.crossings[m] {
							t.Fatalf("sample %d (%v): %d crossings at margin %g, want %d",
								i, v, g, want.margins[m], want.crossings[m])
						}
					}
				}
				if got.Samples() != want.samples {
					t.Errorf("%d samples, want %d", got.Samples(), want.samples)
				}
				// %#v prints every field, NaN sums included, where
				// reflect.DeepEqual would call two NaN sums different.
				if g, w := fmt.Sprintf("%#v", *got.Histogram()), fmt.Sprintf("%#v", *want.hist); g != w {
					t.Errorf("histogram differs:\n got %s\nwant %s", g, w)
				}
			})
		}
	}
}

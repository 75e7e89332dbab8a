// Package sense is the software analogue of the paper's measurement chain
// (Sec II-A): the differential probe on VCCsense/VSSsense plus the
// oscilloscope that stores voltage samples "in a highly compressed
// histogram format". A Scope ingests one die-voltage sample per simulated
// cycle and maintains:
//
//   - the sample histogram (deviation from nominal, in percent) from which
//     the Fig 7/9 CDFs are drawn,
//   - exact peak-to-peak / deepest-droop / highest-overshoot extremes,
//   - emergency counters: for each configured voltage margin, the number
//     of *downward crossings* of the margin threshold. A crossing is one
//     voltage emergency — the event that triggers a rollback/recovery in a
//     resilient architecture (Sec III-B) — so a droop that stays below the
//     margin for many cycles still counts once.
package sense

import (
	"fmt"
	"math"
	"sort"

	"voltsmooth/internal/stats"
)

// Scope accumulates voltage statistics for one run.
type Scope struct {
	vnom    float64
	hist    *stats.Histogram // percent deviation from nominal
	samples uint64

	margins   []float64 // margin fractions, ascending
	threshold []float64 // precomputed vnom·(1-margin), avoiding float drift
	// below is how many margins the last sample was below. The
	// thresholds fall as the margins rise, so those are always the first
	// below margins: margin i is below exactly when i < below.
	below     int
	crossings []uint64
}

// NewScope creates a scope for a supply with nominal voltage vnom.
// margins lists the voltage-margin fractions (e.g. 0.023, 0.04, 0.14) to
// track emergency crossings for; it may be nil. The histogram covers
// ±20% of nominal at 0.05% resolution.
func NewScope(vnom float64, margins []float64) *Scope {
	if vnom <= 0 {
		panic(fmt.Sprintf("sense: non-positive nominal voltage %g", vnom))
	}
	ms := make([]float64, len(margins))
	copy(ms, margins)
	sort.Float64s(ms)
	if err := validateMargins(ms); err != nil {
		panic(err.Error())
	}
	thr := make([]float64, len(ms))
	for i, m := range ms {
		thr[i] = vnom * (1 - m)
	}
	return &Scope{
		vnom:      vnom,
		hist:      stats.NewHistogram(-20, 20, 800),
		margins:   ms,
		threshold: thr,
		crossings: make([]uint64, len(ms)),
	}
}

// validateMargins checks the invariant every Scope holds: margins strictly
// ascending, each inside (0,1). Duplicates are rejected — two identical
// thresholds would double-count every crossing. NewScope panics on a
// violation (its callers pass literals); UnmarshalJSON returns the error
// (its input is a journal file).
func validateMargins(ms []float64) error {
	for i, m := range ms {
		if m <= 0 || m >= 1 {
			return fmt.Errorf("sense: margin %g outside (0,1)", m)
		}
		if i > 0 && ms[i-1] >= m {
			return fmt.Errorf("sense: margins not strictly ascending (%g then %g)", ms[i-1], m)
		}
	}
	return nil
}

// VNom returns the nominal voltage the scope was built for.
func (s *Scope) VNom() float64 { return s.vnom }

// Sample records one voltage sample (volts). The margins v is below are
// a prefix of the ascending margins, so Sample walks the prefix length
// from the last sample's: up while v is below the next threshold, each
// margin newly below counting one crossing, or down while v is not below
// the last one still covered. A sample that compares false with every
// threshold (NaN included) is below none.
func (s *Scope) Sample(v float64) {
	dev := 100 * (v - s.vnom) / s.vnom
	s.hist.Add(dev)
	s.samples++
	b := s.below
	for b < len(s.threshold) && v < s.threshold[b] {
		s.crossings[b]++
		b++
	}
	for b > 0 && !(v < s.threshold[b-1]) {
		b--
	}
	s.below = b
}

// Samples returns the number of samples recorded.
func (s *Scope) Samples() uint64 { return s.samples }

// marginEps is the float tolerance for margin lookups: margins assembled
// by sweep accumulation drift a few ulps from the constructed literals,
// and an exact-equality match would turn that drift into a panic. It is
// far below the 0.005 spacing of any margin set in use.
const marginEps = 1e-9

// Crossings returns the number of voltage emergencies recorded for the
// given margin fraction, which must match one of the margins the scope
// was constructed with within 1e-9.
func (s *Scope) Crossings(margin float64) uint64 {
	for i, m := range s.margins {
		if math.Abs(m-margin) <= marginEps {
			return s.crossings[i]
		}
	}
	panic(fmt.Sprintf("sense: margin %g not tracked by this scope", margin))
}

// Margins returns the tracked margin fractions in ascending order.
func (s *Scope) Margins() []float64 {
	out := make([]float64, len(s.margins))
	copy(out, s.margins)
	return out
}

// MinDroopPercent returns the deepest observed excursion below nominal as
// a positive percentage (the paper's "Min. droop", e.g. 9.6).
func (s *Scope) MinDroopPercent() float64 {
	if s.samples == 0 {
		return 0
	}
	return math.Max(0, -s.hist.Min())
}

// MaxOvershootPercent returns the highest excursion above nominal as a
// percentage.
func (s *Scope) MaxOvershootPercent() float64 {
	if s.samples == 0 {
		return 0
	}
	return math.Max(0, s.hist.Max())
}

// PeakToPeakPercent returns the total observed swing in percent of
// nominal.
func (s *Scope) PeakToPeakPercent() float64 {
	if s.samples == 0 {
		return 0
	}
	return s.hist.Max() - s.hist.Min()
}

// FractionBeyond returns the fraction of samples whose droop exceeds the
// given margin fraction (the paper's "0.06% of samples lie beyond the
// typical-case region" statistic).
func (s *Scope) FractionBeyond(margin float64) float64 {
	return s.hist.FractionBelow(-100 * margin)
}

// CDF returns the cumulative distribution of sample deviations in percent
// of nominal (the Fig 7 / Fig 9 curves).
func (s *Scope) CDF() []stats.CDFPoint { return s.hist.CDF() }

// Merge folds another scope's samples into this one. Both must share the
// same nominal voltage and margin set. Crossing counts add (the runs are
// treated as disjoint executions).
func (s *Scope) Merge(other *Scope) {
	if s.vnom != other.vnom || len(s.margins) != len(other.margins) {
		panic("sense: merging incompatible scopes")
	}
	for i := range s.margins {
		if s.margins[i] != other.margins[i] {
			panic("sense: merging scopes with different margins")
		}
		s.crossings[i] += other.crossings[i]
	}
	s.hist.Merge(other.hist)
	s.samples += other.samples
}

// Reset clears all recorded state, keeping the configuration.
func (s *Scope) Reset() {
	s.hist.Reset()
	s.samples = 0
	s.below = 0
	for i := range s.margins {
		s.crossings[i] = 0
	}
}

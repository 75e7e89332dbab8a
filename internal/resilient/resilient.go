// Package resilient implements the paper's typical-case design performance
// model (Sec III-B): a processor that drops its operating voltage margin
// from the worst-case guardband to an aggressive setting gains clock
// frequency (Bowman et al.: removing a 10% margin buys ~15% frequency),
// but every voltage emergency — a droop past the aggressive margin — now
// triggers an error-recovery rollback costing a fixed number of cycles.
// Net performance depends on three factors the paper calls out: workload
// characteristics (how many emergencies), the margin setting, and the
// recovery cost.
//
//	T_worst     = C / f
//	T_resilient = (C + E(m)·cost) / (f · gain(m))
//	gain(m)     = 1 + FreqGainPerMargin · (WorstCaseMargin − m)
//	improvement = 100 · (T_worst / T_resilient − 1)
//
// where C is the run's cycle count and E(m) the number of margin
// crossings measured by the scope. Everything in Figs 8–10 and Tab I is a
// view over this model.
package resilient

import (
	"fmt"
	"math"

	"voltsmooth/internal/counters"
	"voltsmooth/internal/sense"
)

// RunData is the per-run input to the model: how long the run was and how
// many emergencies it saw at each candidate margin.
type RunData struct {
	Name        string
	Cycles      uint64
	Margins     []float64 // ascending margin fractions
	Emergencies []uint64  // crossings per margin, same indexing
}

// FromScope extracts RunData from a measured run.
func FromScope(name string, cycles uint64, s *sense.Scope) RunData {
	margins := s.Margins()
	em := make([]uint64, len(margins))
	for i, m := range margins {
		em[i] = s.Crossings(m)
	}
	return RunData{Name: name, Cycles: cycles, Margins: margins, Emergencies: em}
}

// marginEps is the float tolerance for margin lookups, matching the
// clamp Gain applies: margins assembled by sweep accumulation drift a few
// ulps from the tracked literals, and an exact-equality match would turn
// that drift into a panic.
const marginEps = 1e-9

// EmergenciesAt returns the emergency count at the given margin, which
// must match one of the tracked margins within 1e-9 (the same tolerance
// Gain allows for sweep accumulation).
func (r *RunData) EmergenciesAt(margin float64) uint64 {
	for i, m := range r.Margins {
		if math.Abs(m-margin) <= marginEps {
			return r.Emergencies[i]
		}
	}
	panic(fmt.Sprintf("resilient: margin %g not tracked for run %s", margin, r.Name))
}

// DroopsPerKCycle returns the emergencies at the given margin per 1000
// measured cycles (the unit of the paper's droop plots); margin must be
// tracked, as for EmergenciesAt.
func (r *RunData) DroopsPerKCycle(margin float64) float64 {
	return counters.PerKCycles(r.EmergenciesAt(margin), r.Cycles)
}

// Model holds the machine parameters of the resilient design.
type Model struct {
	// WorstCaseMargin is the conservative guardband of the baseline
	// design (0.14 for the Core 2 Duo).
	WorstCaseMargin float64
	// FreqGainPerMargin is the frequency improvement per unit of margin
	// reclaimed; the paper assumes Bowman et al.'s 1.5× scaling factor.
	FreqGainPerMargin float64
}

// DefaultModel returns the paper's parameterization.
func DefaultModel() Model {
	return Model{WorstCaseMargin: 0.14, FreqGainPerMargin: 1.5}
}

// Gain returns the clock-frequency multiplier at the given margin.
// A tiny tolerance above the worst-case margin is accepted (and clamped)
// so that float accumulation in margin sweeps cannot trip the bound.
func (m Model) Gain(margin float64) float64 {
	const eps = marginEps
	if margin < 0 || margin > m.WorstCaseMargin+eps {
		panic(fmt.Sprintf("resilient: margin %g outside [0, %g]", margin, m.WorstCaseMargin))
	}
	if margin > m.WorstCaseMargin {
		margin = m.WorstCaseMargin
	}
	return 1 + m.FreqGainPerMargin*(m.WorstCaseMargin-margin)
}

// Improvement returns the net performance improvement (percent) of running
// r on a resilient design with the given margin and per-recovery cost,
// relative to the worst-case-margin baseline. Negative values are the
// paper's "dead zone": recovery overheads push the design below the
// conservative baseline.
func (m Model) Improvement(r RunData, margin, recoveryCost float64) float64 {
	if r.Cycles == 0 {
		panic("resilient: RunData with zero cycles")
	}
	if recoveryCost < 0 {
		panic(fmt.Sprintf("resilient: negative recovery cost %g", recoveryCost))
	}
	e := float64(r.EmergenciesAt(margin))
	slowdown := 1 + e*recoveryCost/float64(r.Cycles)
	return 100 * (m.Gain(margin)/slowdown - 1)
}

// MeanImprovement averages Improvement over a set of runs (the Fig 8
// aggregate over all 881 program executions).
func (m Model) MeanImprovement(runs []RunData, margin, recoveryCost float64) float64 {
	if len(runs) == 0 {
		return 0
	}
	var sum float64
	for i := range runs {
		sum += m.Improvement(runs[i], margin, recoveryCost)
	}
	return sum / float64(len(runs))
}

// SweepPoint is one point of a margin sweep at fixed recovery cost.
type SweepPoint struct {
	Margin      float64
	Improvement float64 // percent, averaged over the input runs
}

// Sweep evaluates MeanImprovement across margins (one Fig 8 curve).
func (m Model) Sweep(runs []RunData, margins []float64, recoveryCost float64) []SweepPoint {
	out := make([]SweepPoint, 0, len(margins))
	for _, mg := range margins {
		out = append(out, SweepPoint{Margin: mg, Improvement: m.MeanImprovement(runs, mg, recoveryCost)})
	}
	return out
}

// Optimum describes the best margin for a recovery cost.
type Optimum struct {
	Margin       float64
	Improvement  float64 // percent
	RecoveryCost float64
}

// OptimalMargin finds the margin with the highest mean improvement for a
// recovery cost — the per-cost peak of Fig 8 and the "Optimal Margin"
// column of Tab I.
func (m Model) OptimalMargin(runs []RunData, margins []float64, recoveryCost float64) Optimum {
	best := Optimum{Margin: math.NaN(), Improvement: math.Inf(-1), RecoveryCost: recoveryCost}
	for _, mg := range margins {
		if imp := m.MeanImprovement(runs, mg, recoveryCost); imp > best.Improvement {
			best.Margin, best.Improvement = mg, imp
		}
	}
	return best
}

// Heatmap evaluates the model over margins × recovery costs, producing the
// Fig 10 surfaces: out[i][j] is the mean improvement at costs[i] and
// margins[j].
func (m Model) Heatmap(runs []RunData, margins, costs []float64) [][]float64 {
	out := make([][]float64, len(costs))
	for i, c := range costs {
		row := make([]float64, len(margins))
		for j, mg := range margins {
			row[j] = m.MeanImprovement(runs, mg, c)
		}
		out[i] = row
	}
	return out
}

// DeadZone returns the margins at which the mean improvement falls below
// zero — aggressive settings where recoveries are so frequent that the
// resilient design loses to the conservative baseline.
func (m Model) DeadZone(runs []RunData, margins []float64, recoveryCost float64) []float64 {
	var dead []float64
	for _, mg := range margins {
		if m.MeanImprovement(runs, mg, recoveryCost) < 0 {
			dead = append(dead, mg)
		}
	}
	return dead
}

// Passes reports whether a single run meets the expected improvement
// target at the given margin and cost — the Tab I "Schedules That Pass"
// criterion. target is the suite-wide expected improvement (percent);
// fraction relaxes it (1.0 = must meet the full expectation).
func (m Model) Passes(r RunData, margin, recoveryCost, target, fraction float64) bool {
	const eps = 1e-9 // float slack so "exactly meets the target" passes
	return m.Improvement(r, margin, recoveryCost) >= target*fraction-eps
}

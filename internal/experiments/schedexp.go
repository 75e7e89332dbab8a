package experiments

import (
	"context"
	"fmt"

	"voltsmooth/internal/core"
	"voltsmooth/internal/parallel"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/resilient"
	"voltsmooth/internal/sched"
)

func init() {
	register("fig16", "Sliding-window co-scheduling of astar (interference phases)", runFig16, nil)
	register("fig17", "Droop spread across co-runners per benchmark", runFig17, reads{schedVariant: tableParts})
	register("fig18", "Scheduling policy scatter: droops vs performance", runFig18, reads{schedVariant: tableParts})
	register("fig19", "Passing-schedule increase over SPECrate per recovery cost", runFig19, reads{schedVariant: tableParts | corpusParts})
	register("tab1", "SPECrate typical-case analysis at optimal margins", runTab1, reads{schedVariant: tableParts | corpusParts})
}

// schedVariant is the chip every Sec IV experiment runs on: "As everything
// in this section builds towards ... resiliency-based architectures in the
// future, we use the Proc3 processor."
var schedVariant = pdn.Proc3

// Fig16Result reproduces Fig 16: the sliding-window convolution of two
// astar instances.
type Fig16Result struct {
	Window sched.WindowResult
	Kinds  []sched.InterferenceKind
}

func runFig16(ctx context.Context, s *Session) Renderer { return Fig16(ctx, s) }

// fig16Margin is the emergency threshold for the sliding-window study:
// shallow enough that crossings are dense and the co-scheduled count is
// set by interference (alignment of the two instances' noise phases)
// rather than by simple addition of two sparse event streams — the regime
// the paper's Fig 16 operates in, where the destructive regions sit at
// the single-core droop level.
const fig16Margin = 0.015

// Fig16 runs the sliding-window experiment.
func Fig16(ctx context.Context, s *Session) *Fig16Result {
	x := mustProfile("astar")
	w, err := sched.SlidingWindowCtx(ctx, s.ChipConfig(schedVariant), x, x,
		s.Scale.WindowCycles, s.Scale.Windows, fig16Margin, s.Workers)
	if err != nil {
		panic(&parallel.AbortError{Err: err})
	}
	return &Fig16Result{Window: w, Kinds: w.Classify(0.25)}
}

// Count returns how many windows were classified as the given kind.
func (r *Fig16Result) Count(k sched.InterferenceKind) int {
	n := 0
	for _, kind := range r.Kinds {
		if kind == k {
			n++
		}
	}
	return n
}

// Render implements Renderer.
func (r *Fig16Result) Render() string {
	t := &Table{
		Title:  "Fig 16: sliding-window co-schedule of astar+astar (Proc3)",
		Header: []string{"window", "solo droops/Kc", "co-scheduled droops/Kc", "interference"},
		Notes: []string{
			"paper: co-scheduling the same program over itself produces both",
			"constructive (droops nearly double) and destructive (droops at",
			"the single-core level despite both cores running) regions",
		},
	}
	for i := range r.Window.CoDroops {
		t.AddRow(i, f1(r.Window.SoloDroops[i]), f1(r.Window.CoDroops[i]), r.Kinds[i].String())
	}
	return Tables{t}.Render()
}

// Fig17Result reproduces Fig 17: per-benchmark droop spread across all
// co-runners with single-core and SPECrate markers.
type Fig17Result struct {
	Rows []sched.RowStats
	// DestructiveCount is the number of benchmarks with at least one
	// co-schedule below their SPECrate baseline.
	DestructiveCount int
}

func runFig17(ctx context.Context, s *Session) Renderer { return Fig17(ctx, s) }

// Fig17 derives the spread from the oracle table.
func Fig17(ctx context.Context, s *Session) *Fig17Result {
	t := s.PairTable(ctx, schedVariant)
	r := &Fig17Result{Rows: t.CoScheduleSpread()}
	for i := range r.Rows {
		if t.HasDestructiveInterference(i) {
			r.DestructiveCount++
		}
	}
	return r
}

// Render implements Renderer.
func (r *Fig17Result) Render() string {
	t := &Table{
		Title:  "Fig 17: droop variance across co-runners (droops/Kc, Proc3)",
		Header: []string{"benchmark", "min", "q1", "median", "q3", "max", "single", "SPECrate"},
		Notes: []string{
			fmt.Sprintf("benchmarks with destructive co-schedules (below SPECrate): %d of %d",
				r.DestructiveCount, len(r.Rows)),
			"paper: destructive interference across nearly the whole suite;",
			"in over half the co-schedules there is room to beat SPECrate",
		},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, f1(row.Box.Min), f1(row.Box.Q1), f1(row.Box.Median),
			f1(row.Box.Q3), f1(row.Box.Max), f1(row.Single), f1(row.SPECrate))
	}
	return Tables{t}.Render()
}

// Fig18Result reproduces Fig 18: policy batches plotted in normalized
// (droops, performance) space against the SPECrate origin (1,1).
type Fig18Result struct {
	Droop  sched.BatchEval
	IPC    sched.BatchEval
	Hybrid []sched.BatchEval
	Random []sched.BatchEval
}

func runFig18(ctx context.Context, s *Session) Renderer { return Fig18(ctx, s) }

// Fig18 builds and evaluates all batches.
func Fig18(ctx context.Context, s *Session) *Fig18Result {
	t := s.PairTable(ctx, schedVariant)
	cfg := sched.DefaultBatchConfig(t.Size())
	r := &Fig18Result{
		Droop: sched.EvaluateBatch(t, sched.BuildBatch(t, sched.DroopPolicy{}, cfg)),
		IPC:   sched.EvaluateBatch(t, sched.BuildBatch(t, sched.IPCPolicy{}, cfg)),
	}
	for _, n := range []float64{1, 2, 4} {
		r.Hybrid = append(r.Hybrid,
			sched.EvaluateBatch(t, sched.BuildBatch(t, sched.HybridPolicy{N: n}, cfg)))
	}
	random, err := sched.RandomEvalsCtx(ctx, t, cfg, s.Scale.RandomBatches, 0x5EED, s.Workers)
	if err != nil {
		panic(&parallel.AbortError{Err: err})
	}
	r.Random = random
	return r
}

// RandomCentroid returns the mean coordinates of the random control
// group. With no random batches (Scale.RandomBatches = 0) it returns the
// SPECrate origin (1, 1) instead of dividing by zero.
func (r *Fig18Result) RandomCentroid() (droops, perf float64) {
	if len(r.Random) == 0 {
		return 1, 1
	}
	for _, e := range r.Random {
		droops += e.Droops
		perf += e.Perf
	}
	n := float64(len(r.Random))
	return droops / n, perf / n
}

// Render implements Renderer.
func (r *Fig18Result) Render() string {
	t := &Table{
		Title:  "Fig 18: policy impact relative to SPECrate (=1,1)",
		Header: []string{"policy", "norm. droops", "norm. perf"},
		Notes: []string{
			"paper: Droop lands in Q1 (fewer droops, no perf loss); IPC",
			"improves perf but sits at random-schedule droop levels;",
			"random clusters near the SPECrate origin",
		},
	}
	t.AddRow("Droop", f2(r.Droop.Droops), f2(r.Droop.Perf))
	t.AddRow("IPC", f2(r.IPC.Droops), f2(r.IPC.Perf))
	for _, h := range r.Hybrid {
		t.AddRow(h.Policy, f2(h.Droops), f2(h.Perf))
	}
	if len(r.Random) > 0 {
		cd, cp := r.RandomCentroid()
		t.AddRow(fmt.Sprintf("Random x%d (centroid)", len(r.Random)), f2(cd), f2(cp))
		var dmin, dmax, pmin, pmax float64 = 1e9, -1e9, 1e9, -1e9
		for _, e := range r.Random {
			dmin, dmax = min2(dmin, e.Droops), max2(dmax, e.Droops)
			pmin, pmax = min2(pmin, e.Perf), max2(pmax, e.Perf)
		}
		t.AddRow("Random spread (droops)", f2(dmin)+"-"+f2(dmax), "")
		t.AddRow("Random spread (perf)", "", f2(pmin)+"-"+f2(pmax))
	} else {
		t.Notes = append(t.Notes, "no random control group at this scale (RandomBatches = 0)")
	}
	return Tables{t}.Render()
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Tab1Fig19Result reproduces Tab I and Fig 19 together: the passing
// analysis across recovery costs, for SPECrate and for the Droop/IPC
// policies.
type Tab1Fig19Result struct {
	Analyses []sched.PassAnalysis
	Policies []string
}

func runTab1(ctx context.Context, s *Session) Renderer  { return Tab1Fig19(ctx, s) }
func runFig19(ctx context.Context, s *Session) Renderer { return Tab1Fig19(ctx, s) }

// Tab1Fig19 runs the passing analysis on the Proc3 oracle, using the
// Proc3 corpus as the expectation-setting population (the paper's 881
// workloads). The result is memoized on the session alongside the corpora
// and tables: tab1 and fig19 are two renderings of one analysis, so
// `vsmooth run all` computes it once.
func Tab1Fig19(ctx context.Context, s *Session) *Tab1Fig19Result {
	r, err := s.passing.DoCtx(ctx, schedVariant.Name, func() *Tab1Fig19Result { return tab1Fig19(ctx, s) })
	if err != nil {
		panic(&parallel.AbortError{Err: err})
	}
	return r
}

func tab1Fig19(ctx context.Context, s *Session) *Tab1Fig19Result {
	t := s.PairTable(ctx, schedVariant)
	corpus := s.Corpus(ctx, schedVariant)
	cfg := sched.PassConfig{
		Model:        resilient.DefaultModel(),
		Margins:      core.DefaultMargins(),
		Costs:        recoveryCosts,
		Corpus:       corpus.Runs,
		PassFraction: 0.97,
	}
	policies := []sched.Policy{sched.DroopPolicy{}, sched.IPCPolicy{}}
	r := &Tab1Fig19Result{Analyses: sched.AnalyzePassing(t, cfg, policies)}
	for _, p := range policies {
		r.Policies = append(r.Policies, p.Name())
	}
	return r
}

// Render implements Renderer.
func (r *Tab1Fig19Result) Render() string {
	tab := &Table{
		Title:  "Tab I: SPECrate typical-case analysis at optimal margins (Proc3)",
		Header: []string{"cost(cyc)", "optimal margin(%)", "expected improvement(%)", "SPECrate passing"},
		Notes: []string{
			"paper: margins relax and improvements shrink as recovery cost",
			"grows; passing schedules fall from 28 toward 9",
		},
	}
	for _, a := range r.Analyses {
		tab.AddRow(f1(a.RecoveryCost), f1(a.OptimalMargin*100), f1(a.ExpectedImprovement), a.SPECratePass)
	}

	fig := &Table{
		Title:  "Fig 19: increase in passing schedules over SPECrate",
		Header: []string{"cost(cyc)"},
		Notes: []string{
			"paper: Droop consistently outperforms IPC, and the gap grows",
			"at coarse-grained (>=1000-cycle) recovery schemes",
		},
	}
	for _, p := range r.Policies {
		fig.Header = append(fig.Header, p+" passing", p+" increase(%)")
	}
	for _, a := range r.Analyses {
		row := []string{f1(a.RecoveryCost)}
		for _, p := range r.Policies {
			row = append(row, fmt.Sprint(a.PolicyPass[p]), f1(a.PassIncreasePercent(p)))
		}
		fig.Rows = append(fig.Rows, row)
	}
	return Tables{tab, fig}.Render()
}

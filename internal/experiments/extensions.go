package experiments

import (
	"context"
	"fmt"
	"math"

	"voltsmooth/internal/core"
	"voltsmooth/internal/parallel"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/resilient"
	"voltsmooth/internal/sched"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

func init() {
	register("ext1", "Extension: online stall-ratio scheduler (no droop sensor)", runExt1, nil)
	register("ext2", "Extension: split vs connected core supplies", runExt2, nil)
	register("ext3", "Extension: IPC/Droop^n sensitivity to recovery cost", runExt3, reads{schedVariant: tableParts | corpusParts})
}

// Ext1Result compares online counter-driven scheduling policies: the
// deployment scenario the paper's stall-ratio metric enables. No policy
// sees a droop counter; the noise-aware one clusters jobs by stall ratio.
type Ext1Result struct {
	Results []sched.OnlineResult
}

func runExt1(ctx context.Context, s *Session) Renderer { return Ext1(ctx, s) }

// Ext1 runs the same job set to completion under each online policy, the
// schedules of each lockstep group in one RunOnline.
func Ext1(ctx context.Context, s *Session) *Ext1Result {
	cfg := sched.DefaultOnlineConfig(s.ChipConfig(schedVariant), s.Margin(schedVariant))
	cfg.QuantumCycles = s.Scale.IntervalCycles

	jobs := func() []*sched.Job {
		var out []*sched.Job
		for _, p := range s.SpecProfiles() {
			out = append(out, sched.NewJob(p, uint64(20*s.Scale.IntervalCycles)))
		}
		return out
	}

	policies := []sched.OnlinePolicy{
		sched.StallClusterPolicy{},
		sched.StallSpreadPolicy{},
		sched.NewRandomOnlinePolicy(1),
		sched.NewRandomOnlinePolicy(2),
	}
	r := &Ext1Result{Results: make([]sched.OnlineResult, len(policies))}
	s.lockstep(ctx, len(policies), 1, func(lo, hi int) {
		schedules := make([]sched.Schedule, hi-lo)
		for i := range schedules {
			schedules[i] = sched.Schedule{Jobs: jobs(), Policy: policies[lo+i]}
		}
		res, err := sched.RunOnline(ctx, cfg, schedules)
		if err != nil {
			panic(&parallel.AbortError{Err: err})
		}
		copy(r.Results[lo:hi], res)
	})
	return r
}

// ByPolicy returns the i-th result with the given policy name.
func (r *Ext1Result) ByPolicy(name string) []sched.OnlineResult {
	var out []sched.OnlineResult
	for _, res := range r.Results {
		if res.Policy == name {
			out = append(out, res)
		}
	}
	return out
}

// Render implements Renderer.
func (r *Ext1Result) Render() string {
	t := &Table{
		Title:  "Ext 1: online schedulers driven only by performance counters (Proc3)",
		Header: []string{"policy", "emergencies", "droops/Kc", "total cycles", "quanta", "jobs done", "complete"},
		Notes: []string{
			"the stall-ratio metric stands in for a droop sensor, as the",
			"paper proposes; clustering by stall ratio approaches the",
			"oracle Droop policy's behaviour without measuring voltage",
		},
	}
	for _, res := range r.Results {
		t.AddRow(res.Policy, res.Emergencies, f2(res.DroopsPerKc),
			res.TotalCycles, res.Quanta, res.CompletedJobs, scheduleStatus(res))
	}
	return Tables{t}.Render()
}

// scheduleStatus renders an online schedule's completion state: truncated
// schedules report a quanta prefix, not a completed workload, and every
// table that prints OnlineResult rows says so.
func scheduleStatus(res sched.OnlineResult) string {
	if res.Truncated {
		return fmt.Sprintf("truncated@%d", res.Quanta)
	}
	return "yes"
}

// Ext2Result compares split versus connected core supplies, the design
// question the paper's footnote 3 cites (James et al., ISSCC'07: "voltage
// swings are much larger when the cores operate independently"; Kim et
// al.: per-core VRMs can worsen noise).
type Ext2Result struct {
	Pairs []Ext2Row
}

// Ext2Row is one workload pair measured on both supply designs.
type Ext2Row struct {
	A, B              string
	SharedP2P         float64 // percent of nominal
	SplitP2P          float64
	SharedDroopsPerKc float64
	SplitDroopsPerKc  float64
}

func runExt2(ctx context.Context, s *Session) Renderer { return Ext2(ctx, s) }

// Ext2 measures representative pairs on both designs. The pipeline never
// reads the die voltage, so each pair runs once, in lockstep groups: one
// chip drives both the shared network and the per-core rails.
func Ext2(ctx context.Context, s *Session) *Ext2Result {
	margin := s.Margin(pdn.Proc100)
	pairs := [][2]string{{"mcf", "mcf"}, {"sphinx", "namd"}, {"namd", "namd"}}
	r := &Ext2Result{Pairs: make([]Ext2Row, len(pairs))}
	for i, pair := range pairs {
		r.Pairs[i].A, r.Pairs[i].B = pair[0], pair[1]
	}
	cfg := uarch.DefaultConfig()
	rc := core.RunConfig{
		Cycles:       s.Scale.RunCycles,
		WarmupCycles: s.Scale.WarmupCycles,
		Margins:      []float64{margin},
	}
	s.lockstep(ctx, len(pairs), 2, func(lo, hi int) {
		runs := make([]core.LaneRun, hi-lo)
		for i := range runs {
			row := &r.Pairs[lo+i]
			runs[i] = core.LaneRun{
				Streams: []workload.Stream{mustProfile(row.A).NewStream(), mustProfile(row.B).NewStream()},
				Nets:    []pdn.Params{cfg.PDN},
				Split:   []pdn.Params{cfg.PDN},
			}
		}
		for i, res := range core.RunLanes(cfg, runs, rc) {
			row, shared, split := &r.Pairs[lo+i], res[0], res[1]
			row.SharedP2P = shared.Scope.PeakToPeakPercent()
			row.SharedDroopsPerKc = shared.DroopsPerKCycle(margin)
			row.SplitP2P = split.Scope.PeakToPeakPercent()
			row.SplitDroopsPerKc = split.DroopsPerKCycle(margin)
		}
	})
	return r
}

// Render implements Renderer.
func (r *Ext2Result) Render() string {
	t := &Table{
		Title:  "Ext 2: split vs connected core supplies (Proc100)",
		Header: []string{"pair", "shared p2p(%)", "split p2p(%)", "shared droops/Kc", "split droops/Kc"},
		Notes: []string{
			"paper footnote 3 / James et al. (POWER6): swings are much",
			"larger when cores' supplies operate independently — the",
			"shared rail averages the cores' uncorrelated current draws",
		},
	}
	for _, row := range r.Pairs {
		t.AddRow(row.A+"+"+row.B, f2(row.SharedP2P), f2(row.SplitP2P),
			f2(row.SharedDroopsPerKc), f2(row.SplitDroopsPerKc))
	}
	return Tables{t}.Render()
}

// Ext3Result is the Sec IV-D ablation the paper sketches but does not
// plot: how the hybrid policy's exponent n should track the platform's
// recovery cost ("The value of n is small for fine-grained schemes …
// n should be bigger to compensate for larger recovery penalties under
// more coarse-grained schemes").
type Ext3Result struct {
	Ns    []float64
	Costs []float64
	// Evals[k] is the batch evaluation of IPC/Droop^n for Ns[k].
	Evals []sched.BatchEval
	// Pass[k][c] is the passing-schedule count of IPC/Droop^Ns[k] at
	// Costs[c].
	Pass [][]int
	// BestN[c] is the smallest exponent achieving the maximum passing
	// count at Costs[c].
	BestN []float64
}

func runExt3(ctx context.Context, s *Session) Renderer { return Ext3(ctx, s) }

// Ext3 sweeps the hybrid exponent.
func Ext3(ctx context.Context, s *Session) *Ext3Result {
	t := s.PairTable(ctx, schedVariant)
	corpus := s.Corpus(ctx, schedVariant)
	model := resilient.DefaultModel()
	margins := core.DefaultMargins()

	r := &Ext3Result{
		Ns:    []float64{0, 0.5, 1, 2, 4, 8},
		Costs: recoveryCosts,
	}
	bcfg := sched.DefaultBatchConfig(t.Size())
	var policies []sched.Policy
	for _, n := range r.Ns {
		p := sched.HybridPolicy{N: n}
		policies = append(policies, p)
		r.Evals = append(r.Evals, sched.EvaluateBatch(t, sched.BuildBatch(t, p, bcfg)))
	}
	analyses := sched.AnalyzePassing(t, sched.PassConfig{
		Model:        model,
		Margins:      margins,
		Costs:        r.Costs,
		Corpus:       corpus.Runs,
		PassFraction: 0.97,
	}, policies)

	r.Pass = make([][]int, len(r.Ns))
	for k := range r.Ns {
		r.Pass[k] = make([]int, len(r.Costs))
	}
	r.BestN = make([]float64, len(r.Costs))
	for c, a := range analyses {
		best, bestN := -1, math.NaN()
		for k, n := range r.Ns {
			count := a.PolicyPass[sched.HybridPolicy{N: n}.Name()]
			r.Pass[k][c] = count
			if count > best {
				best, bestN = count, n
			}
		}
		r.BestN[c] = bestN
	}
	return r
}

// Render implements Renderer.
func (r *Ext3Result) Render() string {
	ev := &Table{
		Title:  "Ext 3: IPC/Droop^n batch coordinates (vs SPECrate = 1,1)",
		Header: []string{"n", "norm. droops", "norm. perf"},
	}
	for k, n := range r.Ns {
		ev.AddRow(f1(n), f2(r.Evals[k].Droops), f2(r.Evals[k].Perf))
	}

	pass := &Table{
		Title: "Ext 3: passing schedules per exponent and recovery cost",
		Notes: []string{
			"paper (Sec IV-D): n should be small for fine-grained recovery",
			"and bigger for coarse-grained schemes; the best-n row confirms",
			"the adaptive-metric argument on this platform",
		},
	}
	pass.Header = []string{"n \\ cost"}
	for _, c := range r.Costs {
		pass.Header = append(pass.Header, f1(c))
	}
	for k, n := range r.Ns {
		row := []string{f1(n)}
		for c := range r.Costs {
			row = append(row, fmt.Sprint(r.Pass[k][c]))
		}
		pass.Rows = append(pass.Rows, row)
	}
	bn := []string{"best n"}
	for _, n := range r.BestN {
		bn = append(bn, f1(n))
	}
	pass.Rows = append(pass.Rows, bn)
	return Tables{ev, pass}.Render()
}

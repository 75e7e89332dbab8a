package experiments

import (
	"context"

	"voltsmooth/internal/core"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/phase"
	"voltsmooth/internal/stats"
	"voltsmooth/internal/workload"
)

func init() {
	register("fig14", "Voltage-noise phases over full executions (sphinx, gamess, tonto)", runFig14, nil)
	register("fig15", "Droop counts and stall ratio across the suite", runFig15, reads{pdn.Proc3: partSingle})
}

// Fig14Result reproduces Fig 14: droops-per-1K-cycles time series for the
// three characteristic programs, plus their phase segmentations. Per the
// paper's Sec IV ("we use the Proc3 processor"), the phase study runs on
// the future-node stand-in.
type Fig14Result struct {
	IntervalCycles uint64
	Programs       []string
	Series         [][]float64
	Summaries      []phase.Summary
}

func runFig14(ctx context.Context, s *Session) Renderer { return Fig14(ctx, s) }

// Fig14 records the three phase traces.
func Fig14(ctx context.Context, s *Session) *Fig14Result {
	cfg := s.ChipConfig(pdn.Proc3)
	programs := []string{"sphinx", "gamess", "tonto"}
	r := &Fig14Result{
		IntervalCycles: s.Scale.IntervalCycles,
		Programs:       programs,
		Series:         make([][]float64, len(programs)),
		Summaries:      make([]phase.Summary, len(programs)),
	}
	rc := core.RunConfig{
		Cycles:         s.Scale.PhaseRunCycles,
		WarmupCycles:   s.Scale.WarmupCycles,
		IntervalCycles: s.Scale.IntervalCycles,
		SeriesMargin:   s.Margin(pdn.Proc3),
	}
	res := s.lockstepRuns(ctx, cfg, rc, len(programs), func(i int) []workload.Stream {
		return []workload.Stream{mustProfile(programs[i]).NewStream()}
	})
	for i := range res {
		r.Series[i] = res[i].DroopSeries
		r.Summaries[i] = phase.Summarize(r.Series[i], phaseDetectConfig(r.Series[i]))
	}
	return r
}

// phaseDetectConfig scales the detector threshold to the series' own
// droop level, since absolute droop rates depend on the experiment scale.
func phaseDetectConfig(series []float64) phase.Config {
	cfg := phase.DefaultConfig()
	mean := stats.Mean(series)
	cfg.Threshold = mean * 0.3
	if cfg.Threshold < 1 {
		cfg.Threshold = 1
	}
	return cfg
}

// SummaryOf returns the phase summary for a program.
func (r *Fig14Result) SummaryOf(name string) phase.Summary {
	for i, p := range r.Programs {
		if p == name {
			return r.Summaries[i]
		}
	}
	panic("experiments: program not in Fig14 result")
}

// Render implements Renderer.
func (r *Fig14Result) Render() string {
	var ts Tables
	sum := &Table{
		Title:  "Fig 14: voltage-noise phase structure (Proc3)",
		Header: []string{"program", "phases", "transitions/1K-intervals", "mean droops/Kc", "phase swing"},
		Notes: []string{
			"paper: sphinx flat (no phases); gamess four coarse phases;",
			"tonto oscillates strongly and frequently",
		},
	}
	for i, p := range r.Programs {
		s := r.Summaries[i]
		sum.AddRow(p, s.Phases, f1(s.TransitionsPerKInterval), f1(s.MeanDroops), f1(s.Swing))
	}
	ts = append(ts, sum)
	for i, p := range r.Programs {
		t := &Table{Title: "droops per 1K cycles over time: " + p}
		t.Header = []string{"series"}
		t.Rows = append(t.Rows, []string{sparkline(r.Series[i], 90)})
		ts = append(ts, t)
	}
	return ts.Render()
}

// Fig15Result reproduces Fig 15: per-benchmark droop counts overlaid with
// the stall ratio, and their correlation.
type Fig15Result struct {
	Names       []string
	DroopsPerKc []float64
	StallRatio  []float64
	IPC         []float64
	Pearson     float64
}

func runFig15(ctx context.Context, s *Session) Renderer { return Fig15(ctx, s) }

// Fig15 reads the first measurement window of every benchmark, as the
// paper does ("a 60-second execution window ... from the beginning of
// program execution"). Those windows are the Proc3 corpus's single-threaded
// runs, so fig15 shares the session's single-run population instead of
// simulating them again.
func Fig15(ctx context.Context, s *Session) *Fig15Result {
	runs := s.runs(ctx, partSingle, pdn.Proc3, func(*corpusRun) {})
	margin := s.Margin(pdn.Proc3)
	n := len(runs)
	r := &Fig15Result{
		Names:       make([]string, n),
		DroopsPerKc: make([]float64, n),
		StallRatio:  make([]float64, n),
		IPC:         make([]float64, n),
	}
	for i := range runs {
		run := &runs[i]
		r.Names[i] = run.data.Name
		r.DroopsPerKc[i] = run.data.DroopsPerKCycle(margin)
		r.StallRatio[i] = run.Counters[0].StallRatio()
		r.IPC[i] = run.Counters[0].IPC()
	}
	r.Pearson = stats.Pearson(r.DroopsPerKc, r.StallRatio)
	return r
}

// Render implements Renderer.
func (r *Fig15Result) Render() string {
	t := &Table{
		Title:  "Fig 15: droops vs stall ratio per benchmark (Proc3)",
		Header: []string{"benchmark", "droops/Kc", "stall ratio", "IPC"},
		Notes: []string{
			"paper: heterogeneous mix of noise levels; droops strongly",
			"correlated with stall ratio (r = 0.97);",
			"measured correlation r = " + f2(r.Pearson),
		},
	}
	for i, n := range r.Names {
		t.AddRow(n, f1(r.DroopsPerKc[i]), f2(r.StallRatio[i]), f2(r.IPC[i]))
	}
	return Tables{t}.Render()
}

package experiments

import (
	"context"
	"voltsmooth/internal/core"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

func init() {
	register("fig12", "Single-core microbenchmark swings relative to idle", runFig12, nil)
	register("fig13", "Cross-core event interference heatmap", runFig13, nil)
}

// microP2P measures the chip-wide peak-to-peak swing (percent of nominal)
// with the given streams on the two cores.
func microP2P(s *Session, cfg uarch.Config, a, b workload.Stream) float64 {
	res := core.RunPair(cfg, a, b, core.RunConfig{
		Cycles:       s.Scale.MicroCycles,
		WarmupCycles: s.Scale.WarmupCycles,
		Margins:      []float64{core.PhaseMargin},
	})
	return res.Scope.PeakToPeakPercent()
}

// Fig12Result reproduces Fig 12: the effect of each stall event on supply
// voltage, one core active, relative to the idling OS.
type Fig12Result struct {
	IdleP2P float64
	Events  []workload.EventKind
	// Relative[i] is event i's peak-to-peak swing / idle peak-to-peak.
	Relative []float64
}

func runFig12(ctx context.Context, s *Session) Renderer { return Fig12(ctx, s) }

// Fig12 measures the five single-core microbenchmarks.
func Fig12(ctx context.Context, s *Session) *Fig12Result {
	cfg := uarch.DefaultConfig()
	r := &Fig12Result{
		IdleP2P: idleScopeP2P(cfg, s.Scale.WarmupCycles, s.Scale.MicroCycles),
		Events:  workload.EventKinds(),
	}
	r.Relative = make([]float64, len(r.Events))
	s.sweep(ctx, len(r.Events), func(i int) {
		r.Relative[i] = microP2P(s, cfg, workload.Microbenchmark(r.Events[i]), nil) / r.IdleP2P
	})
	return r
}

// RelativeOf returns the relative swing of an event kind.
func (r *Fig12Result) RelativeOf(k workload.EventKind) float64 {
	for i, e := range r.Events {
		if e == k {
			return r.Relative[i]
		}
	}
	panic("experiments: unknown event kind")
}

// Render implements Renderer.
func (r *Fig12Result) Render() string {
	t := &Table{
		Title:  "Fig 12: microbenchmark peak-to-peak swing relative to idle",
		Header: []string{"event", "relative swing"},
		Notes: []string{
			"paper: branch mispredictions cause the largest single-core",
			"swing (>1.7x idle on their platform); our quieter idle baseline",
			"scales all ratios up but preserves the ordering",
		},
	}
	for i, k := range r.Events {
		t.AddRow(k.String(), f2(r.Relative[i]))
	}
	return Tables{t}.Render()
}

// Fig13Result reproduces Fig 13: the 5×5 cross-core interference matrix.
type Fig13Result struct {
	IdleP2P float64
	Events  []workload.EventKind
	// Relative[i][j]: core 0 runs event i, core 1 runs event j.
	Relative [][]float64
	// SingleMax is the largest single-core relative swing (Fig 12).
	SingleMax float64
}

func runFig13(ctx context.Context, s *Session) Renderer { return Fig13(ctx, s) }

// Fig13 measures all event pairs.
func Fig13(ctx context.Context, s *Session) *Fig13Result {
	cfg := uarch.DefaultConfig()
	r := &Fig13Result{
		IdleP2P: idleScopeP2P(cfg, s.Scale.WarmupCycles, s.Scale.MicroCycles),
		Events:  workload.EventKinds(),
	}
	n := len(r.Events)
	r.Relative = make([][]float64, n)
	for i := range r.Relative {
		r.Relative[i] = make([]float64, n)
	}
	// Runs 0…n²−1 are the event pairs in row-major order; runs n²…n²+n−1
	// are the single-core references.
	single := make([]float64, n)
	s.sweep(ctx, n*n+n, func(k int) {
		if k < n*n {
			i, j := k/n, k%n
			p := microP2P(s, cfg, workload.Microbenchmark(r.Events[i]), workload.Microbenchmark(r.Events[j]))
			r.Relative[i][j] = p / r.IdleP2P
			return
		}
		single[k-n*n] = microP2P(s, cfg, workload.Microbenchmark(r.Events[k-n*n]), nil) / r.IdleP2P
	})
	for _, rel := range single {
		if rel > r.SingleMax {
			r.SingleMax = rel
		}
	}
	return r
}

// MaxCell returns the largest matrix cell and its event pair.
func (r *Fig13Result) MaxCell() (a, b workload.EventKind, rel float64) {
	for i, row := range r.Relative {
		for j, v := range row {
			if v > rel {
				a, b, rel = r.Events[i], r.Events[j], v
			}
		}
	}
	return a, b, rel
}

// Render implements Renderer.
func (r *Fig13Result) Render() string {
	t := &Table{Title: "Fig 13: cross-core interference (swing relative to idle)"}
	t.Header = []string{"core0\\core1"}
	for _, k := range r.Events {
		t.Header = append(t.Header, k.String())
	}
	for i, k1 := range r.Events {
		row := []string{k1.String()}
		for j := range r.Events {
			row = append(row, f2(r.Relative[i][j]))
		}
		t.Rows = append(t.Rows, row)
	}
	a, b, rel := r.MaxCell()
	t.Notes = []string{
		"paper: worst pair EXCPxEXCP; dual-core worsens the worst swing",
		"measured max: " + a.String() + "x" + b.String() + " = " + f2(rel) +
			" vs single-core max " + f2(r.SingleMax) +
			" (+" + f1(100*(rel/r.SingleMax-1)) + "%)",
	}
	return Tables{t}.Render()
}

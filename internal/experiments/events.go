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

// microP2Ps measures the chip-wide peak-to-peak swing (percent of
// nominal) of n microbenchmark runs, run i with programs(i) on the two
// cores (nil idles a core).
func microP2Ps(ctx context.Context, s *Session, n int, programs func(i int) (a, b workload.Stream)) []float64 {
	rc := core.RunConfig{
		Cycles:       s.Scale.MicroCycles,
		WarmupCycles: s.Scale.WarmupCycles,
		Margins:      []float64{core.PhaseMargin},
	}
	res := s.lockstepRuns(ctx, uarch.DefaultConfig(), rc, n, func(i int) []workload.Stream {
		a, b := programs(i)
		return []workload.Stream{a, b}
	})
	out := make([]float64, n)
	for i := range res {
		out[i] = res[i].Scope.PeakToPeakPercent()
	}
	return out
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
	r := &Fig12Result{Events: workload.EventKinds()}
	// Run 0 is the idle machine; run i+1 is event i alone on core 0.
	p2p := microP2Ps(ctx, s, len(r.Events)+1, func(i int) (a, b workload.Stream) {
		if i == 0 {
			return nil, nil
		}
		return workload.Microbenchmark(r.Events[i-1]), nil
	})
	r.IdleP2P = p2p[0]
	r.Relative = make([]float64, len(r.Events))
	for i := range r.Relative {
		r.Relative[i] = p2p[i+1] / r.IdleP2P
	}
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
	r := &Fig13Result{Events: workload.EventKinds()}
	n := len(r.Events)
	// Run 0 is the idle machine, runs 1…n² are the event pairs in
	// row-major order, and runs n²+1…n²+n are the single-core references.
	p2p := microP2Ps(ctx, s, 1+n*n+n, func(k int) (a, b workload.Stream) {
		switch {
		case k == 0:
			return nil, nil
		case k <= n*n:
			return workload.Microbenchmark(r.Events[(k-1)/n]), workload.Microbenchmark(r.Events[(k-1)%n])
		default:
			return workload.Microbenchmark(r.Events[k-1-n*n]), nil
		}
	})
	r.IdleP2P = p2p[0]
	r.Relative = make([][]float64, n)
	for i := range r.Relative {
		r.Relative[i] = make([]float64, n)
		for j := range r.Relative[i] {
			r.Relative[i][j] = p2p[1+i*n+j] / r.IdleP2P
		}
	}
	for _, p := range p2p[1+n*n:] {
		if rel := p / r.IdleP2P; rel > r.SingleMax {
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

package experiments

import (
	"context"
	"voltsmooth/internal/technode"
)

func init() {
	register("fig1", "Projected voltage swings across technology nodes", runFig1, nil)
	register("fig2", "Peak frequency vs. voltage margin per node", runFig2, nil)
}

// Fig1Result reproduces Fig 1: peak-to-peak swing growth from 45 nm to
// 11 nm under a constant power budget.
type Fig1Result struct {
	Projections []technode.SwingProjection
}

func runFig1(ctx context.Context, s *Session) Renderer { return Fig1(s) }

// Fig1 runs the projection experiment.
func Fig1(*Session) *Fig1Result {
	return &Fig1Result{
		Projections: technode.ProjectSwings(technode.DefaultProjectionConfig(), technode.Nodes()),
	}
}

// Render implements Renderer.
func (r *Fig1Result) Render() string {
	t := &Table{
		Title:  "Fig 1: projected voltage swings relative to the 45nm node",
		Header: []string{"node", "Vdd(V)", "stimulus(A)", "swing(%Vdd)", "relative"},
		Notes: []string{
			"paper: swing roughly doubles by 16nm and approaches ~2.8x at 11nm",
		},
	}
	for _, p := range r.Projections {
		t.AddRow(p.Node.Name, f2(p.Node.Vdd), f1(p.StimulusAmps), pct(p.SwingFrac), f2(p.Relative))
	}
	return Tables{t}.Render()
}

// Fig2Result reproduces Fig 2: the frequency cost of voltage margins.
type Fig2Result struct {
	Curves []technode.MarginCurve
}

func runFig2(ctx context.Context, s *Session) Renderer { return Fig2(s) }

// Fig2 runs the ring-oscillator margin sweep for the four plotted nodes.
func Fig2(*Session) *Fig2Result {
	osc := technode.DefaultRingOscillator()
	return &Fig2Result{
		Curves: technode.MarginFrequencyCurves(osc, technode.Nodes()[:4], 50, 5),
	}
}

// Render implements Renderer.
func (r *Fig2Result) Render() string {
	t := &Table{
		Title: "Fig 2: peak frequency (%) vs margin (%) per node",
		Notes: []string{
			"paper: a 20% margin at 45nm costs ~25% of peak frequency;",
			"a doubled (40%) margin at 16nm costs more than 50%",
		},
	}
	t.Header = []string{"margin(%)"}
	for _, c := range r.Curves {
		t.Header = append(t.Header, c.Node.Name)
	}
	if len(r.Curves) == 0 {
		return Tables{t}.Render()
	}
	for i, m := range r.Curves[0].MarginPc {
		row := []string{f1(m)}
		for _, c := range r.Curves {
			row = append(row, f1(c.FreqPc[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return Tables{t}.Render()
}

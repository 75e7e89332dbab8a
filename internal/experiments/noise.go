package experiments

import (
	"context"

	"voltsmooth/internal/core"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/resilient"
	"voltsmooth/internal/stats"
)

func init() {
	register("fig7", "CDF of voltage samples across the run corpus (Proc100)", runFig7, reads{pdn.Proc100: corpusParts})
	register("fig8", "Typical-case improvement vs margin per recovery cost (Proc100)", runFig8, reads{pdn.Proc100: corpusParts})
	register("fig9", "Typical-case CDFs on the future-node chips (Proc25, Proc3)", runFig9,
		reads{pdn.Proc100: corpusParts, pdn.Proc25: corpusParts, pdn.Proc3: corpusParts})
	register("fig10", "Improvement heatmaps: margin x recovery cost x decap variant", runFig10,
		reads{pdn.Proc100: corpusParts, pdn.Proc25: corpusParts, pdn.Proc3: corpusParts})
}

// recoveryCosts is the paper's sweep: Razor-class (1), DeCoR-class (10),
// signature-prediction-class (100), production checkpointing (1k-100k).
var recoveryCosts = []float64{1, 10, 100, 1000, 10000, 100000}

// Fig7Result reproduces Fig 7: the cumulative distribution of voltage
// samples across the full corpus on the unmodified chip.
type Fig7Result struct {
	Variant       pdn.ProcVariant
	Runs          int
	Samples       uint64
	MinDroopPc    float64 // paper: 9.6%
	MaxOvershoot  float64
	FracBeyond4Pc float64 // paper: 0.06% of samples
	CDF           []stats.CDFPoint
}

func runFig7(ctx context.Context, s *Session) Renderer { return Fig7(ctx, s) }

// Fig7 aggregates the corpus CDF.
func Fig7(ctx context.Context, s *Session) *Fig7Result {
	c := s.Corpus(ctx, pdn.Proc100)
	return &Fig7Result{
		Variant:       c.Variant,
		Runs:          len(c.Runs),
		Samples:       c.Merged.Samples(),
		MinDroopPc:    c.Merged.MinDroopPercent(),
		MaxOvershoot:  c.Merged.MaxOvershootPercent(),
		FracBeyond4Pc: c.Merged.FractionBeyond(core.TypicalMargin),
		CDF:           c.Merged.CDF(),
	}
}

// Render implements Renderer.
func (r *Fig7Result) Render() string {
	t := &Table{
		Title:  "Fig 7: voltage-sample distribution, " + r.Variant.Name,
		Header: []string{"metric", "value"},
		Notes: []string{
			"paper: max droop 9.6% (inside the 14% worst-case margin),",
			"typical case within 4%, only 0.06% of samples beyond it",
		},
	}
	t.AddRow("corpus runs", r.Runs)
	t.AddRow("voltage samples", r.Samples)
	t.AddRow("min droop", f2(r.MinDroopPc)+"%")
	t.AddRow("max overshoot", f2(r.MaxOvershoot)+"%")
	t.AddRow("samples beyond -4%", pct(r.FracBeyond4Pc))

	cdf := &Table{
		Title:  "cumulative distribution (selected deviations)",
		Header: []string{"deviation", "fraction of samples below"},
	}
	for _, dev := range []float64{-8, -6, -4, -3, -2, -1, 0, 1, 2, 4} {
		cdf.AddRow(f1(dev)+"%", pct(cdfAt(r.CDF, dev)))
	}
	return Tables{t, cdf}.Render()
}

// cdfAt interpolates a CDF at deviation x (percent).
func cdfAt(cdf []stats.CDFPoint, x float64) float64 {
	frac := 0.0
	for _, p := range cdf {
		if p.X > x {
			break
		}
		frac = p.Frac
	}
	return frac
}

// Fig8Result reproduces Fig 8: mean improvement vs margin for each
// recovery cost on Proc100.
type Fig8Result struct {
	Variant pdn.ProcVariant
	Margins []float64
	Costs   []float64
	// Improvement[i][j]: cost i, margin j (percent).
	Improvement [][]float64
	Optima      []resilient.Optimum
	DeadZones   [][]float64
}

func runFig8(ctx context.Context, s *Session) Renderer { return Fig8(ctx, s, pdn.Proc100) }

// Fig8 sweeps the typical-case model over the corpus of a variant.
func Fig8(ctx context.Context, s *Session, v pdn.ProcVariant) *Fig8Result {
	c := s.Corpus(ctx, v)
	model := resilient.DefaultModel()
	margins := core.DefaultMargins()
	r := &Fig8Result{Variant: v, Margins: margins, Costs: recoveryCosts}
	for _, cost := range recoveryCosts {
		sweep := model.Sweep(c.Runs, margins, cost)
		row := make([]float64, len(sweep))
		for j, p := range sweep {
			row[j] = p.Improvement
		}
		r.Improvement = append(r.Improvement, row)
		r.Optima = append(r.Optima, model.OptimalMargin(c.Runs, margins, cost))
		r.DeadZones = append(r.DeadZones, model.DeadZone(c.Runs, margins, cost))
	}
	return r
}

// Render implements Renderer.
func (r *Fig8Result) Render() string {
	t := &Table{
		Title: "Fig 8: performance improvement (%) vs margin, " + r.Variant.Name,
		Notes: []string{
			"paper: gains between 13% and ~21% depending on recovery cost;",
			"overly aggressive margins fall into the dead zone (<0%)",
		},
	}
	t.Header = []string{"margin(%)"}
	for _, c := range r.Costs {
		t.Header = append(t.Header, f1(c)+"cyc")
	}
	for j, m := range r.Margins {
		row := []string{f1(m * 100)}
		for i := range r.Costs {
			row = append(row, f1(r.Improvement[i][j]))
		}
		t.Rows = append(t.Rows, row)
	}

	opt := &Table{
		Title:  "optimal margins per recovery cost",
		Header: []string{"cost(cyc)", "optimal margin(%)", "improvement(%)", "dead-zone margins"},
	}
	for i, o := range r.Optima {
		opt.AddRow(f1(r.Costs[i]), f1(o.Margin*100), f1(o.Improvement), len(r.DeadZones[i]))
	}
	return Tables{t, opt}.Render()
}

// Fig9Result reproduces Fig 9: the sample distributions of the future-node
// stand-ins, with the growing fraction of samples beyond the typical-case
// margin.
type Fig9Result struct {
	Rows []Fig9Row
}

// Fig9Row is one variant's distribution summary.
type Fig9Row struct {
	Variant       pdn.ProcVariant
	MinDroopPc    float64
	FracBeyond4Pc float64
}

func runFig9(ctx context.Context, s *Session) Renderer { return Fig9(ctx, s) }

// Fig9 compares Proc100/Proc25/Proc3 distributions.
func Fig9(ctx context.Context, s *Session) *Fig9Result {
	r := &Fig9Result{}
	for _, v := range []pdn.ProcVariant{pdn.Proc100, pdn.Proc25, pdn.Proc3} {
		c := s.Corpus(ctx, v)
		r.Rows = append(r.Rows, Fig9Row{
			Variant:       v,
			MinDroopPc:    c.Merged.MinDroopPercent(),
			FracBeyond4Pc: c.Merged.FractionBeyond(core.TypicalMargin),
		})
	}
	return r
}

// Render implements Renderer.
func (r *Fig9Result) Render() string {
	t := &Table{
		Title:  "Fig 9: sample distributions on future-node chips",
		Header: []string{"proc", "min droop(%)", "samples beyond -4%"},
		Notes: []string{
			"paper: 0.06% (Proc100) -> 0.2% (Proc25) -> 2.2% (Proc3) of",
			"samples violate the -4% typical-case margin",
		},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Variant.Name, f2(row.MinDroopPc), pct(row.FracBeyond4Pc))
	}
	return Tables{t}.Render()
}

// Fig10Result reproduces Fig 10: the margin × recovery-cost improvement
// heatmaps for the three chips.
type Fig10Result struct {
	Variants []pdn.ProcVariant
	Margins  []float64
	Costs    []float64
	// Heat[v][i][j]: variant v, cost i, margin j.
	Heat [][][]float64
}

func runFig10(ctx context.Context, s *Session) Renderer { return Fig10(ctx, s) }

// Fig10 computes all three heatmaps.
func Fig10(ctx context.Context, s *Session) *Fig10Result {
	model := resilient.DefaultModel()
	margins := core.DefaultMargins()
	r := &Fig10Result{Margins: margins, Costs: recoveryCosts}
	for _, v := range []pdn.ProcVariant{pdn.Proc100, pdn.Proc25, pdn.Proc3} {
		c := s.Corpus(ctx, v)
		r.Variants = append(r.Variants, v)
		r.Heat = append(r.Heat, model.Heatmap(c.Runs, margins, recoveryCosts))
	}
	return r
}

// ImprovementAt returns the heat value for a variant index at the given
// cost and margin (helper for tests and summaries).
func (r *Fig10Result) ImprovementAt(variant int, cost, margin float64) float64 {
	ci, mi := -1, -1
	for i, c := range r.Costs {
		if c == cost {
			ci = i
		}
	}
	for j, m := range r.Margins {
		if m == margin {
			mi = j
		}
	}
	if ci < 0 || mi < 0 {
		panic("experiments: ImprovementAt on untracked cost/margin")
	}
	return r.Heat[variant][ci][mi]
}

// Render implements Renderer.
func (r *Fig10Result) Render() string {
	var ts Tables
	for vi, v := range r.Variants {
		t := &Table{Title: "Fig 10: improvement (%) heatmap, " + v.Name}
		t.Header = []string{"cost\\margin"}
		for _, m := range r.Margins {
			t.Header = append(t.Header, f1(m*100))
		}
		for i, c := range r.Costs {
			row := []string{f1(c)}
			for j := range r.Margins {
				row = append(row, f1(r.Heat[vi][i][j]))
			}
			t.Rows = append(t.Rows, row)
		}
		ts = append(ts, t)
	}
	ts[len(ts)-1].Notes = []string{
		"paper: the pocket of improvement between -6% and -2% on Proc100",
		"shrinks on Proc25 and nearly vanishes on Proc3",
	}
	return ts.Render()
}

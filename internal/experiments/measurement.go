package experiments

import (
	"context"
	"math"

	"voltsmooth/internal/core"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/stats"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

func init() {
	register("fig4", "Impedance profile: analytic vs software current loop", runFig4, nil)
	register("fig6", "Reset droops across decap-removal processors (Figs 5m-r, 6)", runFig6, nil)
	register("fig11", "TLB-miss overshoots riding the VRM ripple", runFig11, nil)
}

// Fig4Result reproduces Fig 4: the platform impedance profile built with
// the software current-consuming loop, validated against the exact
// network solve, for default and reduced package capacitance.
type Fig4Result struct {
	Freqs        []float64
	AnalyticFull []float64 // |Z| normalized to the 1 MHz value (paper's axis)
	AnalyticRed  []float64 // reduced caps (κ=0.20)
	LoopMeasured []float64 // software-loop measurement, same normalization
	PeakFreqHz   float64
	PeakRatio    float64 // peak |Z| / |Z(1MHz)|, full caps
	RedRatio1MHz float64 // reduced/full |Z| at 1 MHz (paper: ~5x)
}

func runFig4(ctx context.Context, s *Session) Renderer { return Fig4(ctx, s) }

// Fig4 sweeps the impedance profile.
func Fig4(ctx context.Context, s *Session) *Fig4Result {
	cfg := uarch.DefaultConfig()
	full := pdn.New(cfg.PDN)
	red := pdn.New(cfg.PDN.WithCapFraction(0.20))

	n := s.Scale.ImpedanceFreqs
	if n < 3 {
		n = 3
	}
	freqs := stats.Logspace(1e6, 6e8, n)
	r := &Fig4Result{Freqs: freqs, LoopMeasured: make([]float64, len(freqs))}

	z1 := full.ImpedanceMag(1e6)
	z1r := red.ImpedanceMag(1e6)
	for _, f := range freqs {
		r.AnalyticFull = append(r.AnalyticFull, full.ImpedanceMag(f)/z1)
		r.AnalyticRed = append(r.AnalyticRed, red.ImpedanceMag(f)/z1)
	}
	s.lockstep(ctx, len(freqs), 1, func(lo, hi int) {
		for i, z := range core.MeasureLoopImpedances(cfg, freqs[lo:hi], s.Scale.MicroCycles*4) {
			r.LoopMeasured[lo+i] = z / z1
		}
	})
	pf, pm := full.ResonancePeak(1e6, 1e9, 300)
	r.PeakFreqHz = pf
	r.PeakRatio = pm / z1
	r.RedRatio1MHz = z1r / z1
	return r
}

// Render implements Renderer.
func (r *Fig4Result) Render() string {
	t := &Table{
		Title:  "Fig 4: impedance relative to |Z(1MHz)|",
		Header: []string{"freq(MHz)", "analytic(full)", "analytic(reduced)", "loop-measured(full)"},
		Notes: []string{
			"paper: resonance peaks in the 100-200 MHz band;",
			"reduced caps raise |Z(1MHz)| by ~5x (here: " + f2(r.RedRatio1MHz) + "x)",
			"measured resonance: " + f1(r.PeakFreqHz/1e6) + " MHz at " + f1(r.PeakRatio) + "x the 1 MHz impedance",
		},
	}
	for i, f := range r.Freqs {
		t.AddRow(f1(f/1e6), f2(r.AnalyticFull[i]), f2(r.AnalyticRed[i]), f2(r.LoopMeasured[i]))
	}
	return Tables{t}.Render()
}

// Fig6Result reproduces Figs 5m–r and 6: reset-stimulus droops as package
// capacitance is removed.
type Fig6Result struct {
	Responses []pdn.ResetResponse
}

func runFig6(ctx context.Context, s *Session) Renderer { return Fig6(s) }

// Fig6 runs the decap-removal reset experiment.
func Fig6(*Session) *Fig6Result {
	return &Fig6Result{Responses: pdn.ResetExperiment(pdn.DefaultResetConfig(), pdn.AllVariants())}
}

// Render implements Renderer.
func (r *Fig6Result) Render() string {
	t := &Table{
		Title:  "Figs 5m-r & 6: reset response vs package capacitance",
		Header: []string{"proc", "cap frac", "droop(mV)", "p2p(mV)", "relative p2p", "boots"},
		Notes: []string{
			"paper: Proc100 ~150mV sharp droop; Proc0 ~350mV over several cycles,",
			"fails stability testing; relative swing follows the Fig 1 trend",
		},
	}
	for _, resp := range r.Responses {
		t.AddRow(resp.Variant.Name, f2(resp.Variant.CapFraction),
			f1(resp.DroopVolts*1e3), f1(resp.PeakToPeak*1e3),
			f2(resp.RelativeP2P), resp.BootsStably)
	}
	return Tables{t}.Render()
}

// Fig11Result reproduces Fig 11: a time-domain window of the TLB
// microbenchmark showing recurring overshoot spikes embedded in the VRM
// sawtooth.
type Fig11Result struct {
	VNom float64
	// Trace is a downsampled voltage waveform (percent deviation).
	TraceDevPc []float64
	// CyclesPerSample is the downsampling stride.
	CyclesPerSample int
	// OvershootSpikes counts excursions above the ripple envelope.
	OvershootSpikes uint64
	// ExpectedEvents is the number of TLB misses during the window.
	ExpectedEvents uint64
	// RipplePeriods counts VRM sawtooth periods in the window.
	RipplePeriods float64
}

func runFig11(ctx context.Context, s *Session) Renderer { return Fig11(s) }

// Fig11 captures the waveform.
func Fig11(s *Session) *Fig11Result {
	cfg := uarch.DefaultConfig()
	chip := uarch.NewChip(cfg)
	defer chip.PublishSteps()
	chip.SetStream(0, workload.Microbenchmark(workload.EventTLB))
	for i := uint64(0); i < s.Scale.WarmupCycles; i++ {
		chip.Cycle()
	}
	snap := *chip.Counters(0)

	cycles := s.Scale.MicroCycles
	stride := int(cycles / 400)
	if stride < 1 {
		stride = 1
	}
	vnom := cfg.PDN.VNom
	res := &Fig11Result{VNom: vnom, CyclesPerSample: stride}

	// Overshoot spike = upward crossing of the ripple envelope.
	envelope := vnom + cfg.PDN.RippleAmp*1.3
	above := false
	for i := uint64(0); i < cycles; i++ {
		v := chip.Cycle()
		if i%uint64(stride) == 0 {
			res.TraceDevPc = append(res.TraceDevPc, 100*(v-vnom)/vnom)
		}
		if v > envelope && !above {
			res.OvershootSpikes++
		}
		above = v > envelope
	}
	res.ExpectedEvents = chip.Counters(0).Delta(snap).TLBMisses
	res.RipplePeriods = float64(cycles) / cfg.ClockHz * cfg.PDN.RippleFreq
	return res
}

// Render implements Renderer.
func (r *Fig11Result) Render() string {
	t := &Table{
		Title: "Fig 11: TLB microbenchmark voltage trace",
		Notes: []string{
			"paper: recurring overshoot spikes embedded in the VRM sawtooth",
		},
	}
	t.Header = []string{"metric", "value"}
	t.AddRow("overshoot spikes", r.OvershootSpikes)
	t.AddRow("TLB misses in window", r.ExpectedEvents)
	t.AddRow("VRM ripple periods", f1(r.RipplePeriods))
	min, max := stats.MinMax(r.TraceDevPc)
	t.AddRow("trace min dev", f2(min)+"%")
	t.AddRow("trace max dev", f2(max)+"%")

	spark := &Table{Title: "waveform (downsampled, % of nominal)"}
	spark.Header = []string{"sparkline"}
	spark.Rows = append(spark.Rows, []string{sparkline(r.TraceDevPc, 100)})
	return Tables{t, spark}.Render()
}

// sparkline renders a series as unicode block characters, downsampled to
// width columns.
func sparkline(xs []float64, width int) string {
	if len(xs) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	if len(xs) > width {
		ds := make([]float64, width)
		for i := range ds {
			ds[i] = xs[i*len(xs)/width]
		}
		xs = ds
	}
	lo, hi := stats.MinMax(xs)
	span := hi - lo
	if span == 0 {
		span = 1
	}
	out := make([]rune, len(xs))
	for i, x := range xs {
		idx := int((x - lo) / span * float64(len(blocks)-1))
		idx = int(math.Min(float64(len(blocks)-1), math.Max(0, float64(idx))))
		out[i] = blocks[idx]
	}
	return string(out)
}

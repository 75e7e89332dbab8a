package sched

import (
	"context"

	"voltsmooth/internal/core"
	"voltsmooth/internal/counters"
	"voltsmooth/internal/parallel"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// WindowResult is the outcome of the Fig 16 sliding-window experiment.
type WindowResult struct {
	// WindowCycles is the restart interval (the paper's 60 seconds).
	WindowCycles uint64
	// CoDroops[k] is droops per 1K cycles during window k with Prog X on
	// core 0 (running continuously) and a *fresh* instance of Prog Y
	// spawned on core 1 at the start of the window.
	CoDroops []float64
	// SoloDroops[k] is the reference: the same windows of Prog X with
	// core 1 idling (Fig 16b).
	SoloDroops []float64
}

// SlidingWindow reproduces the Sec IV-B convolution experiment: "One
// program, Prog X, is tied to Core 0. It runs uninterrupted until program
// completion. During its execution, we spawn a second program Prog Y onto
// Core 1 … we prematurely terminate its execution after 60 seconds [and]
// immediately re-launch a new instance." Because Prog Y always restarts
// from its beginning while Prog X advances through its phases, each window
// convolves Y's opening phase with a different phase of X. The solo and
// co-scheduled passes run serially.
func SlidingWindow(cfg uarch.Config, x, y workload.Profile, windowCycles uint64, windows int, margin float64) WindowResult {
	res, _ := SlidingWindowCtx(context.Background(), cfg, x, y, windowCycles, windows, margin, 1)
	return res
}

// SlidingWindowCtx is SlidingWindow with cooperative cancellation: the
// experiment polls ctx at window boundaries — its natural phase boundary,
// since each window is one indivisible convolution step — and returns the
// context's error with a zero result when cancelled. The solo and
// co-scheduled passes are independent simulations and run on up to
// `workers` goroutines (<= 0 means parallel.DefaultWorkers()); the result
// is bit-identical at any width.
func SlidingWindowCtx(ctx context.Context, cfg uarch.Config, x, y workload.Profile, windowCycles uint64, windows int, margin float64, workers int) (WindowResult, error) {
	if windowCycles == 0 || windows <= 0 {
		panic("sched: SlidingWindow needs positive window size and count")
	}
	if margin == 0 {
		margin = core.PhaseMargin
	}
	res := WindowResult{WindowCycles: windowCycles}

	run := func(withY bool) ([]float64, error) {
		chip := uarch.NewChip(cfg)
		chip.SetStream(0, x.NewStream())
		scope := sense.NewScope(cfg.PDN.VNom, []float64{margin})
		series := make([]float64, 0, windows)
		var prev uint64
		for w := 0; w < windows; w++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if withY {
				chip.SetStream(1, y.NewStream()) // fresh instance each window
			}
			for i := uint64(0); i < windowCycles; i++ {
				scope.Sample(chip.Cycle())
			}
			cur := scope.Crossings(margin)
			series = append(series, counters.PerKCycles(cur-prev, windowCycles))
			prev = cur
		}
		return series, nil
	}

	var series [2][]float64 // solo, co-scheduled
	if err := parallel.For(ctx, workers, len(series), func(i int) (err error) {
		series[i], err = run(i == 1)
		return err
	}); err != nil {
		return WindowResult{}, err
	}
	res.SoloDroops, res.CoDroops = series[0], series[1]
	return res, nil
}

// InterferenceKind classifies one window of a sliding-window run.
type InterferenceKind int

const (
	// Neutral: co-scheduled droops within tolerance of running solo.
	Neutral InterferenceKind = iota
	// Constructive interference: co-scheduling amplifies noise (bad).
	Constructive
	// Destructive interference: co-scheduling dampens noise to at or
	// below the single-core level even though both cores are active (good).
	Destructive
)

// String returns the label used in Fig 16c.
func (k InterferenceKind) String() string {
	switch k {
	case Constructive:
		return "constructive"
	case Destructive:
		return "destructive"
	default:
		return "neutral"
	}
}

// Classify labels each window against the solo reference: a window whose
// co-scheduled droop count exceeds the solo count by more than tolFrac is
// constructive interference; one at or below the solo count (within
// tolFrac) is destructive — both cores are busy yet chip-wide noise is no
// worse than one core alone (Sec IV-B's reading of Fig 16c).
func (r WindowResult) Classify(tolFrac float64) []InterferenceKind {
	out := make([]InterferenceKind, len(r.CoDroops))
	for i := range r.CoDroops {
		solo := r.SoloDroops[i]
		switch {
		case r.CoDroops[i] > solo*(1+tolFrac):
			out[i] = Constructive
		case r.CoDroops[i] <= solo*(1+tolFrac/2):
			out[i] = Destructive
		default:
			out[i] = Neutral
		}
	}
	return out
}

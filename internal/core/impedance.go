package core

import (
	"math"

	"voltsmooth/internal/pdn"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// MeasureLoopImpedance reproduces the paper's Sec II-A software
// methodology for building an impedance profile without external test
// gear: "we replace their step-current generation technique with a
// current-consuming software loop that runs on the processor. The loop
// consists of separate high-current-draw and low-current-draw instruction
// sequences … by modulating execution activity through these paths, the
// loop can control the current draw frequency."
//
// The chip runs a square-wave dI/dt loop at frequency f. A raw
// peak-to-peak ratio would be contaminated by the loop's odd harmonics
// (a 2 MHz square wave has a harmonic right at the 100–200 MHz package
// resonance), so — following the FFT-based methodology of the paper's
// measurement references (Waizman, "CPU power supply impedance profile
// measurement using FFT and clock gating") — the voltage and current
// waveforms are projected onto the fundamental with a single-bin DFT over
// an integer number of periods:
//
//	|Z(f)| = |V(f)| / |I(f)|
//
// Returns ohms. It is MeasureLoopImpedances at the one frequency.
func MeasureLoopImpedance(cfg uarch.Config, f float64, cycles uint64) float64 {
	return MeasureLoopImpedances(cfg, []float64{f}, cycles)[0]
}

// loopRun is one frequency's run of MeasureLoopImpedances: its chip, its
// warmup and measured cycle counts, the DFT bin's angle per cycle and the
// bin's running sums.
type loopRun struct {
	chip               *uarch.Chip
	warm, n            uint64
	w                  float64
	vRe, vIm, iRe, iIm float64
}

// MeasureLoopImpedances measures the loop impedance at each of freqs as
// MeasureLoopImpedance does, the frequencies' chips stepped in lockstep:
// every frequency's network steps through one pdn.Group on its own chip's
// current, so result i equals MeasureLoopImpedance(cfg, freqs[i], cycles)
// bit for bit. The runs' lengths differ with their quantized periods, and
// each drops out of the group when its own ends.
func MeasureLoopImpedances(cfg uarch.Config, freqs []float64, cycles uint64) []float64 {
	cfg.PDN.RippleAmp = 0 // the paper measures swing above background
	runs := make([]loopRun, len(freqs))
	for i, f := range freqs {
		periodCycles := cfg.ClockHz / f
		half := int(periodCycles / 2)
		if half < 1 {
			half = 1
		}
		// The realized square-wave period in cycles (quantized by the virus).
		realized := float64(2 * half)
		fRealized := cfg.ClockHz / realized

		chip := uarch.NewChip(cfg)
		chip.SetStream(0, workload.ResonantVirus(half*cfg.IssueWidth, half))
		chip.SetStream(1, workload.ResonantVirus(half*cfg.IssueWidth, half))

		// Let the loop and the network reach steady oscillation.
		warm := uint64(20 * realized)
		if warm > cycles/2 {
			warm = cycles / 2
		}
		// Measure over an integer number of periods so the DFT bin is exact.
		periods := uint64(float64(cycles-warm) / realized)
		if periods < 1 {
			periods = 1
		}
		runs[i] = loopRun{
			chip: chip,
			warm: warm,
			n:    periods * uint64(realized),
			w:    2 * math.Pi * fRealized / cfg.ClockHz, // radians per cycle
		}
	}

	group := pdn.NewGroup(1/cfg.ClockHz, cfg.Substeps)
	defer func() {
		group.Close()
		for i := range runs {
			runs[i].chip.PublishSteps()
		}
	}()
	live := make([]*loopRun, len(runs))
	for i := range runs {
		live[i] = &runs[i]
	}
	nets := make([]*pdn.Network, len(live))
	iLoad := make([]float64, len(live))
	for k := uint64(0); ; k++ {
		next := live[:0]
		for _, r := range live {
			if k < r.warm+r.n {
				nets[len(next)] = r.chip.Network()
				next = append(next, r)
			}
		}
		if live = next; len(live) == 0 {
			break
		}
		for j, r := range live {
			iLoad[j] = r.chip.CycleLoad()
		}
		for j, v := range group.Step(nets[:len(live)], iLoad[:len(live)]) {
			r := live[j]
			if k < r.warm {
				continue
			}
			m := float64(k - r.warm)
			c, s := math.Cos(r.w*m), math.Sin(r.w*m)
			cur := iLoad[j]
			r.vRe += float64(v * c)
			r.vIm -= float64(v * s)
			r.iRe += float64(cur * c)
			r.iIm -= float64(cur * s)
		}
	}

	out := make([]float64, len(runs))
	for i, r := range runs {
		if iMag := math.Hypot(r.iRe, r.iIm); iMag != 0 {
			out[i] = math.Hypot(r.vRe, r.vIm) / iMag
		}
	}
	return out
}

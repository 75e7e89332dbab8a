package core

import (
	"math"

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
// Returns ohms.
func MeasureLoopImpedance(cfg uarch.Config, f float64, cycles uint64) float64 {
	cfg.PDN.RippleAmp = 0 // the paper measures swing above background
	periodCycles := cfg.ClockHz / f
	half := int(periodCycles / 2)
	if half < 1 {
		half = 1
	}
	// The realized square-wave period in cycles (quantized by the virus).
	realized := float64(2 * half)
	fRealized := cfg.ClockHz / realized

	chip := uarch.NewChip(cfg)
	defer chip.PublishSteps()
	chip.SetStream(0, workload.ResonantVirus(half*cfg.IssueWidth, half))
	chip.SetStream(1, workload.ResonantVirus(half*cfg.IssueWidth, half))

	// Let the loop and the network reach steady oscillation.
	warm := uint64(20 * realized)
	if warm > cycles/2 {
		warm = cycles / 2
	}
	for i := uint64(0); i < warm; i++ {
		chip.Cycle()
	}
	// Measure over an integer number of periods so the DFT bin is exact.
	periods := uint64(float64(cycles-warm) / realized)
	if periods < 1 {
		periods = 1
	}
	n := periods * uint64(realized)
	w := 2 * math.Pi * fRealized / cfg.ClockHz // radians per cycle
	var vRe, vIm, iRe, iIm float64
	for k := uint64(0); k < n; k++ {
		v := chip.Cycle()
		cur := chip.TotalCurrent()
		c, s := math.Cos(w*float64(k)), math.Sin(w*float64(k))
		vRe += v * c
		vIm -= v * s
		iRe += cur * c
		iIm -= cur * s
	}
	iMag := math.Hypot(iRe, iIm)
	if iMag == 0 {
		return 0
	}
	return math.Hypot(vRe, vIm) / iMag
}

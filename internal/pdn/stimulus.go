package pdn

import "math"

// CurrentSource produces the die current (amperes) at absolute time t
// (seconds). Sources are pure functions of time so experiments are
// reproducible and composable.
type CurrentSource func(t float64) float64

// ConstantSource draws a fixed current.
func ConstantSource(amps float64) CurrentSource {
	return func(float64) float64 { return amps }
}

// StepSource draws base amperes, stepping to base+delta at time at.
func StepSource(base, delta, at float64) CurrentSource {
	return func(t float64) float64 {
		if t >= at {
			return base + delta
		}
		return base
	}
}

// SineSource draws base + amp·sin(2πft), the stimulus used to measure the
// impedance profile point by point.
func SineSource(base, amp, freq float64) CurrentSource {
	w := 2 * math.Pi * freq
	return func(t float64) float64 { return base + float64(amp*math.Sin(w*t)) }
}

// SquareSource alternates between lo and hi amperes at frequency freq with
// 50% duty cycle. This is the software "current-consuming loop" of Sec II-A:
// a high-current-draw path and a low-current-draw path executed alternately
// to modulate current draw at a chosen frequency.
//
// The phase is reduced with math.Mod against the period rather than by
// `t*freq - floor(t*freq)`: the product t·freq grows without bound over a
// long campaign, and once it is large its floating-point spacing exceeds
// the fractional resolution — the duty cycle first drifts, then sticks on
// one level entirely when the spacing reaches 1 (t·freq ≥ 2⁵²). math.Mod
// is exact for finite arguments, so the in-period phase keeps full
// precision at any t the simulation can reach (regression-tested at
// t ≥ 10⁶ periods by TestSquareSourceLateTimePrecision).
func SquareSource(lo, hi, freq float64) CurrentSource {
	period := 1 / freq
	half := 0.5 * period
	return func(t float64) float64 {
		phase := math.Mod(t, period)
		if phase < 0 {
			phase += period
		}
		if phase < half {
			return hi
		}
		return lo
	}
}

// ResetSource models the paper's reset stimulus (Sec II-B "Effect"): the
// chip is idling at idle amperes, current collapses to ~0 at time at when
// the reset asserts, and after holdFor seconds the cores come back up with
// a fast inrush ramp (rampFor seconds) to inrush amperes. The inrush is
// sustained for plateauFor seconds — power-on initialization keeps the
// whole chip busy — before decaying back to idle. The fast edge excites
// the die-level resonance while the sustained plateau exercises the
// mid-frequency band where the package capacitors do their work, which is
// what separates Proc100 from Proc0.
func ResetSource(idle, inrush, at, holdFor, rampFor, plateauFor float64) CurrentSource {
	return func(t float64) float64 {
		switch {
		case t < at:
			return idle
		case t < at+holdFor:
			return 0
		case t < at+holdFor+rampFor:
			frac := (t - at - holdFor) / rampFor
			return inrush * frac
		case t < at+holdFor+rampFor+plateauFor:
			return inrush
		case t < at+holdFor+2*rampFor+plateauFor:
			// Inrush decays back to idle.
			frac := (t - at - holdFor - rampFor - plateauFor) / rampFor
			return inrush + float64((idle-inrush)*frac)
		default:
			return idle
		}
	}
}

// TransientResult summarizes a time-domain run of the network.
type TransientResult struct {
	VMin, VMax   float64 // extreme die voltages observed (volts)
	PeakToPeak   float64 // VMax - VMin
	MinDroop     float64 // deepest excursion below VNom (volts, >= 0)
	MaxOvershoot float64 // highest excursion above VNom (volts, >= 0)
	Samples      int
}

// RunTransient simulates the network for duration seconds with the given
// current source, stepping dt seconds at a time, and returns the voltage
// extremes. If trace is non-nil it receives every (t, v) sample.
func RunTransient(n *Network, src CurrentSource, duration, dt float64, trace func(t, v float64)) TransientResult {
	res := TransientResult{VMin: math.Inf(1), VMax: math.Inf(-1)}
	vnom := n.p.VNom
	steps := int(duration / dt)
	for i := 0; i < steps; i++ {
		v := n.Step(dt, src(n.t))
		if trace != nil {
			trace(n.t, v)
		}
		if v < res.VMin {
			res.VMin = v
		}
		if v > res.VMax {
			res.VMax = v
		}
		res.Samples++
	}
	res.PeakToPeak = res.VMax - res.VMin
	if d := vnom - res.VMin; d > 0 {
		res.MinDroop = d
	}
	if o := res.VMax - vnom; o > 0 {
		res.MaxOvershoot = o
	}
	return res
}

// MeasureImpedance estimates |Z(f)| from the transient simulation by
// driving a sinusoidal current of amplitude amp around base and measuring
// the steady-state voltage swing at the die. settleCycles full periods are
// discarded before measuring over measureCycles periods. This mirrors the
// paper's software-loop methodology and is used to validate the analytic
// solver against the integrator.
func MeasureImpedance(p Params, f, base, amp float64, dt float64, settleCycles, measureCycles int) float64 {
	// Ripple would contaminate the measurement; disable it, as the paper's
	// methodology measures relative swing above the background.
	p.RippleAmp = 0
	n := NewAtLoad(p, base)
	src := SineSource(base, amp, f)

	period := 1 / f
	settle := float64(settleCycles) * period
	for n.t < settle {
		n.Step(dt, src(n.t))
	}
	vMin, vMax := math.Inf(1), math.Inf(-1)
	end := n.t + float64(float64(measureCycles)*period)
	for n.t < end {
		v := n.Step(dt, src(n.t))
		if v < vMin {
			vMin = v
		}
		if v > vMax {
			vMax = v
		}
	}
	return (vMax - vMin) / (2 * amp)
}

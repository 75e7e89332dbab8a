// Package pdn models the processor power-delivery network that the paper
// characterizes physically (Sec II). It replaces the Core 2 Duo package and
// its VCCsense/VSSsense measurement path with a three-stage RLC ladder:
//
//	Vreg --R0,L0--+--R1,L1--+--R2,L2--+--> die node (sensed voltage)
//	              |         |         |
//	            Cbulk      Cplane    Cdie        (with their ESRs)
//	             GND         |        GND
//	                      ESRb/κ
//	                      ESLb/κ     <- package capacitor bank branch
//	                      Cpkg·κ
//	                        GND
//
// The package decoupling bank hangs off the package plane node through its
// own equivalent series resistance and inductance. Both scale as 1/κ when
// capacitors are removed: fewer parallel capacitors means fewer parallel
// ESR/ESL paths, so a depleted bank goes *inductive* and stops shunting
// the die-level resonance — which is exactly why the paper's Proc25/Proc3
// chips see larger workload-driven swings, not just a higher 1 MHz
// impedance.
//
// The load (the chip model in internal/uarch) draws current at the die node.
// Package decoupling capacitance is scaled by the fraction κ
// (PackageCapFraction), mirroring the paper's decap-removal experiment:
// Proc100 keeps κ=1.00 while Proc3 keeps κ=0.03. Lower κ raises the network
// impedance and therefore the peak-to-peak voltage swing for the same
// current activity, exactly the extrapolation mechanism of Sec II-B.
//
// Two independent views of the same network are provided:
//
//   - An exact frequency-domain impedance solve (Impedance) using complex
//     arithmetic, used to reconstruct the Fig 4 impedance profile.
//   - A time-domain transient simulation (StepCycle) using semi-implicit
//     Euler integration, used for every execution-driven experiment.
//
// A property-based test cross-checks the two against each other.
package pdn

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Params holds the electrical parameters of the power-delivery ladder.
// All values are SI units (ohms, henries, farads, volts, hertz).
type Params struct {
	VNom float64 // nominal supply voltage at the die

	// Stage 0: voltage regulator to bulk capacitance (board level).
	R0, L0, C1, ESR1 float64
	// Stage 1: board to the package plane. C2/ESR2/ESL2 describe the
	// package decoupling bank (the caps removed in Sec II-B), which
	// hangs off the plane through its series ESR and ESL; CPlane is the
	// package plane's spreading capacitance, which stays when the bank
	// is removed.
	R1, L1, C2, ESR2, ESL2, CPlane float64
	// Stage 2: package plane to on-die decap.
	R2, L2, C3, ESR3 float64

	// PackageCapFraction is κ: the fraction of package decoupling
	// capacitance retained (1.0 = Proc100 … 0.03 = Proc3, 0 = Proc0).
	// The ESR of the package-cap bank scales as ESR2/κ because removing
	// capacitors removes parallel ESR paths.
	PackageCapFraction float64

	// VRM switching ripple: the sawtooth the paper observes as background
	// activity in Fig 11. Amplitude is zero-to-peak in volts.
	RippleAmp  float64
	RippleFreq float64

	// RegFeedforwardTau is the time constant (seconds) of the VRM's
	// current-feedforward load-line compensation: the regulator tracks a
	// fast moving average of delivered current and raises its setpoint by
	// the corresponding series IR drop. Real VRMs implement exactly this
	// (adaptive voltage positioning); it removes the bulk of the DC error
	// within a few microseconds, with the slower integral loop cleaning
	// up the residual. Zero disables feedforward.
	RegFeedforwardTau float64

	// RegIntegralHz is the crossover frequency of the voltage regulator's
	// integral control loop. A real VRM actively regulates the sense
	// point, compensating the DC (load-line) drop within its control
	// bandwidth — without it, a sustained 20 A draw would park the die
	// ~2% below nominal and swamp aggressive-margin measurements with a
	// DC offset the real platform does not have. Zero disables
	// regulation (stiff ideal source behind the ladder).
	RegIntegralHz float64

	// RegProportional is the proportional gain of the same loop (a PI
	// controller): it damps the slow ringing that a pure integrator
	// excites against the bulk LC stage after large sustained load
	// changes. Dimensionless; zero disables the term.
	RegProportional float64
}

// minCapFraction is the floor applied to PackageCapFraction so that the
// state-space formulation stays well posed at κ=0 (Proc0): the package cap
// branch degenerates to a tiny capacitance with enormous ESR, i.e. an
// effectively open branch.
const minCapFraction = 1e-6

// Core2Duo returns ladder parameters tuned to reproduce the measured
// characteristics of the paper's Intel Core 2 Duo E6300 platform:
// a mid-frequency impedance valley around 1 MHz and a resonance peak in the
// 100–200 MHz band (Fig 4), with droop magnitudes that land the typical-case
// swing near 4% and the worst observed droop near 9.6% of nominal once the
// chip current model is layered on top (Fig 7).
func Core2Duo() Params {
	return Params{
		VNom: 1.25,

		R0: 0.3e-3, L0: 10e-9, C1: 2e-3, ESR1: 3.0e-3,
		R1: 1.0e-3, L1: 15e-12,
		C2: 0.5e-3, ESR2: 0.05e-3, ESL2: 1.2e-12, CPlane: 20e-9,
		R2: 0.1e-3, L2: 1.5e-12, C3: 1000e-9, ESR3: 1.0e-3,

		PackageCapFraction: 1.0,

		RippleAmp:  0.003, // ~0.24% of VNom zero-to-peak
		RippleFreq: 300e3,

		RegFeedforwardTau: 2e-6,
		RegIntegralHz:     20e3,
		RegProportional:   1.5,
	}
}

// WithCapFraction returns a copy of p with PackageCapFraction set to k,
// clamped to [0, 1]. This is the software analogue of breaking capacitors
// off the package land side.
func (p Params) WithCapFraction(k float64) Params {
	if k < 0 {
		k = 0
	}
	if k > 1 {
		k = 1
	}
	p.PackageCapFraction = k
	return p
}

// Validate reports an error for physically meaningless parameters.
func (p Params) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"VNom", p.VNom},
		{"R0", p.R0}, {"L0", p.L0}, {"C1", p.C1},
		{"R1", p.R1}, {"L1", p.L1}, {"C2", p.C2},
		{"ESL2", p.ESL2}, {"CPlane", p.CPlane},
		{"R2", p.R2}, {"L2", p.L2}, {"C3", p.C3},
	}
	for _, c := range checks {
		if c.v <= 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("pdn: parameter %s must be positive and finite, got %g", c.name, c.v)
		}
	}
	if p.ESR1 < 0 || p.ESR2 < 0 || p.ESR3 < 0 {
		return fmt.Errorf("pdn: ESR values must be non-negative")
	}
	if p.PackageCapFraction < 0 || p.PackageCapFraction > 1 {
		return fmt.Errorf("pdn: PackageCapFraction %g outside [0,1]", p.PackageCapFraction)
	}
	if p.RippleAmp < 0 || p.RippleFreq < 0 {
		return fmt.Errorf("pdn: ripple parameters must be non-negative")
	}
	if p.RegIntegralHz < 0 || p.RegFeedforwardTau < 0 || p.RegProportional < 0 {
		return fmt.Errorf("pdn: regulator parameters must be non-negative")
	}
	return nil
}

// minESLFraction floors the κ-scaling of the bank's series inductance:
// once most capacitors are gone, the loop inductance seen by the die is
// bounded by the package plane and socket geometry rather than by the
// remaining capacitors' ESL, so the inductive opening saturates.
const minESLFraction = 0.08

// effBank returns the κ-scaled package-bank capacitance, ESR, and ESL.
func (p Params) effBank() (c2, esr2, esl2 float64) {
	k := p.PackageCapFraction
	if k < minCapFraction {
		k = minCapFraction
	}
	ke := k
	if ke < minESLFraction {
		ke = minESLFraction
	}
	return p.C2 * k, p.ESR2 / k, p.ESL2 / ke
}

// Network is the transient state of the power-delivery ladder.
// The zero value is not usable; construct with New or NewAtLoad.
//
// The hot-path fields are flattened out of Params into scalar members so
// the fused kernel (step) touches one contiguous struct and never copies
// the 24-field Params value per substep. Snapshot/restore copies the whole
// Network by value, which carries every cached coefficient along.
type Network struct {
	p                 Params
	c2, esr2, esl2    float64 // κ-scaled package bank branch
	iL0, iL1, iL2     float64 // ladder inductor currents
	iLb               float64 // package bank branch current
	vC1, vP, vCb, vC3 float64 // bulk, plane, bank, die capacitor voltages
	vDie              float64 // last computed die node voltage
	t                 float64 // absolute simulated time, for ripple phase
	lastILoad         float64
	steadyLoad        float64
	regBias           float64 // VRM integral-control correction added to VNom
	regErr            float64 // filtered sensed error, for the proportional term
	iEMA              float64 // fast moving average of load current (feedforward)

	// dtMax is the stability bound of the explicit capacitor updates:
	// Step transparently subdivides larger requested steps.
	dtMax float64

	// Run-invariant kernel constants, derived once at construction.
	// Each holds exactly the value the pre-fusion integrator computed
	// inline (same expression, same evaluation order), so caching them
	// is bit-transparent.
	pL0, pL1, pL2  float64 // ladder inductances
	pC1, pCPl, pC3 float64 // bulk, plane, die capacitances
	pESR3          float64
	pVNom          float64
	rTotal         float64 // R0 + R1 + R2 (load-line series resistance)
	regP           float64 // RegProportional
	regLimit       float64 // 0.15 * VNom anti-windup clamp
	rippleAmp      float64
	rippleFreq     float64
	hasFF          bool // RegFeedforwardTau > 0
	hasReg         bool // RegIntegralHz > 0
	hasRipple      bool // RippleAmp != 0 && RippleFreq != 0

	// Cached implicit-step coefficients, refreshed when dt changes. The
	// resistive coupling is a 2×2 block between iL0 and iL1 (through
	// ESR1) plus independent diagonals for iL2 and the bank branch. A run
	// uses one dt throughout, so after the first substep these are pure
	// reads: refreshCoefs is hoisted out of the kernel and runs only on
	// an actual dt change.
	coefDt             float64
	cb0, cc0, ca1, cb1 float64 // the ESR1-coupled block
	cb2, cbb           float64 // iL2 and iLb diagonals
	det                float64 // determinant of the ESR1-coupled block
	ffA                float64 // clamped dt/RegFeedforwardTau EMA factor
	kI                 float64 // dt · 2π · RegIntegralHz integral gain
}

// refreshCoefs recomputes the dt-dependent kernel coefficients. Every
// cached value reproduces the pre-fusion inline expression bit-for-bit:
// same operands, same order, so a cached coefficient and the old per-step
// recomputation are indistinguishable in the output.
func (n *Network) refreshCoefs(dt float64) {
	p := &n.p
	n.cb0 = 1 + dt*(p.R0+p.ESR1)/p.L0
	n.cc0 = -dt * p.ESR1 / p.L0
	n.ca1 = -dt * p.ESR1 / p.L1
	n.cb1 = 1 + dt*(p.R1+p.ESR1)/p.L1
	n.cb2 = 1 + dt*(p.R2+p.ESR3)/p.L2
	n.cbb = 1 + dt*n.esr2/n.esl2
	n.det = n.cb0*n.cb1 - n.cc0*n.ca1
	if n.hasFF {
		a := dt / p.RegFeedforwardTau
		if a > 1 {
			a = 1
		}
		n.ffA = a
	}
	n.kI = dt * 2 * math.Pi * p.RegIntegralHz
	n.coefDt = dt
}

// initDerived caches the run-invariant kernel constants from Params.
func (n *Network) initDerived() {
	p := &n.p
	n.pL0, n.pL1, n.pL2 = p.L0, p.L1, p.L2
	n.pC1, n.pCPl, n.pC3 = p.C1, p.CPlane, p.C3
	n.pESR3 = p.ESR3
	n.pVNom = p.VNom
	n.rTotal = p.R0 + p.R1 + p.R2
	n.regP = p.RegProportional
	n.regLimit = 0.15 * p.VNom
	n.rippleAmp = p.RippleAmp
	n.rippleFreq = p.RippleFreq
	n.hasFF = p.RegFeedforwardTau > 0
	n.hasReg = p.RegIntegralHz > 0
	n.hasRipple = p.RippleAmp != 0 && p.RippleFreq != 0
}

// New returns a Network initialized to the zero-load steady state:
// all node voltages at VNom, no current flowing.
func New(p Params) *Network { return NewAtLoad(p, 0) }

// NewAtLoad returns a Network initialized to the DC steady state while the
// die draws iLoad amperes, so simulations start without a spurious startup
// transient.
func NewAtLoad(p Params, iLoad float64) *Network {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n := &Network{p: p}
	n.c2, n.esr2, n.esl2 = p.effBank()
	n.initDerived()
	n.dtMax = 0.5 / n.fastestMode()
	n.SettleAt(iLoad)
	return n
}

// fastestMode returns the highest LC angular frequency in the network,
// which bounds the stable step of the semi-implicit integrator.
func (n *Network) fastestMode() float64 {
	p := n.p
	w := 0.0
	for _, lc := range []struct{ l, c float64 }{
		{p.L0, p.C1}, {p.L1, p.CPlane}, {p.L1, p.C1},
		{p.L2, p.CPlane}, {p.L2, p.C3},
		{n.esl2, n.c2}, {n.esl2, p.CPlane},
	} {
		if v := 1 / math.Sqrt(lc.l*lc.c); v > w {
			w = v
		}
	}
	return w
}

// Params returns the electrical parameters of the network.
func (n *Network) Params() Params { return n.p }

// SettleAt resets the network to the DC operating point for a constant die
// current of iLoad amperes.
func (n *Network) SettleAt(iLoad float64) {
	p := n.p
	n.iL0, n.iL1, n.iL2 = iLoad, iLoad, iLoad
	// With regulation active, the steady-state correction exactly cancels
	// the series IR drop so the die sits at VNom; without it the die sits
	// below nominal by the load-line drop. With feedforward enabled the
	// cancellation comes from the current tracker (regBias holds only the
	// integral residual); otherwise the integrator owns all of it.
	n.regBias = 0
	n.iEMA = iLoad
	comp := 0.0
	if p.RegFeedforwardTau > 0 || p.RegIntegralHz > 0 {
		comp = iLoad * (p.R0 + p.R1 + p.R2)
	}
	if p.RegFeedforwardTau == 0 && p.RegIntegralHz > 0 {
		n.regBias = comp // the integrator owns the whole correction
	}
	// At DC the caps carry no current, so node voltage == cap voltage;
	// the bank branch carries no DC current.
	n.iLb = 0
	n.vC1 = p.VNom + comp - iLoad*p.R0
	n.vP = n.vC1 - iLoad*p.R1
	n.vCb = n.vP
	n.vC3 = n.vP - iLoad*p.R2
	n.vDie = n.vC3
	n.t = 0
	n.lastILoad = iLoad
	n.steadyLoad = iLoad
}

// ripple returns the VRM sawtooth ripple voltage at time t.
func (n *Network) ripple(t float64) float64 {
	if n.p.RippleAmp == 0 || n.p.RippleFreq == 0 {
		return 0
	}
	phase := t * n.p.RippleFreq
	frac := phase - math.Floor(phase)
	// Symmetric sawtooth in [-amp, +amp].
	return n.p.RippleAmp * (2*frac - 1)
}

// Step advances the network by dt seconds with the die drawing iLoad
// amperes, and returns the resulting die voltage. dt must be small relative
// to the fastest resonance; StepCycle handles substepping for callers that
// work in CPU-cycle units.
//
// Integration is semi-implicit Euler with every resistive term handled
// implicitly. The package plane node is purely capacitive, so the only
// resistive coupling between branch currents is the bulk-cap ESR between
// iL0 and iL1 (a 2×2 block solved in closed form); iL2 and the bank
// branch are diagonally implicit. The bank branch is the stiff one — at
// κ→0 its ESR grows as ESR2/κ (tens of ohms for Proc0) and any explicit
// treatment would force dt below L/ESR — and the implicit diagonal makes
// it unconditionally stable.
func (n *Network) Step(dt, iLoad float64) float64 {
	if dt > n.dtMax {
		// Subdivide transparently: callers choose dt for their own
		// sampling needs, the integrator keeps itself stable.
		k := int(math.Ceil(dt / n.dtMax))
		sub := dt / float64(k)
		if sub != n.coefDt {
			n.refreshCoefs(sub)
		}
		return n.stepN(sub, iLoad, k)
	}
	if dt != n.coefDt {
		n.refreshCoefs(dt)
	}
	return n.stepN(dt, iLoad, 1)
}

// stepN is the fused kernel: k semi-implicit substeps at a dt whose
// coefficients are already cached (callers must refreshCoefs on a dt
// change). The entire network state is hoisted into locals once, iterated
// on in registers/stack slots for all k substeps, and written back once —
// no Params copy, no closures, no interface calls, and no per-substep
// stores through the receiver (which would otherwise force the compiler
// to re-load every field each substep). Each substep performs the exact
// arithmetic of the pre-fusion integrator in the exact order, so the
// trajectory is bit-identical (pinned by TestFusedKernelGolden).
func (n *Network) stepN(dt, iLoad float64, k int) float64 {
	// State, hoisted for the whole fused run.
	iL0, iL1, iL2, iLb := n.iL0, n.iL1, n.iL2, n.iLb
	vC1, vP, vCb, vC3 := n.vC1, n.vP, n.vCb, n.vC3
	iEMA, regBias, regErr := n.iEMA, n.regBias, n.regErr
	t := n.t
	v := n.vDie

	// Loop-invariant coefficients and parameters.
	cb0, cc0, ca1, cb1 := n.cb0, n.cc0, n.ca1, n.cb1
	cb2, cbb, det := n.cb2, n.cbb, n.det
	pL0, pL1, pL2 := n.pL0, n.pL1, n.pL2
	pC1, pCPl, pC3 := n.pC1, n.pCPl, n.pC3
	c2, esl2 := n.c2, n.esl2
	pESR3, pVNom, rTotal := n.pESR3, n.pVNom, n.rTotal
	ffA, kI, regP, regLimit := n.ffA, n.kI, n.regP, n.regLimit
	rippleAmp, rippleFreq := n.rippleAmp, n.rippleFreq
	hasFF, hasReg, hasRipple := n.hasFF, n.hasReg, n.hasRipple

	for ; k > 0; k-- {
		// Feedforward load-line compensation tracks delivered current
		// and pre-raises the setpoint by the matching series IR drop.
		ff := 0.0
		if hasFF {
			iEMA += ffA * (iLoad - iEMA)
			ff = iEMA * rTotal
		}
		vReg := pVNom + ff + regBias + regP*regErr

		d0 := iL0 + dt*(vReg-vC1)/pL0
		d1 := iL1 + dt*(vC1-vP)/pL1
		d2 := iL2 + dt*(vP-vC3+pESR3*iLoad)/pL2
		db := iLb + dt*(vP-vCb)/esl2

		// 2×2 ESR1-coupled block for (iL0, iL1), closed form.
		iL0, iL1 = (d0*cb1-cc0*d1)/det, (cb0*d1-ca1*d0)/det
		// Diagonal-implicit updates for the die path and bank branch.
		iL2 = d2 / cb2
		iLb = db / cbb

		iC1 := iL0 - iL1
		iP := iL1 - iL2 - iLb
		iC3 := iL2 - iLoad

		vC1 += dt * iC1 / pC1
		vP += dt * iP / pCPl
		vCb += dt * iLb / c2
		vC3 += dt * iC3 / pC3

		t += dt
		v = vC3 + pESR3*iC3
		// VRM PI control: steer the sensed die voltage back to VNom
		// within the loop bandwidth, cleaning up what feedforward
		// misses. The proportional term is computed on a slow-filtered
		// error so it damps the bulk-stage slosh without touching the
		// fast droop response the experiments measure.
		if hasReg {
			err := pVNom - v
			regBias += kI * err
			if regBias > regLimit {
				regBias = regLimit
			} else if regBias < -regLimit {
				regBias = -regLimit
			}
			// Error low-passed at the feedforward time constant.
			if hasFF {
				regErr += ffA * (err - regErr)
			} else {
				regErr = err
			}
		}
		// The VRM sawtooth is injected at the sense point: the ladder's
		// bulk stage would low-pass a source-side ripple far below what
		// the paper observes riding on the die voltage (Fig 11), because
		// physically the ripple is a current-mode artifact of the
		// switching regulator. It is a background overlay and does not
		// feed back into the network state.
		if hasRipple {
			phase := t * rippleFreq
			frac := phase - math.Floor(phase)
			v += rippleAmp * (2*frac - 1)
		}
	}

	// Write the evolved state back.
	n.iL0, n.iL1, n.iL2, n.iLb = iL0, iL1, iL2, iLb
	n.vC1, n.vP, n.vCb, n.vC3 = vC1, vP, vCb, vC3
	n.iEMA, n.regBias, n.regErr = iEMA, regBias, regErr
	n.t = t
	n.vDie = v
	n.lastILoad = iLoad
	return v
}

// StepCycle advances the network by one CPU clock cycle of length cycleTime
// seconds, integrating with `substeps` internal steps while the die draws
// iLoad amperes. It returns the die voltage at the end of the cycle.
//
// This is the per-cycle entry point of the chip simulator; the coefficient
// check runs once per cycle (not per substep), and the default substep
// count gets a fully unrolled call sequence.
func (n *Network) StepCycle(cycleTime, iLoad float64, substeps int) float64 {
	if substeps < 1 {
		substeps = 1
	}
	dt := cycleTime / float64(substeps)
	var v float64
	if dt > n.dtMax {
		// The requested substep exceeds the stability bound, so each
		// substep subdivides further — exactly as Step would — but the
		// whole cycle still runs as one fused kernel call over the
		// finer grid (the load is constant across the cycle, so k
		// stability splits of each of the `substeps` substeps are one
		// uniform run of k·substeps kernel steps).
		k := int(math.Ceil(dt / n.dtMax))
		sub := dt / float64(k)
		if sub != n.coefDt {
			n.refreshCoefs(sub)
		}
		v = n.stepN(sub, iLoad, k*substeps)
	} else {
		if dt != n.coefDt {
			n.refreshCoefs(dt)
		}
		// One fused kernel call for the whole cycle: state stays in
		// registers across every substep instead of round-tripping
		// through the struct once per substep.
		v = n.stepN(dt, iLoad, substeps)
	}
	if c := stepCounter.Load(); c != nil {
		c.Add(uint64(substeps))
	}
	return v
}

// MaxStableStep returns the largest dt (seconds) the semi-implicit
// integrator accepts without transparent subdivision — the stability bound
// of the explicit capacitor updates. Callers that control their own step
// grid (uarch.Config.Substeps) should divide the cycle into steps no
// larger than this, or every substep silently subdivides and doubles the
// integration work.
func (n *Network) MaxStableStep() float64 { return n.dtMax }

// V returns the most recently computed die voltage.
func (n *Network) V() float64 { return n.vDie }

// Time returns the absolute simulated time in seconds.
func (n *Network) Time() float64 { return n.t }

// Impedance returns the exact complex impedance seen by the die at
// frequency f (hertz), computed by reducing the ladder from the regulator
// side toward the die. This is the quantity the paper reconstructs with its
// current-draw software loop in Sec II-A (Fig 4).
func (n *Network) Impedance(f float64) complex128 {
	p := n.p
	jw := complex(0, 2*math.Pi*f)

	zc := func(c, esr float64) complex128 {
		return complex(esr, 0) + 1/(jw*complex(c, 0))
	}
	zs := func(r, l float64) complex128 {
		return complex(r, 0) + jw*complex(l, 0)
	}
	par := func(a, b complex128) complex128 { return a * b / (a + b) }

	// From the regulator (ideal source, zero impedance) toward the die.
	z := zs(p.R0, p.L0)          // regulator branch
	z = par(z, zc(p.C1, p.ESR1)) // bulk caps
	z = zs(p.R1, p.L1) + z       // board-to-package path
	z = par(z, zc(p.CPlane, 0))  // package plane spreading capacitance
	// Package capacitor bank: series ESR + ESL + C, all κ-scaled.
	zBank := complex(n.esr2, 0) + jw*complex(n.esl2, 0) + 1/(jw*complex(n.c2, 0))
	z = par(z, zBank)
	z = zs(p.R2, p.L2) + z          // package-to-die path
	return par(z, zc(p.C3, p.ESR3)) // on-die decap
}

// ImpedanceMag returns |Z(f)| in ohms.
func (n *Network) ImpedanceMag(f float64) float64 {
	return cmplx.Abs(n.Impedance(f))
}

// ImpedancePoint is one (frequency, |Z|) sample of an impedance profile.
type ImpedancePoint struct {
	Freq float64 // Hz
	Mag  float64 // ohms
}

// ImpedanceProfile samples |Z(f)| at the given frequencies.
func (n *Network) ImpedanceProfile(freqs []float64) []ImpedancePoint {
	out := make([]ImpedancePoint, len(freqs))
	for i, f := range freqs {
		out[i] = ImpedancePoint{Freq: f, Mag: n.ImpedanceMag(f)}
	}
	return out
}

// ResonancePeak scans |Z(f)| over [loHz, hiHz] with points log-spaced
// samples and returns the frequency and magnitude of the largest impedance.
func (n *Network) ResonancePeak(loHz, hiHz float64, points int) (freq, mag float64) {
	if points < 2 {
		points = 2
	}
	step := math.Pow(hiHz/loHz, 1/float64(points-1))
	f := loHz
	for i := 0; i < points; i++ {
		m := n.ImpedanceMag(f)
		if m > mag {
			mag, freq = m, f
		}
		f *= step
	}
	return freq, mag
}

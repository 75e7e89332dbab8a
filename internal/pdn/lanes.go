package pdn

import (
	"fmt"
	"math"
)

// MaxLanes is the largest number of networks StepCycleLanes steps in one
// kernel call: enough for every decap variant a campaign reads at once.
const MaxLanes = 4

// laneState is one lane's integrator state, hoisted out of its Network
// for the whole fused cycle exactly as stepN hoists it into locals.
type laneState struct {
	iL0, iL1, iL2, iLb    float64
	vC1, vP, vCb, vC3     float64
	iEMA, regBias, regErr float64
	t, v                  float64
}

// StepCycleLanes advances every network in nets by one CPU clock cycle
// while the die draws the same iLoad amperes on each, and writes network
// l's end-of-cycle die voltage to v[l]. It is the lane-batched form of
//
//	for l, n := range nets { v[l] = n.StepCycle(cycleTime, iLoad, substeps) }
//
// and returns exactly those values and leaves every network in exactly
// that state. Each lane runs stepN's substep arithmetic verbatim with its
// own coefficients; the lanes only interleave, so one lane's chain of
// dependent divisions overlaps another's instead of leaving the divider
// idle. On a grid where any lane would subdivide for stability, every
// lane takes its own StepCycle instead.
//
// nets must be distinct networks, at most MaxLanes of them, and v must
// hold at least len(nets) values. The step counter advances by
// len(nets)·substeps, one per network-substep, as StepCycle counts.
func StepCycleLanes(nets []*Network, cycleTime, iLoad float64, substeps int, v []float64) {
	if len(nets) > MaxLanes {
		panic(fmt.Sprintf("pdn: %d lanes exceed MaxLanes %d", len(nets), MaxLanes))
	}
	if substeps < 1 {
		substeps = 1
	}
	dt := cycleTime / float64(substeps)
	for _, n := range nets {
		if dt > n.dtMax {
			for l, n := range nets {
				v[l] = n.StepCycle(cycleTime, iLoad, substeps)
			}
			return
		}
	}
	for _, n := range nets {
		if dt != n.coefDt {
			n.refreshCoefs(dt)
		}
	}
	stepLanes(nets, dt, iLoad, substeps, v[:len(nets)])
	if c := stepCounter.Load(); c != nil {
		c.Add(uint64(len(nets) * substeps))
	}
}

// stepLanes is the lane kernel: k substeps at a dt whose coefficients
// every lane has cached. Substeps are the outer loop and lanes the inner
// one, so consecutive iterations belong to independent lanes. The body of
// the inner loop is stepN's substep verbatim — same operations, same
// order, every division kept a division — so each lane's trajectory is
// bit-identical to its own StepCycle (pinned by TestStepCycleLanesExact).
func stepLanes(nets []*Network, dt, iLoad float64, k int, out []float64) {
	var st [MaxLanes]laneState
	for l, n := range nets {
		st[l] = laneState{
			iL0: n.iL0, iL1: n.iL1, iL2: n.iL2, iLb: n.iLb,
			vC1: n.vC1, vP: n.vP, vCb: n.vCb, vC3: n.vC3,
			iEMA: n.iEMA, regBias: n.regBias, regErr: n.regErr,
			t: n.t, v: n.vDie,
		}
	}
	lanes := st[:len(nets)]

	for ; k > 0; k-- {
		for l := range lanes {
			n, s := nets[l], &lanes[l]
			iL0, iL1, iL2, iLb := s.iL0, s.iL1, s.iL2, s.iLb
			vC1, vP, vCb, vC3 := s.vC1, s.vP, s.vCb, s.vC3
			iEMA, regBias, regErr := s.iEMA, s.regBias, s.regErr
			t := s.t
			var v float64

			ff := 0.0
			if n.hasFF {
				iEMA += n.ffA * (iLoad - iEMA)
				ff = iEMA * n.rTotal
			}
			vReg := n.pVNom + ff + regBias + n.regP*regErr

			d0 := iL0 + dt*(vReg-vC1)/n.pL0
			d1 := iL1 + dt*(vC1-vP)/n.pL1
			d2 := iL2 + dt*(vP-vC3+n.pESR3*iLoad)/n.pL2
			db := iLb + dt*(vP-vCb)/n.esl2

			iL0, iL1 = (d0*n.cb1-n.cc0*d1)/n.det, (n.cb0*d1-n.ca1*d0)/n.det
			iL2 = d2 / n.cb2
			iLb = db / n.cbb

			iC1 := iL0 - iL1
			iP := iL1 - iL2 - iLb
			iC3 := iL2 - iLoad

			vC1 += dt * iC1 / n.pC1
			vP += dt * iP / n.pCPl
			vCb += dt * iLb / n.c2
			vC3 += dt * iC3 / n.pC3

			t += dt
			v = vC3 + n.pESR3*iC3
			if n.hasReg {
				err := n.pVNom - v
				regBias += n.kI * err
				if regBias > n.regLimit {
					regBias = n.regLimit
				} else if regBias < -n.regLimit {
					regBias = -n.regLimit
				}
				if n.hasFF {
					regErr += n.ffA * (err - regErr)
				} else {
					regErr = err
				}
			}
			if n.hasRipple {
				phase := t * n.rippleFreq
				frac := phase - math.Floor(phase)
				v += n.rippleAmp * (2*frac - 1)
			}

			s.iL0, s.iL1, s.iL2, s.iLb = iL0, iL1, iL2, iLb
			s.vC1, s.vP, s.vCb, s.vC3 = vC1, vP, vCb, vC3
			s.iEMA, s.regBias, s.regErr = iEMA, regBias, regErr
			s.t, s.v = t, v
		}
	}

	for l, n := range nets {
		s := &lanes[l]
		n.iL0, n.iL1, n.iL2, n.iLb = s.iL0, s.iL1, s.iL2, s.iLb
		n.vC1, n.vP, n.vCb, n.vC3 = s.vC1, s.vP, s.vCb, s.vC3
		n.iEMA, n.regBias, n.regErr = s.iEMA, s.regBias, s.regErr
		n.t = s.t
		n.vDie = s.v
		n.lastILoad = iLoad
		out[l] = s.v
	}
}

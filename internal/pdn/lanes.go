package pdn

import (
	"fmt"
	"math"
)

// MaxLanes is the largest number of networks StepCycleLanes steps in one
// kernel call: enough for every decap variant a campaign reads at once.
const MaxLanes = 4

// StepCycleLanes advances every network in nets by one CPU clock cycle
// while the die draws the same iLoad amperes on each, and writes network
// l's end-of-cycle die voltage to v[l]. It is the lane-batched form of
//
//	for l, n := range nets { v[l] = n.StepCycle(cycleTime, iLoad, substeps) }
//
// and returns exactly those values and leaves every network in exactly
// that state: StepCycle is this call with one lane. The lanes share one
// kernel call, so one lane's chain of dependent divisions overlaps
// another's instead of leaving the divider idle.
//
// nets must be distinct networks, at most MaxLanes of them, and v must
// hold at least len(nets) values. Each network counts substeps steps.
func StepCycleLanes(nets []*Network, cycleTime, iLoad float64, substeps int, v []float64) {
	if len(nets) > MaxLanes {
		panic(fmt.Sprintf("pdn: %d lanes exceed MaxLanes %d", len(nets), MaxLanes))
	}
	if substeps < 1 {
		substeps = 1
	}
	dt := cycleTime / float64(substeps)
	split := false
	for _, n := range nets {
		n.steps += uint64(substeps)
		split = split || dt > n.dtMax
	}
	if split {
		// Some lane's substep exceeds its stability bound, so the lanes'
		// grids differ. Each lane runs the kernel alone on its own grid:
		// the load is constant across the cycle, so k stability splits of
		// each of the substeps are one uniform run of k·substeps steps,
		// exactly as Step would take them one substep at a time.
		for l, n := range nets {
			sub, k := n.grid(dt)
			stepLanes(nets[l:l+1], sub, iLoad, k*substeps, v[l:l+1])
		}
		return
	}
	for _, n := range nets {
		if dt != n.coefDt {
			n.refreshCoefs(dt)
		}
	}
	stepLanes(nets, dt, iLoad, substeps, v[:len(nets)])
}

// stepLanes is the integrator kernel: k semi-implicit substeps of every
// lane at a dt whose coefficients each lane has cached (see Step for the
// integration scheme). Substeps are the outer loop and lanes the inner
// one, so consecutive iterations belong to independent lanes. Each lane's
// state is read from and written back to its own Network on every
// substep, so nothing is staged in or out around the loop. Each substep
// performs the exact arithmetic of the pre-fusion integrator in the exact
// order, every division kept a division, so the trajectory is
// bit-identical (pinned by TestFusedKernelGolden and, against a
// test-only copy of the single-network kernel, TestStepCycleLanesExact).
func stepLanes(nets []*Network, dt, iLoad float64, k int, out []float64) {
	for ; k > 0; k-- {
		for _, n := range nets {
			iL0, iL1, iL2, iLb := n.iL0, n.iL1, n.iL2, n.iLb
			vC1, vP, vCb, vC3 := n.vC1, n.vP, n.vCb, n.vC3
			iEMA, regBias, regErr := n.iEMA, n.regBias, n.regErr
			t := n.t
			var v float64

			// Feedforward load-line compensation tracks delivered current
			// and pre-raises the setpoint by the matching series IR drop.
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

			// 2×2 ESR1-coupled block for (iL0, iL1), closed form.
			iL0, iL1 = (d0*n.cb1-n.cc0*d1)/n.det, (n.cb0*d1-n.ca1*d0)/n.det
			// Diagonal-implicit updates for the die path and bank branch.
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
			// VRM PI control: steer the sensed die voltage back to VNom
			// within the loop bandwidth, cleaning up what feedforward
			// misses. The proportional term is computed on a slow-filtered
			// error so it damps the bulk-stage slosh without touching the
			// fast droop response the experiments measure.
			if n.hasReg {
				err := n.pVNom - v
				regBias += n.kI * err
				if regBias > n.regLimit {
					regBias = n.regLimit
				} else if regBias < -n.regLimit {
					regBias = -n.regLimit
				}
				// Error low-passed at the feedforward time constant.
				if n.hasFF {
					regErr += n.ffA * (err - regErr)
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
			if n.hasRipple {
				phase := t * n.rippleFreq
				frac := phase - math.Floor(phase)
				v += n.rippleAmp * (2*frac - 1)
			}

			n.iL0, n.iL1, n.iL2, n.iLb = iL0, iL1, iL2, iLb
			n.vC1, n.vP, n.vCb, n.vC3 = vC1, vP, vCb, vC3
			n.iEMA, n.regBias, n.regErr = iEMA, regBias, regErr
			n.t, n.vDie = t, v
		}
	}
	for l, n := range nets {
		out[l] = n.vDie
	}
}

package pdn

import "math"

// refStepCycle is the single-network integrator the lane kernel replaced,
// kept as an independent reference for TestLanesExact: the whole
// cycle, including any stability subdivision, is one refStepN call on a
// uniform grid, and it counts substeps steps.
func (n *Network) refStepCycle(cycleTime, iLoad float64, substeps int) float64 {
	if substeps < 1 {
		substeps = 1
	}
	dt := cycleTime / float64(substeps)
	var v float64
	if dt > n.dtMax {
		k := int(math.Ceil(dt / n.dtMax))
		sub := dt / float64(k)
		if sub != n.coefDt {
			n.refreshCoefs(sub)
		}
		v = n.refStepN(sub, iLoad, k*substeps)
	} else {
		if dt != n.coefDt {
			n.refreshCoefs(dt)
		}
		v = n.refStepN(dt, iLoad, substeps)
	}
	n.steps += uint64(substeps)
	return v
}

// refStepN runs k substeps at a dt whose coefficients are cached. It
// hoists the network state into locals once, iterates on them for all k
// substeps and writes them back once, where the lane kernel reads and
// writes each lane's Network on every substep; the substep arithmetic is
// the same operations in the same order.
func (n *Network) refStepN(dt, iLoad float64, k int) float64 {
	iL0, iL1, iL2, iLb := n.iL0, n.iL1, n.iL2, n.iLb
	vC1, vP, vCb, vC3 := n.vC1, n.vP, n.vCb, n.vC3
	iEMA, regBias, regErr := n.iEMA, n.regBias, n.regErr
	t := n.t
	v := n.vDie

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
		ff := 0.0
		if hasFF {
			iEMA += float64(ffA * (iLoad - iEMA))
			ff = float64(iEMA * rTotal)
		}
		vReg := pVNom + ff + regBias + float64(regP*regErr)

		d0 := iL0 + dt*(vReg-vC1)/pL0
		d1 := iL1 + dt*(vC1-vP)/pL1
		d2 := iL2 + dt*(vP-vC3+float64(pESR3*iLoad))/pL2
		db := iLb + dt*(vP-vCb)/esl2

		iL0, iL1 = (float64(d0*cb1)-float64(cc0*d1))/det, (float64(cb0*d1)-float64(ca1*d0))/det
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
		v = vC3 + float64(pESR3*iC3)
		if hasReg {
			err := pVNom - v
			regBias += float64(kI * err)
			if regBias > regLimit {
				regBias = regLimit
			} else if regBias < -regLimit {
				regBias = -regLimit
			}
			if hasFF {
				regErr += float64(ffA * (err - regErr))
			} else {
				regErr = err
			}
		}
		if hasRipple {
			phase := float64(t * rippleFreq)
			frac := phase - math.Floor(phase)
			v += float64(rippleAmp * (float64(2*frac) - 1))
		}
	}

	n.iL0, n.iL1, n.iL2, n.iLb = iL0, iL1, iL2, iLb
	n.vC1, n.vP, n.vCb, n.vC3 = vC1, vP, vCb, vC3
	n.iEMA, n.regBias, n.regErr = iEMA, regBias, regErr
	n.t = t
	n.vDie = v
	return v
}

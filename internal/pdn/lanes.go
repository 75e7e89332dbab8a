package pdn

import (
	"fmt"
	"math"
)

// MaxLanes is the number of networks one packed kernel call steps: the
// four float64 lanes of an AVX register. It also bounds the decap
// variants a population builds on one chip run and the runs a lockstep
// group holds.
const MaxLanes = 4

// Lanes steps a fixed set of networks together, one cycle per Step, for a
// whole run. Each network draws one of the loads passed to Step, and
// several networks may share a load (the decap variants of one chip run),
// so every network sees exactly the current its own StepCycle would. The
// result is the lane-batched form of
//
//	for i, n := range nets { v[i] = n.StepCycle(cycleTime, iLoad[load[i]], substeps) }
//
// bit for bit, returned voltages and final state alike.
//
// On amd64 with AVX, Lanes packs the networks that regulate with both
// feedforward and an integral loop, MaxLanes at a time, into a kernel
// that keeps the four networks' state in YMM registers across the
// substeps: each lane performs the scalar substep's operations in the
// scalar order, with every division a VDIVPD, which rounds each lane
// exactly as DIVSD does. Lanes holds those networks' state lane-major in
// its packs while the run lasts and writes it back in Close. Every other
// network (no AVX, a network without feedforward or integral regulation,
// a grid that subdivides for stability, or a lone packable network left
// over, which the scalar kernel steps faster than a padded pack) steps
// in place on the scalar kernel, one call per shared load.
type Lanes struct {
	nets     []*Network
	v        []float64 // each network's die voltage after the last Step
	substeps int
	dt       float64
	cycles   uint64
	packs    []pack
	scalar   []scalarCall
}

// scalarCall is one scalar kernel call per cycle: networks that share a
// load and a grid, stepped in place on their own Networks.
type scalarCall struct {
	nets []*Network
	idx  []int     // the networks' indexes in Lanes.nets
	v    []float64 // the kernel's output, scattered to Lanes.v
	load int
	dt   float64
	k    int
}

// The rows of a pack: lane l of row r is rows[r][l]. The kernel keeps the
// state rows in registers across its substeps, reads the load and the
// coefficient rows from memory, and writes the state rows back when it
// returns. lanes_amd64.s addresses the rows through these constants.
const (
	rIL0 = iota // state
	rIL1
	rIL2
	rILb
	rVC1
	rVP
	rVCb
	rVC3
	rIEMA
	rBias
	rErr
	rT
	rV // the last substep's die voltage, before the ripple
	rLoad
	rL0 // coefficients
	rL1
	rL2
	rC1
	rCPl
	rC3
	rESR3
	rVNom
	rRTotal
	rRegP
	rLimit
	rNegLimit
	rESL2
	rC2
	rB0
	rC0
	rA1
	rB1
	rB2
	rBb
	rDet
	rFFA
	rKI
	nRows
)

// packRows is one pack's state and coefficients, lane-major.
type packRows [nRows][MaxLanes]float64

// pack is up to MaxLanes networks stepped by one packed kernel call.
// Lanes past real pad the pack: each copies lane 0 (its network, load,
// state and coefficients), and its results are discarded.
type pack struct {
	rows packRows
	real int
	net  [MaxLanes]int // index in Lanes.nets
	load [MaxLanes]int
}

// NewLanes returns the Lanes that steps nets, network i on load load[i],
// over cycles of cycleTime seconds integrated in substeps substeps. The
// networks must be distinct. Until Close, a packed network's Network
// holds its state from before NewLanes: step them only through the
// Lanes, and read their voltages from Step.
func NewLanes(nets []*Network, load []int, cycleTime float64, substeps int) *Lanes {
	if len(load) != len(nets) {
		panic(fmt.Sprintf("pdn: %d loads for %d networks", len(load), len(nets)))
	}
	if substeps < 1 {
		substeps = 1
	}
	ls := &Lanes{
		nets:     nets,
		v:        make([]float64, len(nets)),
		substeps: substeps,
		dt:       cycleTime / float64(substeps),
	}
	var packable []int
	for i, n := range nets {
		ls.v[i] = n.vDie
		sub, k := n.grid(ls.dt)
		switch {
		case k > 1:
			// The load is constant across the cycle, so k stability
			// splits of each substep are one uniform run of k·substeps
			// steps, exactly as Step would take them one substep at a
			// time; the network's grid is its own, so it steps alone.
			ls.scalar = append(ls.scalar, scalarCall{
				nets: []*Network{n}, idx: []int{i}, v: make([]float64, 1),
				load: load[i], dt: sub, k: k * substeps,
			})
		case useAVX && n.hasFF && n.hasReg:
			packable = append(packable, i)
		default:
			ls.addShared(i, load[i])
		}
	}
	if len(packable)%MaxLanes == 1 {
		ls.addShared(packable[len(packable)-1], load[packable[len(packable)-1]])
		packable = packable[:len(packable)-1]
	}
	ls.packs = make([]pack, (len(packable)+MaxLanes-1)/MaxLanes)
	for j := range ls.packs {
		p := &ls.packs[j]
		lanes := packable[j*MaxLanes : min(len(packable), (j+1)*MaxLanes)]
		p.real = len(lanes)
		for l := range p.net {
			i := lanes[0]
			if l < len(lanes) {
				i = lanes[l]
			}
			p.net[l], p.load[l] = i, load[i]
			p.set(l, nets[i])
		}
	}
	return ls
}

// addShared adds network i to the scalar call on its load at the run's
// grid, starting one when it is the load's first.
func (ls *Lanes) addShared(i, load int) {
	for c := range ls.scalar {
		if s := &ls.scalar[c]; s.load == load && s.dt == ls.dt && s.k == ls.substeps {
			s.nets, s.idx, s.v = append(s.nets, ls.nets[i]), append(s.idx, i), append(s.v, 0)
			return
		}
	}
	ls.scalar = append(ls.scalar, scalarCall{
		nets: []*Network{ls.nets[i]}, idx: []int{i}, v: make([]float64, 1),
		load: load, dt: ls.dt, k: ls.substeps,
	})
}

// Step advances every network by one cycle, network i drawing
// iLoad[load[i]] amperes, and returns the networks' end-of-cycle die
// voltages, indexed like the networks. The slice is reused by the next
// Step.
func (ls *Lanes) Step(iLoad []float64) []float64 {
	ls.cycles++
	for j := range ls.packs {
		p := &ls.packs[j]
		for l, i := range p.load {
			p.rows[rLoad][l] = iLoad[i]
		}
		stepPack(&p.rows, ls.dt, ls.substeps)
		for l := 0; l < p.real; l++ {
			v := p.rows[rV][l]
			if n := ls.nets[p.net[l]]; n.hasRipple {
				v = n.rippled(v, p.rows[rT][l])
				p.rows[rV][l] = v
			}
			ls.v[p.net[l]] = v
		}
	}
	for c := range ls.scalar {
		s := &ls.scalar[c]
		stepLanes(s.nets, s.dt, iLoad[s.load], s.k, s.v)
		for l, i := range s.idx {
			ls.v[i] = s.v[l]
		}
	}
	return ls.v
}

// Close writes every packed network's state back to its Network and
// counts the substeps each network integrated since NewLanes, substeps
// per cycle, as StepCycle would. ls must not be stepped afterwards.
func (ls *Lanes) Close() {
	for j := range ls.packs {
		p := &ls.packs[j]
		for l := 0; l < p.real; l++ {
			p.get(l, ls.nets[p.net[l]])
		}
	}
	for _, n := range ls.nets {
		n.steps += ls.cycles * uint64(ls.substeps)
	}
	ls.cycles = 0
}

// Group steps the networks of a lockstep group whose runs drive one
// network each, on loads of their own, and drop out as they finish: the
// closed loops (failsafe.RunGroup, sched.RunOnline) and
// core.MeasureLoopImpedances. Its zero value is not usable; build it with
// NewGroup.
type Group struct {
	lanes     *Lanes
	cycleTime float64
	substeps  int
}

// NewGroup returns the Group that steps its networks over cycles of
// cycleTime seconds integrated in substeps substeps.
func NewGroup(cycleTime float64, substeps int) *Group {
	return &Group{cycleTime: cycleTime, substeps: substeps}
}

// Step advances nets, network i drawing iLoad[i], by one cycle and returns
// their die voltages, as Lanes.Step does. nets holds the networks still
// running: the last Step's, or a subsequence of them in the same order.
// When one has dropped out, Step closes the Lanes it stepped them with,
// which writes their state back and counts their steps, and steps the
// rest through a new one on its own copy of nets, so the caller may
// reuse the slice.
func (g *Group) Step(nets []*Network, iLoad []float64) []float64 {
	if g.lanes == nil || len(nets) != len(g.lanes.nets) {
		g.Close()
		load := make([]int, len(nets))
		for i := range load {
			load[i] = i
		}
		g.lanes = NewLanes(append([]*Network(nil), nets...), load, g.cycleTime, g.substeps)
	}
	return g.lanes.Step(iLoad)
}

// Close writes every network's state back and counts its steps
// (Lanes.Close). Call it before the networks are read or publish their
// steps.
func (g *Group) Close() {
	if g.lanes != nil {
		g.lanes.Close()
		g.lanes = nil
	}
}

// set loads network n's state and coefficients into lane l.
func (p *pack) set(l int, n *Network) {
	r := &p.rows
	r[rIL0][l], r[rIL1][l], r[rIL2][l], r[rILb][l] = n.iL0, n.iL1, n.iL2, n.iLb
	r[rVC1][l], r[rVP][l], r[rVCb][l], r[rVC3][l] = n.vC1, n.vP, n.vCb, n.vC3
	r[rIEMA][l], r[rBias][l], r[rErr][l] = n.iEMA, n.regBias, n.regErr
	r[rT][l], r[rV][l] = n.t, n.vDie
	r[rL0][l], r[rL1][l], r[rL2][l] = n.pL0, n.pL1, n.pL2
	r[rC1][l], r[rCPl][l], r[rC3][l] = n.pC1, n.pCPl, n.pC3
	r[rESR3][l], r[rVNom][l], r[rRTotal][l], r[rRegP][l] = n.pESR3, n.pVNom, n.rTotal, n.regP
	r[rLimit][l], r[rNegLimit][l] = n.regLimit, -n.regLimit
	r[rESL2][l], r[rC2][l] = n.esl2, n.c2
	r[rB0][l], r[rC0][l], r[rA1][l], r[rB1][l] = n.cb0, n.cc0, n.ca1, n.cb1
	r[rB2][l], r[rBb][l], r[rDet][l] = n.cb2, n.cbb, n.det
	r[rFFA][l], r[rKI][l] = n.ffA, n.kI
}

// get stores lane l's state into network n.
func (p *pack) get(l int, n *Network) {
	r := &p.rows
	n.iL0, n.iL1, n.iL2, n.iLb = r[rIL0][l], r[rIL1][l], r[rIL2][l], r[rILb][l]
	n.vC1, n.vP, n.vCb, n.vC3 = r[rVC1][l], r[rVP][l], r[rVCb][l], r[rVC3][l]
	n.iEMA, n.regBias, n.regErr = r[rIEMA][l], r[rBias][l], r[rErr][l]
	n.t, n.vDie = r[rT][l], r[rV][l]
}

// rippled adds the VRM sawtooth at time t to the die voltage v. The
// ripple is injected at the sense point: the ladder's bulk stage would
// low-pass a source-side ripple far below what the paper observes riding
// on the die voltage (Fig 11), because physically the ripple is a
// current-mode artifact of the switching regulator. It is a background
// overlay that nothing in the network reads (the regulator reads the
// voltage before the ripple), so a kernel call evaluates it once, for
// the voltage it returns.
func (n *Network) rippled(v, t float64) float64 {
	phase := float64(t * n.rippleFreq)
	frac := phase - math.Floor(phase)
	return v + float64(n.rippleAmp*(float64(2*frac)-1))
}

// stepLanes is the scalar integrator kernel: k semi-implicit substeps of
// every lane at a dt whose coefficients each lane has cached, all lanes
// drawing iLoad (see Step for the integration scheme). Substeps are the
// outer loop and lanes the inner one, so consecutive iterations belong to
// independent lanes. Each lane's state is read from and written back to
// its own Network on every substep, so nothing is staged in or out
// around the loop. Each substep performs the exact arithmetic of the
// pre-fusion integrator in the exact order, every division kept a
// division and every product that feeds a sum rounded on its own (a
// float64 conversion is the Go spec's fusion barrier), so the trajectory
// is bit-identical on every architecture (pinned by TestFusedKernelGolden
// and, against a test-only copy of the single-network kernel,
// TestLanesExact). Only the last substep's die voltage is read, so only
// the last substep adds the ripple.
func stepLanes(nets []*Network, dt, iLoad float64, k int, out []float64) {
	for ; k > 0; k-- {
		for _, n := range nets {
			iL0, iL1, iL2, iLb := n.iL0, n.iL1, n.iL2, n.iLb
			vC1, vP, vCb, vC3 := n.vC1, n.vP, n.vCb, n.vC3
			iEMA, regBias, regErr := n.iEMA, n.regBias, n.regErr
			t := n.t

			// Feedforward load-line compensation tracks delivered current
			// and pre-raises the setpoint by the matching series IR drop.
			ff := 0.0
			if n.hasFF {
				iEMA += float64(n.ffA * (iLoad - iEMA))
				ff = float64(iEMA * n.rTotal)
			}
			vReg := n.pVNom + ff + regBias + float64(n.regP*regErr)

			d0 := iL0 + dt*(vReg-vC1)/n.pL0
			d1 := iL1 + dt*(vC1-vP)/n.pL1
			d2 := iL2 + dt*(vP-vC3+float64(n.pESR3*iLoad))/n.pL2
			db := iLb + dt*(vP-vCb)/n.esl2

			// 2×2 ESR1-coupled block for (iL0, iL1), closed form.
			iL0, iL1 = (float64(d0*n.cb1)-float64(n.cc0*d1))/n.det, (float64(n.cb0*d1)-float64(n.ca1*d0))/n.det
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
			v := vC3 + float64(n.pESR3*iC3)
			// VRM PI control: steer the sensed die voltage back to VNom
			// within the loop bandwidth, cleaning up what feedforward
			// misses. The proportional term is computed on a slow-filtered
			// error so it damps the bulk-stage slosh without touching the
			// fast droop response the experiments measure.
			if n.hasReg {
				err := n.pVNom - v
				regBias += float64(n.kI * err)
				if regBias > n.regLimit {
					regBias = n.regLimit
				} else if regBias < -n.regLimit {
					regBias = -n.regLimit
				}
				// Error low-passed at the feedforward time constant.
				if n.hasFF {
					regErr += float64(n.ffA * (err - regErr))
				} else {
					regErr = err
				}
			}
			// Only the last substep's die voltage is read, so only it
			// carries the ripple.
			if k == 1 && n.hasRipple {
				v = n.rippled(v, t)
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

package pdn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"voltsmooth/internal/telemetry"
)

const laneCycle = 1 / 1.86e9

// laneVariants are the decap processors the lane tests cycle through:
// network i runs laneVariants[i%4].
var laneVariants = []ProcVariant{Proc100, Proc25, Proc3, Proc50}

// laneParams returns network i's parameters. With mixed set, every sixth
// network from the second on regulates without feedforward and every
// sixth from the fourth on without its integral loop, so neither can be
// packed, and every sixth from the sixth on has no ripple, which a pack
// evaluates per lane.
func laneParams(i int, mixed bool) Params {
	p := Core2Duo().WithCapFraction(laneVariants[i%len(laneVariants)].CapFraction)
	if mixed {
		switch i % 6 {
		case 1:
			p.RegFeedforwardTau = 0
		case 3:
			p.RegIntegralHz = 0
		case 5:
			p.RippleAmp = 0
		}
	}
	return p
}

// lanePair returns n networks for a Lanes and n reference networks,
// pairwise identical, all settled at 20 A.
func lanePair(n int, mixed bool) (lanes, refs []*Network) {
	for i := 0; i < n; i++ {
		lanes = append(lanes, NewAtLoad(laneParams(i, mixed), 20))
		refs = append(refs, NewAtLoad(laneParams(i, mixed), 20))
	}
	return lanes, refs
}

// sameState reports whether a and b hold the same bits in every field,
// so a NaN state compares equal to the same NaN.
func sameState(a, b *Network) bool {
	return sameBits(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem())
}

func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic("pdn: sameBits cannot compare " + a.Kind().String())
}

// checkLanes steps n networks, network i on load i%loads, through one
// Lanes and n reference networks through refStepCycle, the
// single-network integrator kept as a test-only copy, with load(c, j) as
// load j's current in cycle c. It fails on the first returned voltage
// whose bits differ from its reference's, and on any network whose whole
// state or step count differs after Close. It returns the references.
func checkLanes(t *testing.T, name string, n, loads int, mixed bool, cycles, substeps int,
	load func(c, j int) float64) []*Network {
	t.Helper()
	nets, refs := lanePair(n, mixed)
	which := make([]int, n)
	for i := range which {
		which[i] = i % loads
	}
	ls := NewLanes(nets, which, laneCycle, substeps)
	iLoad := make([]float64, loads)
	for c := 0; c < cycles; c++ {
		for j := range iLoad {
			iLoad[j] = load(c, j)
		}
		v := ls.Step(iLoad)
		for i, ref := range refs {
			want := ref.refStepCycle(laneCycle, iLoad[which[i]], substeps)
			if math.Float64bits(v[i]) != math.Float64bits(want) {
				t.Fatalf("%s: cycle %d network %d (%s): got %v want %v",
					name, c, i, laneVariants[i%len(laneVariants)].Name, v[i], want)
			}
		}
	}
	ls.Close()
	for i := range nets {
		if !sameState(nets[i], refs[i]) {
			t.Fatalf("%s: network %d's state after Close differs from its reference's", name, i)
		}
	}
	return refs
}

// goldenLoad is goldenTrace's load sequence, shifted per load.
func goldenLoad(c, j int) float64 { return traceLoad(c + 3*j) }

// withScalarKernel runs fn with the packed kernel forced off.
func withScalarKernel(fn func()) {
	saved := useAVX
	useAVX = false
	defer func() { useAVX = saved }()
	fn()
}

// laneShapes are the network and load counts the exactness tests cover:
// a lone network, the three decap variants of one chip run, a full pack
// with one network left over, and lockstep groups whose networks mix
// regulation without feedforward or an integral loop, and without ripple.
var laneShapes = []struct {
	n, loads int
	mixed    bool
}{{1, 1, false}, {3, 1, false}, {5, 2, false}, {12, 3, true}, {16, 4, true}}

// TestLanesExact pins Lanes to the single-network reference integrator
// bit for bit, with the packed kernel on (where the CPU has AVX) and
// forced off: random per-load currents at the production substep count,
// goldenTrace's load sequence on the same grid, and a grid on which the
// networks subdivide every substep for stability (6 substeps).
func TestLanesExact(t *testing.T) {
	p := Core2Duo()
	if !(p.RegFeedforwardTau > 0 && p.RegIntegralHz > 0 && p.RippleAmp != 0) {
		t.Fatal("Core2Duo no longer enables feedforward, regulation and ripple; the lane test would not cover them")
	}
	cycles := 200_000
	if testing.Short() {
		cycles = 20_000
	}
	run := func(kernel string) {
		for _, sh := range laneShapes {
			name := fmt.Sprintf("%s n=%d loads=%d", kernel, sh.n, sh.loads)
			rng := rand.New(rand.NewSource(int64(sh.n)))
			random := func(int, int) float64 { return 4 + 40*rng.Float64() }
			checkLanes(t, name+" random", sh.n, sh.loads, sh.mixed, cycles, 7, random)
			checkLanes(t, name+" golden", sh.n, sh.loads, sh.mixed, 2_000, 7, goldenLoad)
			checkLanes(t, name+" subdividing", sh.n, sh.loads, sh.mixed, 2_000, 6, goldenLoad)
		}
	}
	run("packed")
	withScalarKernel(func() { run("scalar") })
}

// TestLanesClampAndNaN drives the regulator bias into both clamp limits
// and then feeds one load a NaN, on the packed kernel and forced off.
// The packed clamp must saturate exactly where the scalar branches do,
// and keep a NaN bias NaN wherever they keep it, while the networks on
// the other loads step on undisturbed.
func TestLanesClampAndNaN(t *testing.T) {
	const high, low, nanAt, cycles = 2_000, 6_000, 10_000, 12_000
	load := func(c, j int) float64 {
		switch {
		case c >= nanAt && j == 1:
			return math.NaN()
		case c%low < high:
			return 3_000 // a deep droop: the bias rises to +regLimit
		default:
			return -3_000 // a surge: the bias falls to -regLimit
		}
	}
	run := func(kernel string) {
		refs := checkLanes(t, kernel, 12, 2, true, cycles, 7, load)
		var sawHigh, sawLow, sawNaN, sawFinite bool
		for i, n := range refs {
			if !n.hasReg {
				continue
			}
			switch {
			case math.IsNaN(n.regBias):
				sawNaN = true
			case i%2 == 0:
				sawFinite = true
			}
		}
		// Replay the clamp phases on a reference alone to see both limits hit.
		n := NewAtLoad(laneParams(0, false), 20)
		for c := 0; c < nanAt; c++ {
			n.refStepCycle(laneCycle, load(c, 0), 7)
			sawHigh = sawHigh || n.regBias == n.regLimit
			sawLow = sawLow || n.regBias == -n.regLimit
		}
		if !sawHigh || !sawLow || !sawNaN || !sawFinite {
			t.Fatalf("%s: clamp high %v, clamp low %v, NaN bias %v, finite bias on the other load %v; want all",
				kernel, sawHigh, sawLow, sawNaN, sawFinite)
		}
	}
	run("packed")
	withScalarKernel(func() { run("scalar") })
}

// TestLanesCalls pins which kernel steps which network: with the packed
// kernel forced off, one scalar call per shared load (the corpus's
// three-variant run makes the one call it always made); with AVX, packs
// of up to MaxLanes packable networks, a lone leftover on the scalar
// kernel, and networks the pack cannot step (no feedforward, no integral
// loop, a subdividing grid) each on the scalar call of their load.
func TestLanesCalls(t *testing.T) {
	shape := func(ls *Lanes) (packs []int, calls [][]int) {
		for _, p := range ls.packs {
			packs = append(packs, p.real)
		}
		for _, c := range ls.scalar {
			calls = append(calls, c.idx)
		}
		return packs, calls
	}
	nets := func(n int, mixed bool) []*Network {
		lanes, _ := lanePair(n, mixed)
		return lanes
	}
	withScalarKernel(func() {
		packs, calls := shape(NewLanes(nets(3, false), []int{0, 0, 0}, laneCycle, 7))
		if len(packs) != 0 || !reflect.DeepEqual(calls, [][]int{{0, 1, 2}}) {
			t.Errorf("scalar kernel, three networks on one load: packs %v, calls %v; want none and one call", packs, calls)
		}
		packs, calls = shape(NewLanes(nets(5, false), []int{0, 1, 0, 1, 0}, laneCycle, 7))
		if len(packs) != 0 || !reflect.DeepEqual(calls, [][]int{{0, 2, 4}, {1, 3}}) {
			t.Errorf("scalar kernel, two loads: packs %v, calls %v; want one call per load", packs, calls)
		}
	})
	if !useAVX {
		t.Skip("no AVX: every network steps on the scalar kernel")
	}
	packs, calls := shape(NewLanes(nets(5, false), []int{0, 0, 0, 1, 1}, laneCycle, 7))
	if !reflect.DeepEqual(packs, []int{4}) || !reflect.DeepEqual(calls, [][]int{{4}}) {
		t.Errorf("five packable networks: packs %v, calls %v; want one full pack and the leftover scalar", packs, calls)
	}
	packs, calls = shape(NewLanes(nets(7, true), []int{0, 0, 0, 0, 1, 1, 1}, laneCycle, 7))
	if !reflect.DeepEqual(packs, []int{4}) || !reflect.DeepEqual(calls, [][]int{{1, 3}, {6}}) {
		t.Errorf("mixed networks: packs %v, calls %v; want four packed, the unpackable pair on load 0 and the leftover on load 1",
			packs, calls)
	}
	packs, calls = shape(NewLanes(nets(3, false), []int{0, 0, 0}, laneCycle, 6))
	if len(packs) != 0 || !reflect.DeepEqual(calls, [][]int{{0}, {1}, {2}}) {
		t.Errorf("subdividing grid: packs %v, calls %v; want each network alone on its own grid", packs, calls)
	}
}

// TestLanesCountsNetworkSteps pins the step counter: every network of a
// Lanes counts substeps steps per cycle, packed, scalar or subdividing,
// as StepCycle would, once its networks publish.
func TestLanesCountsNetworkSteps(t *testing.T) {
	const cycles = 5
	for _, substeps := range []int{7, 6} {
		nets, _ := lanePair(6, true)
		reg := telemetry.NewRegistry()
		uninstall := telemetry.Install(reg, nil)
		ls := NewLanes(nets, []int{0, 0, 0, 1, 1, 1}, laneCycle, substeps)
		for c := 0; c < cycles; c++ {
			ls.Step([]float64{24, 30})
		}
		ls.Close()
		for _, n := range nets {
			n.PublishSteps()
		}
		uninstall()
		if got, want := reg.Counter("pdn.steps").Load(), uint64(6*cycles*substeps); got != want {
			t.Errorf("substeps=%d: counted %d steps, want %d", substeps, got, want)
		}
	}
}

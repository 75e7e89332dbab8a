package pdn

import (
	"math"
	"math/rand"
	"testing"

	"voltsmooth/internal/telemetry"
)

// laneVariants are the decap processors the lane tests step side by
// side; lane l of a K-lane call runs laneVariants[l].
var laneVariants = []ProcVariant{Proc100, Proc25, Proc3, Proc50}

// lanePair returns K lane networks and K reference networks, pairwise
// identical, all settled at load.
func lanePair(k int, load float64) (lanes, refs []*Network) {
	for l := 0; l < k; l++ {
		p := Core2Duo().WithCapFraction(laneVariants[l].CapFraction)
		lanes = append(lanes, NewAtLoad(p, load))
		refs = append(refs, NewAtLoad(p, load))
	}
	return lanes, refs
}

// checkLanes drives K lanes through StepCycleLanes and K reference
// networks through refStepCycle, the single-network integrator kept as a
// test-only copy, with the same load sequence, and fails on the first
// returned voltage whose bits differ or the first cycle after which any
// lane's whole Network state differs from its reference.
func checkLanes(t *testing.T, k, cycles, substeps int, load func(i int) float64) {
	t.Helper()
	const cycle = 1 / 1.86e9
	lanes, refs := lanePair(k, load(0))
	v := make([]float64, k)
	for i := 0; i < cycles; i++ {
		il := load(i)
		StepCycleLanes(lanes, cycle, il, substeps, v)
		for l := range refs {
			want := refs[l].refStepCycle(cycle, il, substeps)
			if math.Float64bits(v[l]) != math.Float64bits(want) {
				t.Fatalf("K=%d substeps=%d cycle %d lane %d (%s): got %v want %v",
					k, substeps, i, l, laneVariants[l].Name, v[l], want)
			}
			if *lanes[l] != *refs[l] {
				t.Fatalf("K=%d substeps=%d cycle %d lane %d (%s): network state diverged from the reference's",
					k, substeps, i, l, laneVariants[l].Name)
			}
		}
	}
}

// TestStepCycleLanesExact pins the lane kernel to the single-network
// reference integrator bit for bit for every lane count up to MaxLanes:
// random loads at the production substep count (feedforward, regulator
// and ripple on), goldenTrace's load sequence at the same grid, and a
// grid on which every substep subdivides for stability (Proc100 at 6
// substeps), where each lane must still return exactly its own
// reference cycle.
func TestStepCycleLanesExact(t *testing.T) {
	p := Core2Duo()
	if !(p.RegFeedforwardTau > 0 && p.RegIntegralHz > 0 && p.RippleAmp != 0) {
		t.Fatal("Core2Duo no longer enables feedforward, regulation and ripple; the lane test would not cover them")
	}
	cycles := 200_000
	if testing.Short() {
		cycles = 20_000
	}
	golden := func(i int) float64 { return 8 + 14*math.Sin(float64(i)*0.37) + float64(i%7) }
	for k := 1; k <= MaxLanes; k++ {
		rng := rand.New(rand.NewSource(int64(k)))
		random := func(int) float64 { return 4 + 40*rng.Float64() }
		checkLanes(t, k, cycles, 7, random)
		checkLanes(t, k, 2_000, 7, golden)
		checkLanes(t, k, 2_000, 6, golden)
	}
}

// TestStepCycleLanesCountsNetworkSteps pins the step counter: a K-lane
// cycle counts K·substeps network-steps on both the lane path and the
// subdividing fallback, as K StepCycle calls would, once its networks
// publish.
func TestStepCycleLanesCountsNetworkSteps(t *testing.T) {
	const cycle = 1 / 1.86e9
	for _, substeps := range []int{7, 6} {
		lanes, _ := lanePair(3, 20)
		reg := telemetry.NewRegistry()
		uninstall := telemetry.Install(reg, nil)
		StepCycleLanes(lanes, cycle, 24, substeps, make([]float64, 3))
		for _, n := range lanes {
			n.PublishSteps()
		}
		uninstall()
		if got, want := reg.Counter("pdn.steps").Load(), uint64(3*substeps); got != want {
			t.Errorf("substeps=%d: counted %d steps, want %d", substeps, got, want)
		}
	}
}

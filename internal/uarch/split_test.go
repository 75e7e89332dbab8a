package uarch_test

import (
	"testing"

	"voltsmooth/internal/core"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// The chip drives one network; per-core supplies are rails that
// core.RunLanes steps on the chip's per-core draws (CoreCurrent). These
// are the physics checks of those rails, run through RunLanes.

func TestSplitSupplyIdleStable(t *testing.T) {
	cfg := uarch.DefaultConfig()
	res := core.RunLanes(cfg, []core.LaneRun{{Split: []pdn.Params{cfg.PDN}}}, core.RunConfig{Cycles: 20000})[0][0]
	if res.Scope.Samples() != 20000 {
		t.Fatalf("sensed %d cycles, want 20000", res.Scope.Samples())
	}
	if d, o := res.Scope.MinDroopPercent(), res.Scope.MaxOvershootPercent(); !(d < 10 && o < 10) {
		t.Fatalf("split-supply idle unstable: droop %.2f%%, overshoot %.2f%% of nominal", d, o)
	}
}

func TestSplitSupplySwingsLarger(t *testing.T) {
	// The POWER6 comparison the paper cites: independent per-core rails
	// see larger swings than a connected supply, because the shared rail
	// averages the cores' uncorrelated draws.
	cfg := uarch.DefaultConfig()
	a, _ := workload.ByName("mcf")
	b, _ := workload.ByName("sphinx")
	res := core.RunLanes(cfg, []core.LaneRun{{
		Streams: []workload.Stream{a.NewStream(), b.NewStream()},
		Nets:    []pdn.Params{cfg.PDN},
		Split:   []pdn.Params{cfg.PDN},
	}}, core.RunConfig{Cycles: 100000, WarmupCycles: 20000})[0]
	shared, split := res[0].Scope.PeakToPeakPercent(), res[1].Scope.PeakToPeakPercent()
	if split <= shared {
		t.Errorf("split-supply swing %.4f%% not above shared %.4f%%", split, shared)
	}
}

func TestSharedSupplySingleRail(t *testing.T) {
	chip := uarch.NewChip(uarch.DefaultConfig())
	chip.Cycle()
	if chip.Network().V() != chip.Voltage() {
		t.Error("the chip's one network must carry the sensed voltage")
	}
}

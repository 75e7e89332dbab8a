package failsafe

import (
	"context"
	"errors"
	"testing"

	"voltsmooth/internal/core"
	"voltsmooth/internal/counters"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/resilient"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// noisyChip is the Proc3-class platform (minimal decap) so short runs see
// real emergencies at the phase-scaled margin.
func noisyChip() uarch.Config {
	cfg := uarch.DefaultConfig()
	cfg.PDN = cfg.PDN.WithCapFraction(pdn.Proc3.CapFraction)
	return cfg
}

func streamsFor(t *testing.T, names ...string) []workload.Stream {
	t.Helper()
	var out []workload.Stream
	for _, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p.NewStream())
	}
	return out
}

func testConfig(scheme Scheme) Config {
	return Config{
		Chip:          noisyChip(),
		Margin:        core.PhaseMarginFor(0.03),
		Scheme:        scheme,
		HoldoffCycles: 50,
		WarmupCycles:  2_000,
	}
}

// baselineCounters runs the same warmup and useful cycles uninterrupted
// and returns the committed deltas — the ground truth the engine's
// rollback/replay must land on exactly.
func baselineCounters(t *testing.T, cfg Config, names []string, useful uint64) []counters.Counters {
	t.Helper()
	chip := uarch.NewChip(cfg.Chip)
	for i, s := range streamsFor(t, names...) {
		chip.SetStream(i, s)
	}
	for i := uint64(0); i < cfg.WarmupCycles; i++ {
		chip.Cycle()
	}
	base := make([]counters.Counters, cfg.Chip.NumCores)
	for i := range base {
		base[i] = *chip.Counters(i)
	}
	for i := uint64(0); i < useful; i++ {
		chip.Cycle()
	}
	out := make([]counters.Counters, cfg.Chip.NumCores)
	for i := range out {
		out[i] = chip.Counters(i).Delta(base[i])
	}
	return out
}

func TestRazorAccountingAndInvariant(t *testing.T) {
	const useful = 60_000
	cfg := testConfig(Scheme{Kind: SchemeRazor, FlushCycles: 12})
	names := []string{"mcf", "mcf"}
	res, err := RunCtx(context.Background(), cfg, streamsFor(t, names...), useful)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emergencies == 0 {
		t.Fatal("Proc3 run at the phase margin saw no emergencies; nothing exercised")
	}
	if res.ReplayedCycles != 0 {
		t.Errorf("razor replayed %d cycles; detection at commit loses no work", res.ReplayedCycles)
	}
	if want := useful + res.Emergencies*12; res.TotalCycles != want {
		t.Errorf("total %d cycles, want useful + E·flush = %d", res.TotalCycles, want)
	}
	if res.RecoveryStallCycles != res.Emergencies*12 {
		t.Errorf("stall ledger %d, want %d", res.RecoveryStallCycles, res.Emergencies*12)
	}
	base := baselineCounters(t, cfg, names, useful)
	for i := range base {
		if res.Counters[i] != base[i] {
			t.Errorf("core %d committed counters diverged from uninterrupted run:\n engine  %+v\n baseline %+v",
				i, res.Counters[i], base[i])
		}
	}
}

func TestCheckpointAccountingAndInvariant(t *testing.T) {
	const useful = 60_000
	cfg := testConfig(Scheme{Kind: SchemeCheckpoint, CheckpointInterval: 500, RestoreCycles: 40})
	names := []string{"mcf", "lbm"}
	res, err := RunCtx(context.Background(), cfg, streamsFor(t, names...), useful)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emergencies == 0 {
		t.Fatal("no emergencies; nothing exercised")
	}
	if res.ReplayedCycles == 0 {
		t.Error("checkpoint recoveries destroyed no work; rollback not happening")
	}
	if want := useful + res.Emergencies*40 + res.ReplayedCycles; res.TotalCycles != want {
		t.Errorf("total %d cycles, want useful + E·restore + replayed = %d", res.TotalCycles, want)
	}
	base := baselineCounters(t, cfg, names, useful)
	for i := range base {
		if res.Counters[i] != base[i] {
			t.Errorf("core %d committed counters diverged after rollback/replay:\n engine  %+v\n baseline %+v",
				i, res.Counters[i], base[i])
		}
	}
	// Replay is bounded by the interval plus detection latency headroom.
	if res.ReplayedCycles > res.Emergencies*(500+cfg.HoldoffCycles+1) {
		t.Errorf("replayed %d cycles over %d emergencies exceeds the per-rollback bound",
			res.ReplayedCycles, res.Emergencies)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Result {
		cfg := testConfig(Scheme{Kind: SchemeCheckpoint, CheckpointInterval: 300, RestoreCycles: 25})
		cfg.Faults = &Plan{
			Seed: 7, SpikeEveryCycles: 2_000, SpikeAmps: 30, SpikeCycles: 4,
			DropoutEveryCycles: 3_000, DropoutCycles: 50, QuantizeVolts: 0.002,
		}
		res, err := RunCtx(context.Background(), cfg, streamsFor(t, "mcf", "namd"), 30_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TotalCycles != b.TotalCycles || a.Emergencies != b.Emergencies ||
		a.ReplayedCycles != b.ReplayedCycles || a.InjectedSpikes != b.InjectedSpikes ||
		a.DroppedSamples != b.DroppedSamples {
		t.Errorf("seeded fault run not reproducible:\n %+v\n %+v", a, b)
	}
	for i := range a.Counters {
		if a.Counters[i] != b.Counters[i] {
			t.Errorf("core %d counters differ across identical runs", i)
		}
	}
}

func TestFaultRunCompletesAndCountsFaults(t *testing.T) {
	cfg := testConfig(Scheme{Kind: SchemeRazor, FlushCycles: 12})
	cfg.Faults = &Plan{
		Seed: 3, SpikeEveryCycles: 1_500, SpikeAmps: 40, SpikeCycles: 5,
		DropoutEveryCycles: 2_000, DropoutCycles: 80, QuantizeVolts: 0.001,
	}
	res, err := RunCtx(context.Background(), cfg, streamsFor(t, "mcf", "mcf"), 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectedSpikes == 0 || res.DroppedSamples == 0 {
		t.Errorf("fault plan delivered spikes=%d dropped=%d, want both > 0",
			res.InjectedSpikes, res.DroppedSamples)
	}
	// The invariant holds under faults too: spikes only perturb the rails
	// and sensor faults only blind the detector.
	base := baselineCounters(t, cfg, []string{"mcf", "mcf"}, 40_000)
	for i := range base {
		if res.Counters[i] != base[i] {
			t.Errorf("core %d counters perturbed by electrical/sensor faults", i)
		}
	}
}

func TestSpikesRaiseEmergencies(t *testing.T) {
	const useful = 40_000
	clean := testConfig(Scheme{Kind: SchemeRazor, FlushCycles: 12})
	spiked := clean
	spiked.Faults = &Plan{Seed: 11, SpikeEveryCycles: 800, SpikeAmps: 80, SpikeCycles: 6}
	a, err := RunCtx(context.Background(), clean, streamsFor(t, "namd", "namd"), useful)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), spiked, streamsFor(t, "namd", "namd"), useful)
	if err != nil {
		t.Fatal(err)
	}
	if b.Emergencies <= a.Emergencies {
		t.Errorf("80A spikes did not raise emergencies: clean %d, spiked %d", a.Emergencies, b.Emergencies)
	}
}

func TestImprovementMatchesHandComputation(t *testing.T) {
	res := &Result{Margin: 0.04, UsefulCycles: 1000, TotalCycles: 1100}
	m := resilient.DefaultModel()
	want := 100 * (m.Gain(0.04)*1000.0/1100.0 - 1)
	if got := res.Improvement(m); got != want {
		t.Errorf("Improvement = %g, want %g", got, want)
	}
}

func TestEquivalentCost(t *testing.T) {
	if c := (Scheme{Kind: SchemeRazor, FlushCycles: 12}).EquivalentCost(); c != 12 {
		t.Errorf("razor equivalent cost %g, want 12", c)
	}
	if c := (Scheme{Kind: SchemeCheckpoint, CheckpointInterval: 500, RestoreCycles: 40}).EquivalentCost(); c != 290 {
		t.Errorf("checkpoint equivalent cost %g, want 40 + 250", c)
	}
}

// opaqueStream is a valid Stream that refuses checkpointing.
type opaqueStream struct{ workload.Stream }

func TestTypedErrors(t *testing.T) {
	good := testConfig(Scheme{Kind: SchemeRazor, FlushCycles: 12})
	cases := []struct {
		name    string
		mutate  func(*Config, *[]workload.Stream, *uint64)
		wantErr error
	}{
		{"zero work", func(c *Config, s *[]workload.Stream, u *uint64) { *u = 0 }, ErrNoWork},
		{"bad margin", func(c *Config, s *[]workload.Stream, u *uint64) { c.Margin = 1.5 }, ErrBadConfig},
		{"bad scheme", func(c *Config, s *[]workload.Stream, u *uint64) { c.Scheme = Scheme{Kind: SchemeKind(9)} }, ErrBadScheme},
		{"razor without flush", func(c *Config, s *[]workload.Stream, u *uint64) { c.Scheme = Scheme{Kind: SchemeRazor} }, ErrBadScheme},
		{"too many streams", func(c *Config, s *[]workload.Stream, u *uint64) {
			*s = append(*s, (*s)[0], (*s)[0])
		}, ErrTooManyStreams},
		{"bad plan", func(c *Config, s *[]workload.Stream, u *uint64) {
			c.Faults = &Plan{SpikeEveryCycles: 100}
		}, ErrBadPlan},
		{"opaque stream", func(c *Config, s *[]workload.Stream, u *uint64) {
			(*s)[0] = opaqueStream{(*s)[0]}
		}, uarch.ErrNotCheckpointable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			streams := streamsFor(t, "mcf")
			useful := uint64(1000)
			tc.mutate(&cfg, &streams, &useful)
			_, err := RunCtx(context.Background(), cfg, streams, useful)
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("got error %v, want %v", err, tc.wantErr)
			}
		})
	}
}

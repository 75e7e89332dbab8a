package failsafe

import (
	"context"
	"testing"

	"voltsmooth/internal/counters"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// FuzzRecoveryInvariants drives the engine with arbitrary recovery schemes
// and fault plans and checks the properties every run must keep:
//
//   - committed counters equal an uninterrupted baseline of the same
//     useful cycles — rollback/replay neither loses nor duplicates
//     instructions, and faults never leak into architectural state;
//   - the wall-clock ledger balances: total = useful + recovery stalls +
//     replayed cycles;
//   - Razor never replays.
func FuzzRecoveryInvariants(f *testing.F) {
	f.Add(uint8(0), uint8(12), uint16(500), uint8(40), uint8(50), uint8(2), uint64(7), uint16(0))
	f.Add(uint8(1), uint8(1), uint16(200), uint8(25), uint8(0), uint8(0), uint64(1), uint16(900))
	f.Add(uint8(1), uint8(200), uint16(1), uint8(1), uint8(255), uint8(5), uint64(0), uint16(1500))
	f.Fuzz(runInvariantCase)
}

func runInvariantCase(t *testing.T, kind, flush uint8, interval uint16, restore, holdoff, marginSel uint8, seed uint64, spikeEvery uint16) {
	const useful = 4_000
	scheme := Scheme{
		Kind:               SchemeKind(int(kind) % 2),
		FlushCycles:        uint64(flush)%200 + 1,
		CheckpointInterval: uint64(interval)%2_000 + 1,
		RestoreCycles:      uint64(restore)%100 + 1,
	}
	// Margins from 1% to 8.5%: tight enough to trigger recoveries on the
	// Proc3 platform, always inside the model's valid range.
	margin := 0.01 + float64(marginSel%16)*0.005
	cfg := Config{
		Chip:          noisyChip(),
		Margin:        margin,
		Scheme:        scheme,
		HoldoffCycles: uint64(holdoff),
		WarmupCycles:  500,
	}
	if spikeEvery > 0 {
		cfg.Faults = &Plan{
			Seed:               seed,
			SpikeEveryCycles:   uint64(spikeEvery),
			SpikeAmps:          25,
			SpikeCycles:        3,
			DropoutEveryCycles: 1_000,
			DropoutCycles:      uint64(holdoff)%64 + 1,
			QuantizeVolts:      0.001,
		}
	}

	mk := func() []workload.Stream {
		a, err := workload.ByName("mcf")
		if err != nil {
			t.Fatal(err)
		}
		b, err := workload.ByName("namd")
		if err != nil {
			t.Fatal(err)
		}
		return []workload.Stream{a.NewStream(), b.NewStream()}
	}

	res, err := RunCtx(context.Background(), cfg, mk(), useful)
	if err != nil {
		t.Fatalf("engine refused a valid config: %v", err)
	}

	if want := useful + res.RecoveryStallCycles + res.ReplayedCycles; res.TotalCycles != want {
		t.Errorf("cycle ledger unbalanced: total %d, useful+stall+replay %d", res.TotalCycles, want)
	}
	if scheme.Kind == SchemeRazor && res.ReplayedCycles != 0 {
		t.Errorf("razor replayed %d cycles", res.ReplayedCycles)
	}

	// Baseline: the same warmup and useful cycles with no engine.
	chip := uarch.NewChip(cfg.Chip)
	for i, s := range mk() {
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
	for i := range base {
		want := chip.Counters(i).Delta(base[i])
		if res.Counters[i] != want {
			t.Errorf("core %d lost or duplicated work across recovery (scheme %v, margin %.3f, %d emergencies):\n engine   %+v\n baseline %+v",
				i, scheme.Kind, margin, res.Emergencies, res.Counters[i], want)
		}
	}
}

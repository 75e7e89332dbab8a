package failsafe

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// groupRun is one run of a lockstep-group test case: a configuration, the
// programs on its cores and the committed work.
type groupRun struct {
	cfg      Config
	programs []string
	opaque   bool // wrap core 0's stream so it cannot be checkpointed
	useful   uint64
}

// streams returns fresh streams for the run's programs.
func (r groupRun) streams(t *testing.T) []workload.Stream {
	s := streamsFor(t, r.programs...)
	if r.opaque {
		s[0] = opaqueStream{s[0]}
	}
	return s
}

// TestRunGroupEqualsReference pins the lockstep engine to refRunCtx, the
// one-run loop RunCtx had before it became a RunGroup of one: every run
// of a group, whatever runs beside it, returns the reference's error, or
// a Result reflect.DeepEqual to the reference's (counters, ledger, names
// and scope all), and leaves its chip's network in the reference's state
// with the reference's step count. The cases mix schemes with faults on
// and off, start with no warmup, finish far apart, hold more runs than
// one packed kernel call has lanes, and refuse runs with typed errors,
// before the chip is built and after the warmup.
func TestRunGroupEqualsReference(t *testing.T) {
	razor := testConfig(Scheme{Kind: SchemeRazor, FlushCycles: 12})
	ckpt := testConfig(Scheme{Kind: SchemeCheckpoint, CheckpointInterval: 500, RestoreCycles: 40})
	faulted := func(c Config, seed uint64) Config {
		c.Faults = &Plan{
			Seed: seed, SpikeEveryCycles: 1_500, SpikeAmps: 40, SpikeCycles: 5,
			DropoutEveryCycles: 2_000, DropoutCycles: 80, QuantizeVolts: 0.001,
		}
		return c
	}
	cold := func(c Config) Config {
		c.WarmupCycles = 0
		return c
	}
	badScheme := razor
	badScheme.Scheme = Scheme{Kind: SchemeRazor}

	cases := []struct {
		name    string
		runs    []groupRun
		wantErr []error // per run, nil for a run that completes
	}{
		{"mixed schemes, faults on and off", []groupRun{
			{razor, []string{"mcf", "mcf"}, false, 20_000},
			{ckpt, []string{"mcf", "lbm"}, false, 20_000},
			{faulted(razor, 3), []string{"mcf", "namd"}, false, 20_000},
			{faulted(ckpt, 7), []string{"namd", "namd"}, false, 15_000},
		}, nil},
		{"no warmup", []groupRun{
			{cold(razor), []string{"lbm", "mcf"}, false, 12_000},
			{cold(faulted(ckpt, 11)), []string{"mcf", "mcf"}, false, 12_000},
			{cold(ckpt), []string{"namd"}, false, 12_000},
		}, nil},
		{"finishing far apart, five runs", []groupRun{
			{razor, []string{"mcf", "namd"}, false, 2_000},
			{ckpt, []string{"mcf", "mcf"}, false, 30_000},
			{faulted(razor, 5), []string{"lbm", "lbm"}, false, 9_000},
			{razor, []string{"namd"}, false, 25_000},
			{faulted(ckpt, 9), []string{"mcf", "lbm"}, false, 6_000},
		}, nil},
		{"refused runs", []groupRun{
			{razor, []string{"mcf", "mcf"}, false, 10_000},
			{ckpt, []string{"mcf", "lbm"}, true, 10_000},
			{badScheme, []string{"mcf"}, false, 10_000},
			{faulted(ckpt, 2), []string{"lbm", "mcf"}, false, 10_000},
		}, []error{nil, uarch.ErrNotCheckpointable, ErrBadScheme, nil}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := make([]Run, len(c.runs))
			for i, r := range c.runs {
				runs[i] = Run{Config: r.cfg, Streams: r.streams(t), UsefulCycles: r.useful}
			}
			engines, errs := newEngines(runs)
			stepEngines(context.Background(), engines)
			for i, r := range c.runs {
				want, refChip, refErr := refRunCtx(context.Background(), r.cfg, r.streams(t), r.useful)
				err := errs[i]
				if e := engines[i]; e != nil && e.err != nil {
					err = e.err
				}
				if c.wantErr != nil && c.wantErr[i] != nil && !errors.Is(refErr, c.wantErr[i]) {
					t.Fatalf("run %d: the reference returned %v, want %v", i, refErr, c.wantErr[i])
				}
				if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
					t.Errorf("run %d: error %v, reference %v", i, err, refErr)
					continue
				}
				if refErr != nil {
					if refChip != nil && !reflect.DeepEqual(*engines[i].chip.Network(), *refChip.Network()) {
						t.Errorf("run %d: refused run's network differs from the reference's", i)
					}
					continue
				}
				if got := engines[i].res; !reflect.DeepEqual(got, want) {
					t.Errorf("run %d: result differs from the reference:\n got  %+v\n want %+v", i, *got, *want)
				}
				if want.Emergencies == 0 {
					t.Errorf("run %d saw no emergencies; nothing exercised", i)
				}
				if !reflect.DeepEqual(*engines[i].chip.Network(), *refChip.Network()) {
					t.Errorf("run %d: network state or step count differs from the reference's", i)
				}
			}
		})
	}
}

// TestRunGroupMatchesRunCtx checks the public form: RunGroup returns, per
// run, what RunCtx returns for it alone.
func TestRunGroupMatchesRunCtx(t *testing.T) {
	razor := testConfig(Scheme{Kind: SchemeRazor, FlushCycles: 12})
	ckpt := testConfig(Scheme{Kind: SchemeCheckpoint, CheckpointInterval: 300, RestoreCycles: 25})
	runs := []groupRun{
		{razor, []string{"mcf", "namd"}, false, 8_000},
		{ckpt, []string{"lbm", "mcf"}, false, 8_000},
		{ckpt, []string{"mcf"}, true, 8_000},
	}
	group := make([]Run, len(runs))
	for i, r := range runs {
		group[i] = Run{Config: r.cfg, Streams: r.streams(t), UsefulCycles: r.useful}
	}
	out, errs := RunGroup(context.Background(), group)
	for i, r := range runs {
		want, err := RunCtx(context.Background(), r.cfg, r.streams(t), r.useful)
		if !reflect.DeepEqual(out[i], want) || !reflect.DeepEqual(errs[i], err) {
			t.Errorf("run %d: RunGroup gave (%v, %v), RunCtx (%v, %v)", i, out[i], errs[i], want, err)
		}
		if (out[i] == nil) == (errs[i] == nil) {
			t.Errorf("run %d: want exactly one of a result and an error", i)
		}
	}
}

// TestRunGroupRefusesMixedClocks checks that a run whose chip cannot share
// the group's network steps is refused with a typed error while the rest
// complete.
func TestRunGroupRefusesMixedClocks(t *testing.T) {
	a := testConfig(Scheme{Kind: SchemeRazor, FlushCycles: 12})
	b := a
	b.Chip.Substeps++
	out, errs := RunGroup(context.Background(), []Run{
		{Config: a, Streams: streamsFor(t, "mcf"), UsefulCycles: 3_000},
		{Config: b, Streams: streamsFor(t, "mcf"), UsefulCycles: 3_000},
	})
	if errs[0] != nil || out[0] == nil {
		t.Fatalf("first run failed: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrBadConfig) || out[1] != nil {
		t.Errorf("run on a different grid: got (%v, %v), want ErrBadConfig", out[1], errs[1])
	}
}

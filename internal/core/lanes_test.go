package core

import (
	"math"
	"reflect"
	"testing"

	"voltsmooth/internal/counters"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// refRun is the loop Run had before it became a one-run RunLanes: the
// chip steps its own network through Cycle, and one scope samples the
// voltage each cycle returns.
func refRun(cfg uarch.Config, streams []workload.Stream, rc RunConfig) Result {
	chip, names := newChip(cfg, streams)
	defer chip.PublishSteps()
	return refMeasure(chip, names, cfg.PDN.VNom, rc, chip.Cycle)
}

// refSplitRun is the split-supply reference: every core's rail of supply
// p, settled at an equal share of the idle chip's current, takes its own
// StepCycle on its core's draw each cycle, and the scope samples the
// lowest rail, compared from +Inf with <.
func refSplitRun(cfg uarch.Config, streams []workload.Stream, p pdn.Params, rc RunConfig) Result {
	chip, names := newChip(cfg, streams)
	rails := make([]*pdn.Network, cfg.NumCores)
	for i := range rails {
		rails[i] = pdn.NewAtLoad(splitRail(p, cfg.NumCores), chip.TotalCurrent()/float64(cfg.NumCores))
	}
	return refMeasure(chip, names, p.VNom, rc, func() float64 {
		chip.CycleLoad()
		vMin := math.Inf(1)
		for i, rail := range rails {
			if v := rail.StepCycle(1/cfg.ClockHz, chip.CoreCurrent(i), cfg.Substeps); v < vMin {
				vMin = v
			}
		}
		return vMin
	})
}

// refMeasure is Run's measurement around cycle, which advances chip one
// cycle and returns the sensed voltage: the warmup, the counter snapshot,
// then one scope sample per measured cycle and the interval series.
func refMeasure(chip *uarch.Chip, names []string, vnom float64, rc RunConfig, cycle func() float64) Result {
	margins, seriesMargin := rc.margins()
	for i := uint64(0); i < rc.WarmupCycles; i++ {
		cycle()
	}
	snaps := snapshot(chip)

	scope := sense.NewScope(vnom, margins)
	var series []float64
	var intervalStart uint64
	var crossingsAtStart uint64
	for i := uint64(0); i < rc.Cycles; i++ {
		scope.Sample(cycle())
		if rc.IntervalCycles > 0 && (i+1)-intervalStart >= rc.IntervalCycles {
			cur := scope.Crossings(seriesMargin)
			series = append(series, counters.PerKCycles(cur-crossingsAtStart, rc.IntervalCycles))
			crossingsAtStart = cur
			intervalStart = i + 1
		}
	}
	return result(chip, names, snaps, rc, scope, series)
}

// lanePrograms returns the workload sets of the lockstep contract tests
// and the three decap variants of cfg's network.
func lanePrograms(t *testing.T, cfg uarch.Config) (map[string]func() []workload.Stream, []pdn.Params) {
	must := func(name string) workload.Profile {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mt := workload.Parsec()[0]
	thread := mt
	thread.Seed++
	programs := map[string]func() []workload.Stream{
		"single": func() []workload.Stream { return []workload.Stream{must("mcf").NewStream()} },
		"pair": func() []workload.Stream {
			return []workload.Stream{must("gcc").NewStream(), must("libquantum").NewStream()}
		},
		"two-thread": func() []workload.Stream { return []workload.Stream{mt.NewStream(), thread.NewStream()} },
		"idle":       func() []workload.Stream { return nil },
	}
	var variants []pdn.Params
	for _, v := range []pdn.ProcVariant{pdn.Proc100, pdn.Proc25, pdn.Proc3} {
		variants = append(variants, cfg.PDN.WithCapFraction(v.CapFraction))
	}
	return programs, variants
}

// TestRunLanesEqualsRun pins the lockstep contract: result [r][j] of
// RunLanes is reflect.DeepEqual to refRun, the loop Run had before it ran
// through RunLanes, on run r's workloads on a chip whose network is
// runs[r].Nets[j] — counters, scope, names and series all. It covers one
// chip at every variant count from one, which is Run itself, and
// lockstep groups of several chips, each on its own load, with different
// network sets, with and without an interval series.
func TestRunLanesEqualsRun(t *testing.T) {
	cfg := uarch.DefaultConfig()
	programs, variants := lanePrograms(t, cfg)
	type run struct {
		program string
		nets    []pdn.Params
	}
	cases := []struct {
		name string
		runs []run
		rc   RunConfig
	}{
		{"one chip, one network", []run{{"pair", variants[:1]}}, RunConfig{Cycles: 20_000, WarmupCycles: 3_000}},
		{"one chip, two networks", []run{{"single", variants[:2]}}, RunConfig{Cycles: 20_000, WarmupCycles: 3_000}},
		{"one chip, three networks", []run{{"two-thread", variants}}, RunConfig{Cycles: 20_000, WarmupCycles: 3_000}},
		{"four chips, one network each", []run{
			{"single", variants[2:]}, {"pair", variants[2:]}, {"two-thread", variants[2:]}, {"idle", variants[2:]},
		}, RunConfig{Cycles: 20_000, WarmupCycles: 3_000}},
		{"three chips, mixed networks", []run{
			{"pair", variants}, {"single", variants[1:2]}, {"two-thread", []pdn.Params{variants[2], variants[0]}},
		}, RunConfig{Cycles: 20_000, WarmupCycles: 3_000}},
		{"three chips, interval series", []run{
			{"single", variants[2:]}, {"pair", variants[1:]}, {"idle", variants[2:]},
		}, RunConfig{Cycles: 20_000, WarmupCycles: 2_000, IntervalCycles: 3_000, SeriesMargin: 0.023}},
	}
	for _, c := range cases {
		runs := make([]LaneRun, len(c.runs))
		for r, run := range c.runs {
			runs[r] = LaneRun{Streams: programs[run.program](), Nets: run.nets}
		}
		got := RunLanes(cfg, runs, c.rc)
		if len(got) != len(runs) {
			t.Fatalf("%s: %d results for %d runs", c.name, len(got), len(runs))
		}
		for r, run := range c.runs {
			if len(got[r]) != len(run.nets) {
				t.Fatalf("%s: run %d has %d results for %d networks", c.name, r, len(got[r]), len(run.nets))
			}
			for j, p := range run.nets {
				lc := cfg
				lc.PDN = p
				if want := refRun(lc, programs[run.program](), c.rc); !reflect.DeepEqual(got[r][j], want) {
					t.Errorf("%s: run %d (%s) network %d differs from Run on its own network", c.name, r, run.program, j)
				}
			}
		}
	}
}

// TestRunLanesSplitEqualsReference pins the lockstep contract for split
// supplies: result [r][len(Nets)+s] of RunLanes is reflect.DeepEqual to
// refSplitRun of runs[r].Split[s] on run r's workloads, and the Nets
// results beside it still equal refRun. It covers a split supply alone,
// beside shared networks of the same chip, two split supplies on one
// chip, and groups with other chips, with and without split supplies,
// with and without an interval series.
func TestRunLanesSplitEqualsReference(t *testing.T) {
	cfg := uarch.DefaultConfig()
	programs, variants := lanePrograms(t, cfg)
	type run struct {
		program     string
		nets, split []pdn.Params
	}
	rc := RunConfig{Cycles: 20_000, WarmupCycles: 3_000}
	cases := []struct {
		name string
		runs []run
		rc   RunConfig
	}{
		{"split alone", []run{{"pair", nil, variants[:1]}}, rc},
		{"split beside shared", []run{{"pair", variants[:1], variants[:1]}}, rc},
		{"two splits beside two networks", []run{{"two-thread", variants[1:], []pdn.Params{variants[2], variants[0]}}}, rc},
		{"group with other chips", []run{
			{"pair", variants[:1], variants[:1]}, {"single", variants, nil}, {"idle", nil, variants[2:]},
			{"two-thread", variants[:1], variants[:1]},
		}, rc},
		{"group with interval series", []run{
			{"single", variants[2:], variants[2:]}, {"pair", nil, variants[1:2]}, {"idle", variants[2:], nil},
		}, RunConfig{Cycles: 20_000, WarmupCycles: 2_000, IntervalCycles: 3_000, SeriesMargin: 0.023}},
	}
	for _, c := range cases {
		runs := make([]LaneRun, len(c.runs))
		for r, run := range c.runs {
			runs[r] = LaneRun{Streams: programs[run.program](), Nets: run.nets, Split: run.split}
		}
		got := RunLanes(cfg, runs, c.rc)
		if len(got) != len(runs) {
			t.Fatalf("%s: %d results for %d runs", c.name, len(got), len(runs))
		}
		for r, run := range c.runs {
			if len(got[r]) != len(run.nets)+len(run.split) {
				t.Fatalf("%s: run %d has %d results for %d networks and %d split supplies",
					c.name, r, len(got[r]), len(run.nets), len(run.split))
			}
			for j, p := range run.nets {
				lc := cfg
				lc.PDN = p
				if want := refRun(lc, programs[run.program](), c.rc); !reflect.DeepEqual(got[r][j], want) {
					t.Errorf("%s: run %d (%s) network %d differs from refRun on its own network", c.name, r, run.program, j)
				}
			}
			for s, p := range run.split {
				want := refSplitRun(cfg, programs[run.program](), p, c.rc)
				if !reflect.DeepEqual(got[r][len(run.nets)+s], want) {
					t.Errorf("%s: run %d (%s) split supply %d differs from its per-rail reference", c.name, r, run.program, s)
				}
			}
		}
	}
}

package core

import (
	"reflect"
	"testing"

	"voltsmooth/internal/pdn"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// TestRunLanesEqualsRun pins the lockstep contract: result [r][j] of
// RunLanes is reflect.DeepEqual to Run on run r's workloads on a chip
// whose network is runs[r].Nets[j] — counters, scope, names and series
// all. It covers one chip at every variant count from one, which runs
// the same loop as several, and lockstep groups of several chips, each
// on its own load, with different network sets, with and without an
// interval series.
func TestRunLanesEqualsRun(t *testing.T) {
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
	cfg := uarch.DefaultConfig()
	var variants []pdn.Params
	for _, v := range []pdn.ProcVariant{pdn.Proc100, pdn.Proc25, pdn.Proc3} {
		variants = append(variants, cfg.PDN.WithCapFraction(v.CapFraction))
	}
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
				if want := Run(lc, programs[run.program](), c.rc); !reflect.DeepEqual(got[r][j], want) {
					t.Errorf("%s: run %d (%s) network %d differs from Run on its own network", c.name, r, run.program, j)
				}
			}
		}
	}
}

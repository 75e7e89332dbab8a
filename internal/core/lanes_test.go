package core

import (
	"reflect"
	"testing"

	"voltsmooth/internal/pdn"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// TestRunLanesEqualsRun pins the lane contract: lane l of RunLanes is
// reflect.DeepEqual to Run on a chip whose network is nets[l] — counters,
// scope, names and all — for a single program, a spec pair and a
// two-thread program, and one lane is Run itself.
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
	cases := []struct {
		name    string
		streams func() []workload.Stream
	}{
		{"single", func() []workload.Stream { return []workload.Stream{must("mcf").NewStream()} }},
		{"pair", func() []workload.Stream {
			return []workload.Stream{must("gcc").NewStream(), must("libquantum").NewStream()}
		}},
		{"two-thread", func() []workload.Stream { return []workload.Stream{mt.NewStream(), thread.NewStream()} }},
	}
	cfg := uarch.DefaultConfig()
	var nets []pdn.Params
	for _, v := range []pdn.ProcVariant{pdn.Proc100, pdn.Proc25, pdn.Proc3} {
		nets = append(nets, cfg.PDN.WithCapFraction(v.CapFraction))
	}
	rc := RunConfig{Cycles: 20_000, WarmupCycles: 3_000}
	for _, c := range cases {
		for k := 1; k <= len(nets); k++ {
			got := RunLanes(cfg, nets[:k], c.streams(), rc)
			if len(got) != k {
				t.Fatalf("%s K=%d: %d results", c.name, k, len(got))
			}
			for l := range got {
				lc := cfg
				lc.PDN = nets[l]
				if want := Run(lc, c.streams(), rc); !reflect.DeepEqual(got[l], want) {
					t.Errorf("%s K=%d: lane %d differs from Run on its own network", c.name, k, l)
				}
			}
		}
	}
}

package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// The tenants sizes the benchmark runs at, and a few longer windows.
var testWindows = []float64{10, 30, 60}

func tenantsN(window float64) int { return int(tenantsRate * window) }

func TestSpecSequenceIsIdenticalForASeed(t *testing.T) {
	for _, w := range testWindows {
		a := tenantsArrivals(7, tenantsN(w), w)
		b := tenantsArrivals(7, tenantsN(w), w)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("window %g: two schedules from seed 7 differ", w)
		}
		if reflect.DeepEqual(a, tenantsArrivals(8, tenantsN(w), w)) {
			t.Fatalf("window %g: seeds 7 and 8 gave the same schedule", w)
		}
	}
	if !reflect.DeepEqual(cachedArrivals(3, cachedRate, 500), cachedArrivals(3, cachedRate, 500)) {
		t.Fatal("cached open-loop sequence differs for one seed")
	}
	if !reflect.DeepEqual(closedLoopSpecs(3, 500), closedLoopSpecs(3, 500)) {
		t.Fatal("cached closed-loop sequence differs for one seed")
	}
}

func TestColdKeysAreUniqueAndPopularSpecsRepeatAtTheirShare(t *testing.T) {
	popularKeys := map[string]bool{}
	for _, s := range popularSpecs {
		popularKeys[s.key()] = true
	}
	for seed := int64(1); seed <= 20; seed++ {
		for _, w := range testWindows {
			n := tenantsN(w)
			arr := tenantsArrivals(seed, n, w)
			if len(arr) != n {
				t.Fatalf("seed %d: %d arrivals, want %d", seed, len(arr), n)
			}
			seen := map[string]bool{}
			cold, heavy := 0, 0
			for i, a := range arr {
				if a.at < float64(i)*w/float64(n) || a.at >= float64(i+1)*w/float64(n) {
					t.Fatalf("seed %d: arrival %d at %gs lies outside its slot", seed, i, a.at)
				}
				if a.popular {
					if !popularKeys[a.spec.key()] {
						t.Fatalf("seed %d: popular arrival %s is not a popular spec", seed, a.spec.key())
					}
					continue
				}
				cold++
				if popularKeys[a.spec.key()] || seen[a.spec.key()] {
					t.Fatalf("seed %d: cold spec %s is not unique", seed, a.spec.key())
				}
				seen[a.spec.key()] = true
				for _, id := range a.spec.Experiments {
					if slices.Contains(heavyExperiments, id) {
						heavy++
					}
				}
			}
			if want := int(coldShare * float64(n)); cold != want {
				t.Fatalf("seed %d window %g: %d cold arrivals, want %d", seed, w, cold, want)
			}
			if 2*heavy < cold {
				t.Fatalf("seed %d window %g: only %d of %d cold specs build a corpus or pair table", seed, w, heavy, cold)
			}
		}
	}
}

func TestPrioritiesFollowTheMix(t *testing.T) {
	n := tenantsN(30)
	count := map[string]int{}
	for _, a := range tenantsArrivals(5, n, 30) {
		count[a.spec.Priority]++
	}
	want := map[string]int{"interactive": n / 5, "batch": n - 2*(n/5), "bulk": n / 5}
	if !reflect.DeepEqual(count, want) {
		t.Fatalf("priority mix %v, want %v", count, want)
	}
}

func TestFaultSeedOnlyOnRecoverySpecsAndListsInRegistryOrder(t *testing.T) {
	rank := registryRank()
	for seed := int64(1); seed <= 20; seed++ {
		for _, a := range tenantsArrivals(seed, tenantsN(60), 60) {
			s := a.spec
			if has := slices.Contains(s.Experiments, recoveryExperiment); has != (s.FaultSeed != 0) {
				t.Fatalf("spec %s: fault_seed %d with figx-recovery listed = %v", s.key(), s.FaultSeed, has)
			}
			if s.FaultSeed > maxFaultSeed {
				t.Fatalf("spec %s: fault seed beyond the committed digests", s.key())
			}
			for i := 1; i < len(s.Experiments); i++ {
				if rank[s.Experiments[i-1]] >= rank[s.Experiments[i]] {
					t.Fatalf("spec %s: experiments not in registry order", s.key())
				}
			}
		}
	}
}

func TestDigestsCoverEverySubmittableSpec(t *testing.T) {
	b, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	var units []string
	for _, id := range expand([]string{"all"}) {
		units = append(units, unitKey("quick", id, 0), unitKey("tiny", id, 0))
	}
	for seed := uint64(1); seed <= maxFaultSeed; seed++ {
		units = append(units, unitKey("tiny", recoveryExperiment, seed))
	}
	for _, u := range units {
		if b.Units[u] == "" {
			t.Errorf("no committed digest for %s", u)
		}
	}
	for _, s := range append([]jobSpec{campaignSpec, probeSpec}, popularSpecs...) {
		if b.Specs[s.key()] == "" {
			t.Errorf("no committed spec digest for %s", s.key())
		}
	}
}

func TestPercentileHelperReportsCountAndTail(t *testing.T) {
	cases := []struct {
		n        int
		tail     float64
		hasTail  bool
		beyond   int
		p50, p99 float64
	}{
		{n: 1000, tail: 99, hasTail: true, beyond: 10, p50: 500, p99: 990},
		{n: 100, tail: 90, hasTail: true, beyond: 10, p50: 50, p99: 99},
		{n: 45, tail: 75, hasTail: true, beyond: 11, p50: 23, p99: 45},
		{n: 21, tail: 50, hasTail: true, beyond: 10, p50: 11, p99: 21},
		{n: 20, tail: 50, hasTail: true, beyond: 10, p50: 10, p99: 20},
		{n: 19, hasTail: false, p50: 10, p99: 19},
		{n: 1, hasTail: false, p50: 1, p99: 1},
	}
	for _, c := range cases {
		d := &dist{}
		for i := c.n; i >= 1; i-- {
			d.add(float64(i))
		}
		if d.n() != c.n {
			t.Fatalf("n=%d: count %d", c.n, d.n())
		}
		if got := d.pct(50); got != c.p50 {
			t.Errorf("n=%d: p50 = %g, want %g", c.n, got, c.p50)
		}
		if got := d.pct(99); got != c.p99 {
			t.Errorf("n=%d: p99 = %g, want %g", c.n, got, c.p99)
		}
		tail, ok := d.tail()
		if ok != c.hasTail || (ok && (tail != c.tail || d.beyond(tail) != c.beyond)) {
			t.Errorf("n=%d: tail p%g (ok=%v, %d beyond), want p%g (ok=%v, %d beyond)",
				c.n, tail, ok, d.beyond(tail), c.tail, c.hasTail, c.beyond)
		}
	}
	if (&dist{}).pct(50) != 0 {
		t.Error("empty sample should report 0")
	}
}

func TestBenchmarkJSONMatchesTheMetricsReported(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json keeps %d workloads, want at least 2", len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not one the benchmark runs", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark reports %d", len(spec.EndToEnd), len(endToEndDefs))
	}
	for i, m := range spec.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark reports %d", len(spec.PerLayer), len(perLayerDefs))
	}
	for i, m := range spec.PerLayer {
		d := perLayerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

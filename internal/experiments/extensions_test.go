package experiments

import (
	"context"
	"testing"
)

func TestExt1OnlineSchedulerWins(t *testing.T) {
	r := Ext1(context.Background(), session(t))
	if len(r.Results) < 4 {
		t.Fatalf("%d policy runs", len(r.Results))
	}
	cluster := r.ByPolicy("stall-cluster")
	if len(cluster) != 1 {
		t.Fatal("missing stall-cluster run")
	}
	// Every policy must finish the whole job set.
	want := r.Results[0].CompletedJobs
	for _, res := range r.Results {
		if res.CompletedJobs != want || res.CompletedJobs == 0 {
			t.Errorf("%s completed %d jobs, others %d", res.Policy, res.CompletedJobs, want)
		}
	}
	// The counter-driven noise-aware policy has the lowest droop *rate* —
	// schedules run for different cycle counts, so raw emergency totals
	// are not comparable. The seeded random policy draws a fresh pair
	// every quantum (it used to pin one pair per view, a bug), which makes
	// it a genuinely competitive baseline at quick scale: allow it within
	// a small noise tolerance, but require a strict win over the
	// anti-policy that deliberately mixes noisy with quiet jobs.
	for _, res := range r.Results {
		switch res.Policy {
		case "stall-cluster":
		case "stall-spread":
			if cluster[0].DroopsPerKc >= res.DroopsPerKc {
				t.Errorf("stall-cluster %.3f droops/Kc not below stall-spread's %.3f",
					cluster[0].DroopsPerKc, res.DroopsPerKc)
			}
		default:
			if cluster[0].DroopsPerKc > res.DroopsPerKc*1.03 {
				t.Errorf("stall-cluster %.3f droops/Kc above %s's %.3f by more than 3%%",
					cluster[0].DroopsPerKc, res.Policy, res.DroopsPerKc)
			}
		}
	}
}

func TestExt2SplitSupplyNoisier(t *testing.T) {
	r := Ext2(context.Background(), session(t))
	if len(r.Pairs) == 0 {
		t.Fatal("no pairs measured")
	}
	for _, row := range r.Pairs {
		if row.SplitDroopsPerKc <= row.SharedDroopsPerKc {
			t.Errorf("%s+%s: split droops %.2f not above shared %.2f (POWER6 comparison)",
				row.A, row.B, row.SplitDroopsPerKc, row.SharedDroopsPerKc)
		}
	}
}

func TestExt3HybridSweepShape(t *testing.T) {
	r := Ext3(context.Background(), session(t))
	if len(r.Ns) != len(r.Evals) || len(r.Pass) != len(r.Ns) {
		t.Fatal("malformed sweep")
	}
	// Droop-weighted exponents cannot droop more than the droop-blind
	// n=0 batch.
	base := r.Evals[0].Droops
	for k, ev := range r.Evals[1:] {
		if ev.Droops > base+0.02 {
			t.Errorf("n=%g droops %.3f above n=0's %.3f", r.Ns[k+1], ev.Droops, base)
		}
	}
	// Noise-weighted exponents pass at least as many schedules as n=0 at
	// coarse recovery costs (the Sec IV-D adaptive-metric argument).
	last := len(r.Costs) - 1
	for k := 1; k < len(r.Ns); k++ {
		if r.Pass[k][last] < r.Pass[0][last] {
			t.Errorf("n=%g passes %d at the coarsest cost, below n=0's %d",
				r.Ns[k], r.Pass[k][last], r.Pass[0][last])
		}
	}
	for c := range r.Costs {
		for k := range r.Ns {
			if r.Pass[k][c] < 0 || r.Pass[k][c] > session(t).Scale.SpecSubset {
				t.Errorf("pass count out of range at n=%g cost=%g", r.Ns[k], r.Costs[c])
			}
		}
	}
}

func TestExtensionsRegistered(t *testing.T) {
	for _, id := range []string{"ext1", "ext2", "ext3", "figx-recovery"} {
		if _, err := Lookup(id); err != nil {
			t.Errorf("%s not registered: %v", id, err)
		}
	}
	if len(All()) != 22 {
		t.Errorf("registry has %d entries, want 22 (18 paper + 3 extensions + figx-recovery)", len(All()))
	}
}

// Scheduler demonstrates the paper's contribution end to end on the Proc3
// future-node chip: build the oracle co-schedule table for the quick
// scale's slice of the suite, compare the Droop, IPC, hybrid, and random
// policies (Fig 18), and show how many schedules meet the resilient
// design's expected improvement at each recovery cost (Tab I / Fig 19).
//
//	go run ./examples/scheduler
package main

import (
	"context"
	"fmt"

	"voltsmooth/internal/core"
	"voltsmooth/internal/experiments"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/resilient"
	"voltsmooth/internal/sched"
)

func main() {
	// The Sec IV platform is Proc3, the 3%-package-capacitance stand-in
	// for a future technology node. The session measures the table the
	// way the experiments do: every single-core reference and ordered
	// pair of its behaviourally diverse SPEC-like subset.
	sess := experiments.NewSession(experiments.Quick())
	fmt.Printf("building the oracle pair table (quick scale, %d programs)...\n", len(sess.SpecProfiles()))
	table := sess.PairTable(context.Background(), pdn.Proc3)

	fmt.Println("\nper-benchmark droop spread across co-runners (Fig 17):")
	for _, row := range table.CoScheduleSpread() {
		fmt.Printf("  %-8s co-run droops %5.1f…%5.1f /Kc, SPECrate %5.1f, alone %5.1f\n",
			row.Name, row.Box.Min, row.Box.Max, row.SPECrate, row.Single)
	}

	bcfg := sched.DefaultBatchConfig(table.Size())
	policies := []sched.Policy{
		sched.DroopPolicy{},
		sched.IPCPolicy{},
		sched.HybridPolicy{N: 1},
		sched.HybridPolicy{N: 4},
	}
	fmt.Println("\nbatch schedules relative to SPECrate = (1.00, 1.00)  (Fig 18):")
	for _, p := range policies {
		ev := sched.EvaluateBatch(table, sched.BuildBatch(table, p, bcfg))
		fmt.Printf("  %-12s droops %.3f, perf %.3f\n", p.Name(), ev.Droops, ev.Perf)
	}
	var rd, rp float64
	random := sched.RandomBatches(table, bcfg, 20, 42)
	for _, b := range random {
		ev := sched.EvaluateBatch(table, b)
		rd += ev.Droops
		rp += ev.Perf
	}
	fmt.Printf("  %-12s droops %.3f, perf %.3f (centroid of %d)\n",
		"Random", rd/float64(len(random)), rp/float64(len(random)), len(random))

	fmt.Println("\npassing schedules per recovery cost (Tab I / Fig 19):")
	analyses := sched.AnalyzePassing(table, sched.PassConfig{
		Model:        resilient.DefaultModel(),
		Margins:      core.DefaultMargins(),
		Costs:        []float64{1, 10, 100, 1000, 10000, 100000},
		Corpus:       sched.CorpusFromTable(table),
		PassFraction: 0.97,
	}, []sched.Policy{sched.DroopPolicy{}, sched.IPCPolicy{}})
	fmt.Printf("  %-10s %-10s %-12s %-9s %-6s %-6s\n",
		"cost(cyc)", "margin(%)", "expected(%)", "SPECrate", "Droop", "IPC")
	for _, a := range analyses {
		fmt.Printf("  %-10.0f %-10.1f %-12.1f %-9d %-6d %-6d\n",
			a.RecoveryCost, a.OptimalMargin*100, a.ExpectedImprovement,
			a.SPECratePass, a.PolicyPass["Droop"], a.PolicyPass["IPC"])
	}
	fmt.Println("\nDroop-aware co-scheduling keeps more schedules inside the")
	fmt.Println("resilient design's performance envelope than IPC-aware")
	fmt.Println("scheduling, exactly the paper's closing argument.")
}

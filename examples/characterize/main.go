// Characterize reproduces the paper's Sec III-C event study interactively:
// it stimulates one core with each hand-crafted stall microbenchmark,
// measures the chip-wide voltage swing relative to an idling machine, then
// repeats the measurement with both cores active to expose cross-core
// interference — the single-core Fig 12 bars and the Fig 13 heatmap.
//
//	go run ./examples/characterize
package main

import (
	"fmt"

	"voltsmooth/internal/core"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

const (
	warmup = 15_000
	cycles = 60_000
)

// peakToPeak measures the chip-wide swing (percent of nominal) for the
// given per-core streams.
func peakToPeak(cfg uarch.Config, a, b workload.Stream) float64 {
	chip := uarch.NewChip(cfg)
	defer chip.PublishSteps()
	if a != nil {
		chip.SetStream(0, a)
	}
	if b != nil {
		chip.SetStream(1, b)
	}
	for i := 0; i < warmup; i++ {
		chip.Cycle()
	}
	scope := sense.NewScope(cfg.PDN.VNom, nil)
	for i := 0; i < cycles; i++ {
		scope.Sample(chip.Cycle())
	}
	return scope.PeakToPeakPercent()
}

func main() {
	cfg := uarch.DefaultConfig()

	idle := peakToPeak(cfg, nil, nil)
	fmt.Printf("idling machine: %.3f%% peak-to-peak (VRM ripple)\n\n", idle)

	fmt.Println("single-core stall events, swing relative to idle (Fig 12):")
	events := workload.EventKinds()
	for _, k := range events {
		rel := peakToPeak(cfg, workload.Microbenchmark(k), nil) / idle
		bar := ""
		for i := 0.0; i < rel; i += 0.5 {
			bar += "#"
		}
		fmt.Printf("  %-5s %6.2fx  %s\n", k, rel, bar)
	}

	fmt.Println("\ncross-core interference, swing relative to idle (Fig 13):")
	fmt.Printf("  %-6s", "c0\\c1")
	for _, k := range events {
		fmt.Printf(" %6s", k)
	}
	fmt.Println()
	for _, k1 := range events {
		fmt.Printf("  %-6s", k1)
		for _, k2 := range events {
			rel := peakToPeak(cfg, workload.Microbenchmark(k1), workload.Microbenchmark(k2)) / idle
			fmt.Printf(" %6.2f", rel)
		}
		fmt.Println()
	}

	fmt.Println("\nworst-case margin from the undervolting procedure (Sec II-C):")
	m := core.FindWorstCaseMargin(cfg, core.VCrit, 60_000, 0.01)
	fmt.Printf("  nominal supply:       %.3f V\n", m.NominalVolts)
	fmt.Printf("  virus fails at:       %.3f V supply\n", m.FailSupplyVolts)
	fmt.Printf("  virus droop there:    %.0f mV\n", m.VirusDroopVolts*1e3)
	fmt.Printf("  worst-case margin:    %.1f%% of nominal (paper: ~14%%)\n", 100*m.MarginFrac)
}

// Package core assembles the measurement platform of the paper's Sec II:
// a chip model (internal/uarch) on a power-delivery network (internal/pdn)
// observed by a scope (internal/sense). It is the entry point the
// characterization and scheduling experiments build on — the software
// equivalent of "Core 2 Duo + VCCsense probe + oscilloscope + VTune".
package core

import (
	"fmt"

	"voltsmooth/internal/counters"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// PhaseMargin is the hypothetical aggressive margin used purely for
// characterization (Sec IV-A) on the unmodified (Proc100) chip: the margin
// calibrated so that background activity falls within it and droop counts
// discriminate program behaviour instead of saturating. The paper's
// platform needed 2.3% for this; our simulated Proc100's background
// (VRM ripple plus ubiquitous L2-hit rings) stays within 1%.
const PhaseMargin = 0.010

// PhaseMarginFor returns the characterization margin for a chip with the
// given package-capacitance fraction. Reduced-decap chips ring harder on
// every event, so the margin that separates "program noise phases" from
// the ubiquitous background widens — on the Proc3 future-node stand-in it
// is 2.3%, the same value the paper uses for its Sec IV studies.
func PhaseMarginFor(capFraction float64) float64 {
	switch {
	case capFraction >= 0.5:
		return 0.010
	case capFraction >= 0.10:
		return 0.015
	default:
		return 0.023
	}
}

// TypicalMargin is the paper's typical-case boundary: most voltage samples
// stay within 4% of nominal (Fig 7).
const TypicalMargin = 0.04

// WorstCaseMargin is the Core 2 Duo's measured worst-case operating
// voltage margin: 14% below nominal (Sec II-C).
const WorstCaseMargin = 0.14

// DefaultMargins returns the margin set tracked during characterization
// runs: a 1%…14% sweep in half-point steps for the resilient-design
// studies (Figs 8–10, Tab I); the sweep's first entry is PhaseMargin.
// Values are computed from integer thousandths so they compare exactly
// equal to literals like 0.055.
func DefaultMargins() []float64 {
	var out []float64
	for i := 10; i <= 140; i += 5 {
		out = append(out, float64(i)/1000)
		if i == 20 {
			out = append(out, 0.023) // the Proc3 characterization margin
		}
	}
	return out
}

// RunConfig controls one measured execution.
type RunConfig struct {
	// Cycles is the run length in chip cycles.
	Cycles uint64
	// WarmupCycles are executed (and measured by nothing) before
	// measurement starts, letting current ramps settle.
	WarmupCycles uint64
	// Margins are the emergency thresholds tracked by the scope.
	// Nil means DefaultMargins().
	Margins []float64
	// IntervalCycles, when non-zero, records a droops-per-1K-cycles time
	// series with one point per interval (the Fig 14/16 phase traces),
	// counted at SeriesMargin.
	IntervalCycles uint64
	// SeriesMargin is the margin used for the time series; it must be in
	// Margins. Zero means PhaseMargin.
	SeriesMargin float64
}

// Result is everything one run measured.
type Result struct {
	Names    []string // workload name per core
	Cycles   uint64
	Counters []counters.Counters // per core, measurement window only
	Scope    *sense.Scope
	// DroopSeries is droops per 1K cycles per interval (empty when
	// IntervalCycles was zero).
	DroopSeries []float64
}

// IPC returns the retired IPC of the given core over the measured window.
func (r *Result) IPC(coreID int) float64 { return r.Counters[coreID].IPC() }

// TotalIPC returns the sum of per-core IPCs (the throughput measure used
// for IPC-based scheduling).
func (r *Result) TotalIPC() float64 {
	var s float64
	for i := range r.Counters {
		s += r.Counters[i].IPC()
	}
	return s
}

// StallRatio returns the stall ratio of the given core.
func (r *Result) StallRatio(coreID int) float64 { return r.Counters[coreID].StallRatio() }

// DroopsPerKCycle returns emergencies at the given margin per 1000 cycles.
func (r *Result) DroopsPerKCycle(margin float64) float64 {
	return counters.PerKCycles(r.Scope.Crossings(margin), r.Cycles)
}

// Run executes the given workloads (one per core; nil entries idle) for
// rc.Cycles measured cycles on a chip built from cfg, and returns the
// measured result. Runs are deterministic.
func Run(cfg uarch.Config, streams []workload.Stream, rc RunConfig) Result {
	margins, seriesMargin := rc.margins()
	chip, names := newChip(cfg, streams)
	for i := uint64(0); i < rc.WarmupCycles; i++ {
		chip.Cycle()
	}
	// Counter snapshot after warmup so results cover the window only.
	snaps := snapshot(chip)

	scope := sense.NewScope(cfg.PDN.VNom, margins)
	var series []float64
	var intervalStart uint64
	var crossingsAtStart uint64

	for i := uint64(0); i < rc.Cycles; i++ {
		scope.Sample(chip.Cycle())
		if rc.IntervalCycles > 0 && (i+1)-intervalStart >= rc.IntervalCycles {
			cur := scope.Crossings(seriesMargin)
			series = append(series, counters.PerKCycles(cur-crossingsAtStart, rc.IntervalCycles))
			crossingsAtStart = cur
			intervalStart = i + 1
		}
	}
	return result(chip, names, snaps, rc, scope, series)
}

// RunLanes runs the workloads once on a chip built from cfg and drives
// one power-delivery network per entry of nets from that chip's current,
// so every decap variant of one run costs one pipeline simulation. Lane
// l's result equals Run with cfg.PDN = nets[l] in every field: the
// pipeline never reads the die voltage, so each lane sees the current
// trace its own Run would draw, and pdn.StepCycleLanes steps each lane
// exactly as StepCycle would.
//
// One lane is Run itself, on the single-network kernel. Several lanes
// need the shared supply and no interval series (split-supply and
// phase-trace runs keep Run), and at most pdn.MaxLanes of them.
func RunLanes(cfg uarch.Config, nets []pdn.Params, streams []workload.Stream, rc RunConfig) []Result {
	if len(nets) == 1 {
		cfg.PDN = nets[0]
		return []Result{Run(cfg, streams, rc)}
	}
	if cfg.SplitSupply || rc.IntervalCycles > 0 {
		panic("core: RunLanes shares one supply per lane and records no interval series")
	}
	margins, _ := rc.margins()
	cfg.PDN = nets[0]
	chip, names := newChip(cfg, streams)
	lanes := make([]*pdn.Network, len(nets))
	scopes := make([]*sense.Scope, len(nets))
	for l, p := range nets {
		// NewChip settles its own network at the idle draw it reports.
		lanes[l] = pdn.NewAtLoad(p, chip.TotalCurrent())
		scopes[l] = sense.NewScope(p.VNom, margins)
	}
	v := make([]float64, len(nets))
	cycleTime := 1 / cfg.ClockHz
	for i := uint64(0); i < rc.WarmupCycles; i++ {
		pdn.StepCycleLanes(lanes, cycleTime, chip.CycleLoad(), cfg.Substeps, v)
	}
	snaps := snapshot(chip)
	for i := uint64(0); i < rc.Cycles; i++ {
		pdn.StepCycleLanes(lanes, cycleTime, chip.CycleLoad(), cfg.Substeps, v)
		for l, scope := range scopes {
			scope.Sample(v[l])
		}
	}
	out := make([]Result, len(nets))
	for l := range out {
		out[l] = result(chip, names, snaps, rc, scopes[l], nil)
	}
	return out
}

// margins resolves the run's margin set and series margin defaults.
func (rc RunConfig) margins() (margins []float64, seriesMargin float64) {
	if rc.Cycles == 0 {
		panic("core: RunConfig.Cycles must be positive")
	}
	margins = rc.Margins
	if margins == nil {
		margins = DefaultMargins()
	}
	seriesMargin = rc.SeriesMargin
	if seriesMargin == 0 {
		seriesMargin = PhaseMargin
	}
	return margins, seriesMargin
}

// newChip builds the run's chip with one stream per core (nil entries
// and missing ones idle) and returns it with the per-core workload names.
func newChip(cfg uarch.Config, streams []workload.Stream) (*uarch.Chip, []string) {
	if len(streams) > cfg.NumCores {
		panic(fmt.Sprintf("core: %d streams for %d cores", len(streams), cfg.NumCores))
	}
	chip := uarch.NewChip(cfg)
	names := make([]string, cfg.NumCores)
	for i := 0; i < cfg.NumCores; i++ {
		names[i] = "idle"
		if i < len(streams) && streams[i] != nil {
			chip.SetStream(i, streams[i])
			names[i] = streams[i].Name()
		}
	}
	return chip, names
}

// snapshot copies every core's counters.
func snapshot(chip *uarch.Chip) []counters.Counters {
	snaps := make([]counters.Counters, chip.Config().NumCores)
	for i := range snaps {
		snaps[i] = *chip.Counters(i)
	}
	return snaps
}

// result assembles one run's Result from the chip's counters since snaps.
func result(chip *uarch.Chip, names []string, snaps []counters.Counters, rc RunConfig,
	scope *sense.Scope, series []float64) Result {
	res := Result{
		Names:       names,
		Cycles:      rc.Cycles,
		Counters:    make([]counters.Counters, len(snaps)),
		Scope:       scope,
		DroopSeries: series,
	}
	for i := range res.Counters {
		res.Counters[i] = chip.Counters(i).Delta(snaps[i])
	}
	return res
}

// RunPair is the common two-core case: program a on core 0, b on core 1.
// Either may be nil (idle).
func RunPair(cfg uarch.Config, a, b workload.Stream, rc RunConfig) Result {
	return Run(cfg, []workload.Stream{a, b}, rc)
}

// RunSingle runs one program on core 0 with every other core idle —
// the paper's single-threaded configuration.
func RunSingle(cfg uarch.Config, s workload.Stream, rc RunConfig) Result {
	return Run(cfg, []workload.Stream{s}, rc)
}

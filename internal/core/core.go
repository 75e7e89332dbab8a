// Package core assembles the measurement platform of the paper's Sec II:
// a chip model (internal/uarch) on a power-delivery network (internal/pdn)
// observed by a scope (internal/sense). It is the entry point the
// characterization and scheduling experiments build on — the software
// equivalent of "Core 2 Duo + VCCsense probe + oscilloscope + VTune".
package core

import (
	"fmt"
	"math"

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
// measured result. Runs are deterministic. Run is RunLanes of one run on
// cfg.PDN.
func Run(cfg uarch.Config, streams []workload.Stream, rc RunConfig) Result {
	return RunLanes(cfg, []LaneRun{{Streams: streams, Nets: []pdn.Params{cfg.PDN}}}, rc)[0][0]
}

// LaneRun is one run of a lockstep group: the workloads on its chip's
// cores (nil entries and missing ones idle), the networks its chip's
// current drives, one per entry of Nets, and the split supplies it
// drives, one per entry of Split. A split supply divides its network
// into one rail per core (splitRail), each rail drawing only its own
// core's current, and senses its lowest rail, since an emergency on any
// rail forces a global recovery: the per-core supplies of the POWER6
// comparison the paper cites, which lose the averaging of the cores'
// uncorrelated draws that one shared network gives.
type LaneRun struct {
	Streams []workload.Stream
	Nets    []pdn.Params
	Split   []pdn.Params
}

// RunLanes runs several equal-length runs in lockstep: one chip per run,
// built from cfg, and every run's networks and split rails stepped
// together through one pdn.Lanes, each on its own chip's current or, for
// a rail, its own core's. Result [r][j] equals Run with cfg.PDN =
// runs[r].Nets[j] on runs[r].Streams in every field, interval series
// included, and result [r][len(runs[r].Nets)+s] is split supply
// runs[r].Split[s] measured the same way: the pipeline never reads the
// die voltage, so each network sees the current trace its own chip would
// draw, and Lanes steps each network exactly as StepCycle would. A run's
// chip integrates its first network itself, so a one-network run builds
// no network beyond its chip's.
//
// For the same reason the chips need not wait for their networks: a
// producer goroutine runs every chip a block of cycles ahead (startAhead),
// one chip at a time, and the caller's goroutine steps the Lanes and
// samples the scopes over each finished block, so a group keeps two
// goroutines busy. The producer takes each chip's counter snapshot at the
// warmup boundary, and a panic on it is re-raised on the caller's
// goroutine.
func RunLanes(cfg uarch.Config, runs []LaneRun, rc RunConfig) [][]Result {
	margins, seriesMargin := rc.margins()
	if len(runs) == 0 {
		return nil
	}
	chips := make([]*uarch.Chip, len(runs))
	names := make([][]string, len(runs))
	var nets []*pdn.Network
	var load []int
	for r, run := range runs {
		c := cfg
		if len(run.Nets) > 0 {
			c.PDN = run.Nets[0]
		}
		chips[r], names[r] = newChip(c, run.Streams)
		for l, p := range run.Nets {
			// NewChip settles its own network at the idle draw it reports.
			n := chips[r].Network()
			if l > 0 {
				n = pdn.NewAtLoad(p, chips[r].TotalCurrent())
			}
			nets = append(nets, n)
			load = append(load, r)
		}
	}
	// The split rails follow every run's Nets, so network j < nShared is
	// sensed by scope j. Split supply s is the rails
	// nets[rails[s]:rails[s]+numCores], one per core, and a run with a
	// split supply loads its cores' draws at coreLoads[r] onwards of each
	// cycle's loads, after every chip's total (-1 for the other runs).
	nShared, numCores := len(nets), cfg.NumCores
	var rails []int
	coreLoads := make([]int, len(runs))
	width := len(runs)
	for r, run := range runs {
		coreLoads[r] = -1
		if len(run.Split) == 0 {
			continue
		}
		coreLoads[r] = width
		perRail := chips[r].TotalCurrent() / float64(numCores)
		for _, p := range run.Split {
			rails = append(rails, len(nets))
			rail := splitRail(p, numCores)
			for i := 0; i < numCores; i++ {
				nets = append(nets, pdn.NewAtLoad(rail, perRail))
				load = append(load, width+i)
			}
		}
		width += numCores
	}
	lanes := pdn.NewLanes(nets, load, 1/cfg.ClockHz, cfg.Substeps)
	defer func() {
		lanes.Close()
		for _, n := range nets {
			n.PublishSteps()
		}
	}()

	scopes := make([]*sense.Scope, nShared+len(rails))
	for j, n := range nets[:nShared] {
		scopes[j] = sense.NewScope(n.Params().VNom, margins)
	}
	split := scopes[nShared:]
	for s, lo := range rails {
		split[s] = sense.NewScope(nets[lo].Params().VNom, margins)
	}
	series := make([][]float64, len(scopes))
	var intervalStart uint64
	crossingsAtStart := make([]uint64, len(scopes))

	snaps := make([][]counters.Counters, len(runs))
	total := rc.WarmupCycles + rc.Cycles
	blocks := startAhead(total, width, func(lo uint64, loads []float64) {
		for r, chip := range chips {
			for c := 0; c*width < len(loads); c++ {
				if lo+uint64(c) == rc.WarmupCycles {
					snaps[r] = snapshot(chip)
				}
				row := loads[c*width : (c+1)*width]
				row[r] = chip.CycleLoad()
				if first := coreLoads[r]; first >= 0 {
					cores := row[first : first+numCores]
					for i := range cores {
						cores[i] = chip.CoreCurrent(i)
					}
				}
			}
		}
	})
	defer blocks.close()
	for lo := uint64(0); lo < total; lo += blockCycles {
		loads := blocks.next()
		for c := 0; c*width < len(loads); c++ {
			v := lanes.Step(loads[c*width : (c+1)*width])
			if lo+uint64(c) < rc.WarmupCycles {
				continue
			}
			i := lo + uint64(c) - rc.WarmupCycles // the measured cycle
			for j, scope := range scopes[:nShared] {
				scope.Sample(v[j])
			}
			for s, scope := range split {
				vMin := math.Inf(1)
				for _, vr := range v[rails[s] : rails[s]+numCores] {
					if vr < vMin {
						vMin = vr
					}
				}
				scope.Sample(vMin)
			}
			if rc.IntervalCycles > 0 && (i+1)-intervalStart >= rc.IntervalCycles {
				for j, scope := range scopes {
					cur := scope.Crossings(seriesMargin)
					series[j] = append(series[j], counters.PerKCycles(cur-crossingsAtStart[j], rc.IntervalCycles))
					crossingsAtStart[j] = cur
				}
				intervalStart = i + 1
			}
		}
		blocks.release(loads)
	}

	// flat has room for every result, so out[r] stays a view of it.
	flat := make([]Result, 0, len(scopes))
	out := make([][]Result, len(runs))
	j, s := 0, nShared
	for r, run := range runs {
		lo := len(flat)
		for range run.Nets {
			flat = append(flat, result(chips[r], names[r], snaps[r], rc, scopes[j], series[j]))
			j++
		}
		for range run.Split {
			flat = append(flat, result(chips[r], names[r], snaps[r], rc, scopes[s], series[s]))
			s++
		}
		out[r] = flat[lo:len(flat):len(flat)]
	}
	return out
}

// splitRail divides the network p across n rails: each rail keeps 1/n of
// every capacitance and n times every resistance and inductance
// (parallel composition in reverse).
func splitRail(p pdn.Params, n int) pdn.Params {
	f := float64(n)
	p.C1 /= f
	p.C2 /= f
	p.C3 /= f
	p.CPlane /= f
	p.R0 *= f
	p.R1 *= f
	p.R2 *= f
	p.ESR1 *= f
	p.ESR2 *= f
	p.ESR3 *= f
	p.ESL2 *= f
	p.L0 *= f
	p.L1 *= f
	p.L2 *= f
	return p
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

package core

import (
	"math"

	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// VCrit is the circuit-level failure voltage of the modeled chip: the
// instantaneous die voltage below which timing closure is lost and a
// functional error occurs. It is chosen so the worst-case operating margin
// (VNom − VCrit)/VNom comes out at the paper's measured 14%.
const VCrit = 1.075

// MarginMeasurement is the outcome of the Sec II-C undervolting procedure.
type MarginMeasurement struct {
	// NominalVolts is the unmodified supply voltage.
	NominalVolts float64
	// FailSupplyVolts is the highest supply setting at which the chip
	// failed stress testing under the power virus.
	FailSupplyVolts float64
	// VirusDroopVolts is the deepest droop the virus produced at the
	// failing supply setting.
	VirusDroopVolts float64
	// MarginFrac is the inferred worst-case operating margin:
	// (VNom − VCrit)/VNom, the guardband that tolerates the worst
	// transient swing on top of the failure threshold.
	MarginFrac float64
}

// FindWorstCaseMargin reproduces the Sec II-C experiment: "we
// progressively undervolt the processor while maintaining its clock
// frequency [until] a functional error, which we detect when the
// processor fails stress-testing under multiple copies of the power
// virus." Both cores run a resonance-tuned dI/dt virus; the supply is
// lowered in stepVolts decrements until some cycle's voltage dips below
// vCrit.
func FindWorstCaseMargin(cfg uarch.Config, vCrit float64, cycles uint64, stepVolts float64) MarginMeasurement {
	vnom := cfg.PDN.VNom
	burst, gap := resonantPeriod(cfg)

	deepestDroop := func(supply float64) float64 {
		c := cfg
		c.PDN.VNom = supply
		chip := uarch.NewChip(c)
		defer chip.PublishSteps()
		chip.SetStream(0, workload.ResonantVirus(burst, gap))
		chip.SetStream(1, workload.ResonantVirus(burst, gap))
		minV := math.Inf(1)
		for i := uint64(0); i < cycles; i++ {
			if v := chip.Cycle(); v < minV {
				minV = v
			}
		}
		return supply - minV
	}

	supply := vnom
	droop := deepestDroop(supply)
	for supply-droop >= vCrit && supply > vCrit {
		supply -= stepVolts
		droop = deepestDroop(supply)
	}
	return MarginMeasurement{
		NominalVolts:    vnom,
		FailSupplyVolts: supply,
		VirusDroopVolts: droop,
		MarginFrac:      (vnom - vCrit) / vnom,
	}
}

// resonantPeriod picks the burst/gap instruction counts that put the
// dI/dt virus's square-wave current draw at the platform's resonance
// frequency. The virus issues bursts at full width (one instruction ≈ a
// quarter cycle) and idles one cycle per gap instruction, so a resonance
// period of P cycles maps to roughly 4·(P/2) burst instructions and P/2
// gap instructions.
func resonantPeriod(cfg uarch.Config) (burst, gap int) {
	chipIdle := uarch.NewChip(cfg)
	fRes, _ := chipIdle.Network().ResonancePeak(1e6, 1e9, 300)
	periodCycles := cfg.ClockHz / fRes
	half := int(periodCycles / 2)
	if half < 1 {
		half = 1
	}
	return half * cfg.IssueWidth, half
}

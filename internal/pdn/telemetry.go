package pdn

import "voltsmooth/internal/telemetry"

// pdnSteps counts integrator substeps executed by StepCycle and
// StepCycleLanes, one per network per substep — the innermost per-cycle
// unit of every simulation. It is added once per cycle and never touches
// the network state, so results are bit-identical whether it is bound or
// not.
var pdnSteps = telemetry.DeclareCounter("pdn.steps")

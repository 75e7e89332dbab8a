package pdn

import "voltsmooth/internal/telemetry"

// pdnSteps counts integrator substeps executed by StepCycle and Lanes,
// one per network per substep — the innermost per-cycle unit of every
// simulation. Each Network counts its own substeps and adds
// them here in PublishSteps, once per run, so the per-cycle path never
// touches it and results are bit-identical whether it is bound or not.
var pdnSteps = telemetry.DeclareCounter("pdn.steps")

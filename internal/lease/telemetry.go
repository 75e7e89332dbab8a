package lease

import "voltsmooth/internal/telemetry"

// The lease layer's instruments. Claims, releases and fences also emit
// lease.claim / lease.release / lease.fenced events.
var (
	// leaseClaims counts successful claim transactions (epoch bumps).
	leaseClaims = telemetry.DeclareCounter("lease.claims")
	// leaseTakeovers counts claims over another worker's expired lease —
	// the dead-worker failovers.
	leaseTakeovers = telemetry.DeclareCounter("lease.takeovers")
	// leaseRefused counts claims refused because a peer's lease was live.
	leaseRefused = telemetry.DeclareCounter("lease.refused")
	// leaseRenewals counts successful heartbeat renewals.
	leaseRenewals = telemetry.DeclareCounter("lease.renewals")
	// leaseReleases counts deliberate releases.
	leaseReleases = telemetry.DeclareCounter("lease.releases")
	// leaseFenced counts mutations rejected because the handle's epoch was
	// superseded — each one is a stale write the fence stopped.
	leaseFenced = telemetry.DeclareCounter("lease.fenced")
)

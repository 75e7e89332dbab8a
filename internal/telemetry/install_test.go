package telemetry_test

import (
	"context"
	"reflect"
	"sort"
	"testing"

	// The nine instrumented packages: linking them runs their
	// declarations, so Install sees every instrument a binary can carry.
	_ "voltsmooth/internal/api"
	_ "voltsmooth/internal/chaos"
	"voltsmooth/internal/experiments"
	_ "voltsmooth/internal/failsafe"
	_ "voltsmooth/internal/journal"
	_ "voltsmooth/internal/lease"
	_ "voltsmooth/internal/pdn"
	_ "voltsmooth/internal/runner"
	_ "voltsmooth/internal/sched"
	"voltsmooth/internal/telemetry"
)

// TestInstallPublishesGoldenNames pins the exact instrument set a fresh
// Install publishes at GET /metrics: a name dropped, renamed or added
// fails here, and a name declared twice panics at start-up.
func TestInstallPublishesGoldenNames(t *testing.T) {
	want := map[string][]string{
		"counters": {
			"api.cache_evicted", "api.cache_followed", "api.cache_hits", "api.cache_misses",
			"api.jobs_admitted", "api.jobs_canceled", "api.jobs_completed",
			"api.jobs_deadline_infeasible", "api.jobs_failed", "api.jobs_preempted",
			"api.jobs_recovered", "api.jobs_rejected", "api.jobs_shed", "api.jobs_submitted",
			"api.jobs_unavailable", "api.sse_dropped", "api.sse_streams",
			"chaos.faults", "chaos.kills",
			"exp.completed", "exp.emergencies", "exp.units",
			"failsafe.emergencies", "failsafe.flushes", "failsafe.replayed_cycles",
			"failsafe.rollbacks", "failsafe.stall_cycles",
			"journal.appends", "journal.failures", "journal.replays",
			"lease.claims", "lease.fenced", "lease.refused", "lease.releases",
			"lease.renewals", "lease.takeovers",
			"pdn.steps",
			"runner.aborts", "runner.attempts", "runner.completed", "runner.failures",
			"runner.retries", "runner.stalls",
			"sched.cells", "sched.emergencies", "sched.quanta", "sched.swaps",
		},
		"gauges":  {"api.draining", "api.jobs_running", "api.queue_depth", "runner.inflight"},
		"timings": {"exp.wall_ms"},
	}
	reg := telemetry.NewRegistry()
	defer telemetry.Install(reg, nil)()
	s := reg.Snapshot()
	got := map[string][]string{"counters": nil, "gauges": nil, "timings": nil}
	for name := range s.Counters {
		got["counters"] = append(got["counters"], name)
	}
	for name := range s.Gauges {
		got["gauges"] = append(got["gauges"], name)
	}
	for name := range s.Timings {
		got["timings"] = append(got["timings"], name)
	}
	for kind, names := range got {
		sort.Strings(names)
		if !reflect.DeepEqual(names, want[kind]) {
			t.Errorf("%s:\n  got  %q\n  want %q", kind, names, want[kind])
		}
	}
}

// TestDeclaringANameTwicePanics covers the other half of the golden test:
// a second declaration of a name, under any kind, is refused.
func TestDeclaringANameTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("redeclaring pdn.steps as a gauge did not panic")
		}
	}()
	telemetry.DeclareGauge("pdn.steps")
}

// TestInstallUninstallRestoresPrevious checks that the uninstall closure
// restores whatever bindings were installed before (here: none).
func TestInstallUninstallRestoresPrevious(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTrace(16)
	uninstall := telemetry.Install(reg, tr)
	uninstall()

	reg2 := telemetry.NewRegistry()
	uninstall2 := telemetry.Install(reg2, nil)
	defer uninstall2()
	if got := reg2.Counter("pdn.steps").Load(); got != 0 {
		t.Fatalf("fresh registry counter nonzero: %d", got)
	}
}

// TestTelemetryOutputBitIdentical is the determinism gate the telemetry
// layer is designed around: running an experiment with every instrument
// bound must render byte-for-byte the same text as running it with
// telemetry off. The chosen experiments cover every instrumented package —
// fig7 (corpus measurement: pdn steps, experiment units), fig16 (online
// sliding-window scheduler), fig18 (pair table cells), figx-recovery
// (failsafe emergencies, flushes, rollbacks).
func TestTelemetryOutputBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several tiny-scale experiments twice")
	}
	for _, id := range []string{"fig7", "fig16", "fig18", "figx-recovery"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, err := experiments.Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			render := func() string {
				s := experiments.NewSession(experiments.Tiny())
				r, err := s.Run(context.Background(), e)
				if err != nil {
					t.Fatal(err)
				}
				return r.Render()
			}

			off := render()

			reg := telemetry.NewRegistry()
			tr := telemetry.NewTrace(0)
			uninstall := telemetry.Install(reg, tr)
			on := render()
			uninstall()

			if off != on {
				t.Fatalf("%s output changed with telemetry installed:\n--- off ---\n%s\n--- on ---\n%s", id, off, on)
			}
			// The run must actually have been observed, or the comparison
			// proves nothing.
			s := reg.Snapshot()
			if s.Counters["exp.completed"] == 0 || s.Counters["pdn.steps"] == 0 {
				t.Fatalf("%s ran with telemetry installed but it saw nothing: %+v", id, s.Counters)
			}
			if tr.Total() == 0 {
				t.Fatalf("%s emitted no trace events", id)
			}
		})
	}
}

// TestTelemetryCoversInstrumentedPackages asserts each instrumented
// subsystem reports activity under an experiment known to exercise it.
func TestTelemetryCoversInstrumentedPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("runs tiny-scale experiments")
	}
	cases := []struct {
		id       string
		counters []string
	}{
		{"fig7", []string{"pdn.steps", "exp.units", "exp.completed"}},
		{"ext1", []string{"pdn.steps", "sched.quanta", "exp.completed"}},
		{"fig18", []string{"sched.cells", "exp.completed"}},
		{"figx-recovery", []string{"failsafe.emergencies", "sched.quanta", "exp.completed"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.id, func(t *testing.T) {
			e, err := experiments.Lookup(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
			defer uninstall()
			s := experiments.NewSession(experiments.Tiny())
			if _, err := s.Run(context.Background(), e); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			for _, name := range tc.counters {
				if snap.Counters[name] == 0 {
					t.Errorf("%s: counter %s stayed zero; snapshot: %+v", tc.id, name, snap.Counters)
				}
			}
		})
	}
}

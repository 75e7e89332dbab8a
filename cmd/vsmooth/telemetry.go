package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/failsafe"
	"voltsmooth/internal/runner"
	"voltsmooth/internal/sched"
	"voltsmooth/internal/telemetry"
)

// campaignTelemetry is the optional observability surface of one run: a
// metrics registry and event trace installed for every instrumented
// package, the /metrics+pprof HTTP endpoint, a periodic status line, a
// JSONL trace export, and an end-of-run summary table. All of its output
// goes to stderr, the trace file, or the HTTP endpoint — never stdout,
// which carries figures and must stay bit-identical with telemetry on or
// off.
type campaignTelemetry struct {
	reg   *telemetry.Registry
	trace *telemetry.Trace

	uninstall func()

	traceFile *os.File
	tracePath string

	listener net.Listener
	server   *http.Server

	statusStop chan struct{}
	statusDone chan struct{}
}

// startTelemetry validates and brings up the telemetry surface. Any
// failure to claim a resource (the metrics listen address, the trace file)
// is returned before the campaign starts, so a misconfigured run fails
// fast instead of hours in. A config with no telemetry flags set returns a
// nil surface (and installs nothing).
func startTelemetry(cfg runConfig) (*campaignTelemetry, error) {
	if cfg.metricsAddr == "" && cfg.tracePath == "" && cfg.status <= 0 {
		return nil, nil
	}

	t := &campaignTelemetry{
		reg:   telemetry.NewRegistry(),
		trace: telemetry.NewTrace(0),
	}

	if cfg.tracePath != "" {
		f, err := os.Create(cfg.tracePath)
		if err != nil {
			return nil, fmt.Errorf("open -trace file: %w", err)
		}
		t.traceFile = f
		t.tracePath = cfg.tracePath
	}

	if cfg.metricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			if t.traceFile != nil {
				t.traceFile.Close()
			}
			return nil, fmt.Errorf("listen on -metrics-addr: %w", err)
		}
		t.listener = ln
		t.server = &http.Server{Handler: telemetry.Handler()}
		go t.server.Serve(ln)
		fmt.Fprintf(os.Stderr, "vsmooth: metrics at http://%s/metrics\n", ln.Addr())
	}

	t.uninstall = telemetry.Install(t.reg, t.trace)

	if cfg.status > 0 {
		t.statusStop = make(chan struct{})
		t.statusDone = make(chan struct{})
		go t.statusLoop(cfg.status)
	}
	return t, nil
}

// statusLoop prints a one-line campaign status to stderr every interval
// until stopped: completed units, retries so far, and emergencies observed
// across every subsystem (corpus characterization, failsafe engine, online
// scheduler).
func (t *campaignTelemetry) statusLoop(interval time.Duration) {
	defer close(t.statusDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.statusStop:
			return
		case <-tick.C:
			fmt.Fprintln(os.Stderr, statusLine())
		}
	}
}

// statusLine reads the installed instruments, which are t.reg's while the
// campaign runs.
func statusLine() string {
	emergencies := experiments.ExpEmergencies.Load() +
		failsafe.FailsafeEmergencies.Load() +
		sched.SchedEmergencies.Load()
	return fmt.Sprintf("vsmooth: status units=%d cells=%d inflight=%d retries=%d emergencies=%d",
		experiments.ExpUnits.Load(), sched.SchedCells.Load(),
		runner.RunnerInFlight.Load(), runner.RunnerRetries.Load(), emergencies)
}

// close tears the surface down in dependency order — status loop,
// instrument bindings, HTTP server, trace export — and prints the
// end-of-run summary. It reports the first error (a failed trace export
// is the only expected one).
func (t *campaignTelemetry) close() error {
	if t == nil {
		return nil
	}
	if t.statusStop != nil {
		close(t.statusStop)
		<-t.statusDone
	}
	if t.uninstall != nil {
		t.uninstall()
	}
	if t.server != nil {
		t.server.Close()
	}

	var first error
	if t.traceFile != nil {
		if err := t.trace.WriteJSONL(t.traceFile); err != nil && first == nil {
			first = fmt.Errorf("write -trace file: %w", err)
		}
		if err := t.traceFile.Close(); err != nil && first == nil {
			first = fmt.Errorf("close -trace file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "vsmooth: trace: %d event(s) to %s (%d dropped from ring)\n",
			t.trace.Len(), t.tracePath, t.trace.Dropped())
	}

	t.printSummary()
	return first
}

// printSummary writes the end-of-run metrics table to stderr: every
// counter and gauge with a nonzero value, then timing summaries.
func (t *campaignTelemetry) printSummary() {
	s := t.reg.Snapshot()
	fmt.Fprintln(os.Stderr, "vsmooth: campaign telemetry:")

	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for k := range s.Counters {
		names = append(names, k)
	}
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if v, ok := s.Counters[k]; ok {
			if v != 0 {
				fmt.Fprintf(os.Stderr, "  %-26s %d\n", k, v)
			}
			continue
		}
		if v := s.Gauges[k]; v != 0 {
			fmt.Fprintf(os.Stderr, "  %-26s %d\n", k, v)
		}
	}

	tnames := make([]string, 0, len(s.Timings))
	for k := range s.Timings {
		tnames = append(tnames, k)
	}
	sort.Strings(tnames)
	for _, k := range tnames {
		ts := s.Timings[k]
		if ts.Count == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "  %-26s count=%d mean=%.1fms p50=%.1fms p99=%.1fms max=%.1fms\n",
			k, ts.Count, ts.MeanMs, ts.P50Ms, ts.P99Ms, ts.MaxMs)
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/telemetry"
)

// TestMetricsEndpointServesLiveCounters is the end-to-end telemetry smoke
// test: bring the surface up exactly as the CLI does (startTelemetry),
// run a tiny campaign, and — from the campaign's own progress callback,
// while measurement is still in flight — hit /metrics and assert it serves
// live, nonzero counters, then require the pprof index on the same
// listener. Short-mode friendly: one tiny experiment, a few seconds.
func TestMetricsEndpointServesLiveCounters(t *testing.T) {
	tel, err := startTelemetry(runConfig{metricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tel.close()
	url := fmt.Sprintf("http://%s/metrics", tel.listener.Addr())

	// Probe the endpoint once mid-campaign, from the first progress
	// callback after a few units have landed.
	var (
		once     sync.Once
		probed   telemetry.Snapshot
		probeErr error
	)
	probe := func() {
		var payload telemetry.Snapshot
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get(url)
		if err != nil {
			probeErr = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			probeErr = fmt.Errorf("GET %s: %s", url, resp.Status)
			return
		}
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			probeErr = fmt.Errorf("decode /metrics JSON: %w", err)
			return
		}
		probed = payload
	}

	var units int
	ctx := experiments.WithProgress(context.Background(), func(unit string) {
		units++
		if units >= 3 && strings.HasPrefix(unit, "corpus/") {
			once.Do(probe)
		}
	})

	e, err := experiments.Lookup("fig7")
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.NewSession(experiments.Tiny())
	s.Workers = 1 // serial sweep: the progress callback needs no locking
	if _, err := s.Run(ctx, e); err != nil {
		t.Fatal(err)
	}

	if probeErr != nil {
		t.Fatal(probeErr)
	}
	if probed.Counters == nil {
		t.Fatal("campaign finished without the mid-run probe firing")
	}
	if got := probed.Counters["exp.units"]; got == 0 {
		t.Errorf("mid-campaign /metrics snapshot shows no completed units: %+v", probed.Counters)
	}
	if got := probed.Counters["pdn.steps"]; got == 0 {
		t.Errorf("mid-campaign /metrics snapshot shows no PDN steps: %+v", probed.Counters)
	}

	pprofURL := fmt.Sprintf("http://%s/debug/pprof/", tel.listener.Addr())
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(pprofURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET %s: %s", pprofURL, resp.Status)
	}
}

// TestStatusLineShape pins the live status line's fields so operators (and
// log scrapers) can rely on them.
func TestStatusLineShape(t *testing.T) {
	reg := telemetry.NewRegistry()
	defer telemetry.Install(reg, nil)()
	reg.Counter("exp.units").Add(7)
	reg.Counter("runner.retries").Add(2)
	reg.Counter("exp.emergencies").Add(40)
	reg.Counter("failsafe.emergencies").Add(2)
	got := statusLine()
	want := "vsmooth: status units=7 cells=0 inflight=0 retries=2 emergencies=42"
	if got != want {
		t.Errorf("status line:\n  got  %q\n  want %q", got, want)
	}
}

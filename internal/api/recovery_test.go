package api_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/telemetry"
)

// TestRecoveryResumesUnfinishedJob pins the crash-recovery contract at the
// server-lifecycle level: a job interrupted mid-run (server torn down
// under it) is re-enqueued by the next boot over the same store, resumes
// from its journal, and finishes with a result identical to an
// uninterrupted run. The subprocess e2e (test/e2e) does the same with a
// real SIGKILL; this test covers the in-process recovery machinery where
// the race detector can see it.
func TestRecoveryResumesUnfinishedJob(t *testing.T) {
	dir := t.TempDir()
	open := func(mutate func(*api.Config)) (*api.Server, *httptest.Server) {
		st, err := api.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := api.Config{Store: st, DefaultSessionWorkers: 4, Logf: t.Logf}
		if mutate != nil {
			mutate(&cfg)
		}
		srv, err := api.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.Handler())
	}

	// Reference: the same spec run to completion uninterrupted.
	spec := tinySpec()
	refSrv, refHS := open(nil)
	var refAck map[string]string
	submit(t, refHS.URL, "ref", spec, &refAck)
	refStatus := waitTerminal(t, refHS.URL, refAck["id"])
	if refStatus.State != api.StateDone {
		t.Fatalf("reference job: %s (%s)", refStatus.State, refStatus.Error)
	}
	var refRes api.Result
	getJSON(t, refHS.URL+"/jobs/"+refAck["id"]+"/result", &refRes)
	refHS.Close()
	refSrv.Close()

	// Boot 1 over a second store: hold the worker at the BeforeJob seam,
	// then tear the server down under the job. runJob proceeds into an
	// already-cancelled context, classifies the interruption as a shutdown,
	// and leaves the job queued on disk (no result.json).
	dir = t.TempDir()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv1, hs1 := open(func(c *api.Config) {
		c.JobWorkers = 1
		c.BeforeJob = func(string) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		}
	})
	var ack map[string]string
	if resp := submit(t, hs1.URL, "crashy", spec, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := ack["id"]
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked the job up")
	}
	hs1.Close()
	go func() {
		// Close cancels the jobs context first; releasing the seam after
		// that lets the held worker run into the dead context and unwind.
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	srv1.Close()

	// Boot 2 over the same store: the job must come back queued, be
	// re-enqueued, and run to done.
	srv2, hs2 := open(nil)
	defer srv2.Close()
	defer hs2.Close()
	st := waitTerminal(t, hs2.URL, id)
	if st.State != api.StateDone {
		t.Fatalf("recovered job: %s (%s), want done", st.State, st.Error)
	}
	if !st.Recovered {
		t.Error("recovered job's status does not report recovered=true")
	}

	var res api.Result
	if code := getJSON(t, hs2.URL+"/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("recovered result: status %d", code)
	}
	if res.Renders["fig7"] != refRes.Renders["fig7"] {
		t.Error("recovered run's rendered figure differs from the uninterrupted reference")
	}

	// Boot 3: a terminal job is served straight from its persisted result,
	// not re-run.
	srv3, hs3 := open(nil)
	defer srv3.Close()
	defer hs3.Close()
	var st3 api.Status
	if code := getJSON(t, hs3.URL+"/jobs/"+id, &st3); code != http.StatusOK || st3.State != api.StateDone {
		t.Fatalf("boot 3 status: code=%d state=%s, want 200/done", code, st3.State)
	}
	var res3 api.Result
	getJSON(t, hs3.URL+"/jobs/"+id+"/result", &res3)
	if res3.Renders["fig7"] != refRes.Renders["fig7"] {
		t.Error("persisted result drifted across reboots")
	}
}

// TestTwoJobsProgressDoesNotBleed pins satellite fix #2: per-job progress
// is fed only from job-scoped observers, so two jobs running under the
// process-wide instruments report their own unit counts, while the global
// registry accumulates the process-wide total. Before the fix, feeding job
// progress from the global hooks made the second job inherit the first
// job's units.
func TestTwoJobsProgressDoesNotBleed(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	_, hs := newTestServer(t, func(c *api.Config) {
		c.JobWorkers = 2 // concurrent: the harshest interleaving
		// This test pins progress isolation between two *executing* jobs;
		// identical-spec dedup (DESIGN §12) would serve B from A's run, so
		// opt out of the cache to keep both campaigns live.
		c.DisableCache = true
	})

	var ackA, ackB map[string]string
	if resp := submit(t, hs.URL, "a", tinySpec(), &ackA); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %d", resp.StatusCode)
	}
	if resp := submit(t, hs.URL, "b", tinySpec(), &ackB); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %d", resp.StatusCode)
	}
	stA := waitTerminal(t, hs.URL, ackA["id"])
	stB := waitTerminal(t, hs.URL, ackB["id"])
	if stA.State != api.StateDone || stB.State != api.StateDone {
		t.Fatalf("jobs finished %s/%s, want done/done", stA.State, stB.State)
	}

	// Scoped: each job saw exactly its own campaign's units.
	if stA.Progress.Units == 0 {
		t.Fatal("job A reports zero units")
	}
	if stA.Progress.Units != stB.Progress.Units {
		t.Errorf("unit counts bleed: A=%d B=%d, want equal per-job counts",
			stA.Progress.Units, stB.Progress.Units)
	}
	if stA.Progress.ReplayedUnits != 0 || stB.Progress.ReplayedUnits != 0 {
		t.Errorf("fresh jobs report replayed units: A=%d B=%d",
			stA.Progress.ReplayedUnits, stB.Progress.ReplayedUnits)
	}

	// Global: the process-wide registry still accumulates both campaigns.
	snap := reg.Snapshot()
	if got, want := snap.Counters["exp.units"], stA.Progress.Units+stB.Progress.Units; got != want {
		t.Errorf("global exp.units = %d, want the cross-job total %d", got, want)
	}
	if snap.Counters["api.jobs_completed"] != 2 {
		t.Errorf("global api.jobs_completed = %d, want 2", snap.Counters["api.jobs_completed"])
	}
	if snap.Counters["api.jobs_admitted"] != 2 {
		t.Errorf("global api.jobs_admitted = %d, want 2", snap.Counters["api.jobs_admitted"])
	}

	// The /metrics endpoint serves the same snapshot.
	var metrics struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if code := getJSON(t, hs.URL+"/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	if metrics.Counters["api.jobs_submitted"] != 2 {
		t.Errorf("/metrics api.jobs_submitted = %d, want 2", metrics.Counters["api.jobs_submitted"])
	}
}

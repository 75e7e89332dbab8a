package api_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/chaos"
	"voltsmooth/internal/lease"
	"voltsmooth/internal/lease/leasetest"
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

// TestRecoveryWaitsOutDeadOwnersLease pins the one recovery path: boot
// recovery is the scanner's first pass, so a restart resumes a job the way
// a peer's failover does. Over a store whose unfinished job carries the
// live lease of a predecessor that died without releasing it — what a
// SIGKILL leaves — the booted server neither claims nor runs the job until
// that lease expires, then resumes it from its journal: recovered, with
// resumed units, byte-identical to an uninterrupted run. A graceful Drain
// releases its leases, so a server booted after one resumes at once.
func TestRecoveryWaitsOutDeadOwnersLease(t *testing.T) {
	noCache := func(c *api.Config) { c.DisableCache = true }
	_, hsRef := newTestServer(t, noCache)
	var ack map[string]string
	submit(t, hsRef.URL, "ref", longSpec(), &ack)
	if st := waitTerminal(t, hsRef.URL, ack["id"]); st.State != api.StateDone {
		t.Fatalf("reference job: %s (%s)", st.State, st.Error)
	}
	var ref api.Result
	getJSON(t, hsRef.URL+"/jobs/"+ack["id"]+"/result", &ref)

	// interrupt runs the campaign on a first server until it has
	// checkpointed units, then drains it past its deadline: the run unwinds
	// at its next boundary, the job stays unfinished on disk, and its lease
	// is released. The server's own TTL is long, so a lease left live would
	// hold the job for a minute.
	interrupt := func(t *testing.T, dir string) string {
		t.Helper()
		srv, hs := newFleetServer(t, dir, "drained", func(c *api.Config) {
			c.DisableCache = true
			c.LeaseTTL = time.Minute
		})
		var ack map[string]string
		submit(t, hs.URL, "tenant", longSpec(), &ack)
		waitRunningUnits(t, hs.URL, ack["id"], 3)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		srv.Drain(ctx)
		return ack["id"]
	}
	// resume boots a successor over dir and waits for the job's result.
	resume := func(t *testing.T, dir, id string) (api.Status, []lease.Event) {
		t.Helper()
		_, hs := newFleetServer(t, dir, "successor", noCache)
		st := waitTerminal(t, hs.URL, id)
		var res api.Result
		getJSON(t, hs.URL+"/jobs/"+id+"/result", &res)
		hist, err := lease.History(nil, filepath.Join(dir, "jobs", id))
		if err != nil {
			t.Fatal(err)
		}
		leasetest.AssertExclusiveOwnership(t, hist)
		if st.State != api.StateDone || !st.Recovered || res.ResumedUnits == 0 {
			t.Errorf("job %s: state %s (%s), recovered=%v, resumed_units=%d; want a recovered done job with resumed units",
				id, st.State, st.Error, st.Recovered, res.ResumedUnits)
		}
		if !reflect.DeepEqual(res.Renders, ref.Renders) {
			t.Errorf("job %s: resumed renders differ from the uninterrupted reference", id)
		}
		return st, hist
	}
	// claimAt is when worker first claimed the job, from its lease history.
	claimAt := func(t *testing.T, hist []lease.Event, worker string) time.Time {
		t.Helper()
		for _, ev := range hist {
			if ev.Op == "claim" && ev.WorkerID == worker {
				return time.Unix(0, ev.AtUnixNS)
			}
		}
		t.Fatalf("%s never claimed the job: %+v", worker, hist)
		return time.Time{}
	}

	t.Run("dead owner", func(t *testing.T) {
		dir := t.TempDir()
		id := interrupt(t, dir)
		dead := &lease.Manager{WorkerID: "dead", TTL: 2 * time.Second}
		h, err := dead.Claim(filepath.Join(dir, "jobs", id), id)
		if err != nil {
			t.Fatal(err)
		}
		expires := time.Unix(0, h.Lease().ExpiresUnixNS)

		st, hist := resume(t, dir, id)
		if at := claimAt(t, hist, "successor"); at.Before(expires) {
			t.Errorf("successor claimed at %s, before the dead owner's lease expired at %s", at, expires)
		}
		if started := time.Unix(0, st.StartedUnixNS); started.Before(expires) {
			t.Errorf("successor started the job at %s, before the dead owner's lease expired at %s", started, expires)
		}
	})

	t.Run("drained", func(t *testing.T) {
		dir := t.TempDir()
		id := interrupt(t, dir)
		booted := time.Now()
		_, hist := resume(t, dir, id)
		if wait := claimAt(t, hist, "successor").Sub(booted); wait > 10*time.Second {
			t.Errorf("successor claimed the drained job %s after boot, want at once", wait)
		}
	})
}

// TestResumedJobCountsUnitsOnce pins that a resumed job counts each unit
// once: a job whose journal holds every unit — its server died after the
// last checkpoint, before the result — replays all of them on the next
// boot and ends with its uninterrupted run's Units, its replays counted
// apart in ReplayedUnits.
func TestResumedJobCountsUnitsOnce(t *testing.T) {
	dir := t.TempDir()
	boot := func() *httptest.Server {
		srv, hs := newFleetServer(t, dir, "w1", func(c *api.Config) { c.DisableCache = true })
		t.Cleanup(srv.Close)
		return hs
	}
	hs := boot()
	var ack map[string]string
	submit(t, hs.URL, "tenant", tinySpec(), &ack)
	id := ack["id"]
	ref := waitTerminal(t, hs.URL, id)
	if ref.State != api.StateDone || ref.Progress.Units == 0 {
		t.Fatalf("reference run: %s with %d units", ref.State, ref.Progress.Units)
	}
	hs.Close()

	// Undo the terminal write: the store now reads as a server that died
	// after checkpointing the job's last unit.
	if err := os.Remove(filepath.Join(dir, "jobs", id, "result.json")); err != nil {
		t.Fatal(err)
	}
	hs = boot()
	st := waitTerminal(t, hs.URL, id)
	var res api.Result
	getJSON(t, hs.URL+"/jobs/"+id+"/result", &res)
	if st.State != api.StateDone || !st.Recovered || st.Progress.ReplayedUnits == 0 {
		t.Fatalf("resumed job: %s, recovered=%v, %d replayed; want a recovered done job with replays",
			st.State, st.Recovered, st.Progress.ReplayedUnits)
	}
	if st.Progress.Units != ref.Progress.Units || res.Units != ref.Progress.Units {
		t.Errorf("resumed job counts %d units (result %d), want the uninterrupted run's %d; %d of them replayed",
			st.Progress.Units, res.Units, ref.Progress.Units, st.Progress.ReplayedUnits)
	}
}

// TestRecoveryKillPointIgnoresStatusPolls pins that a status read draws
// nothing from the chaos plane. Every status carries the job's lease owner,
// read from disk; through the plane, each poll would move a seeded
// kill-point by its reads, so where a kill test's crash lands would depend
// on how often its client polled.
func TestRecoveryKillPointIgnoresStatusPolls(t *testing.T) {
	plane := chaos.NewFS(chaos.Plan{}, nil)
	_, hs := newTestServer(t, func(c *api.Config) { c.FS = plane })
	var ack map[string]string
	submit(t, hs.URL, "tenant", tinySpec(), &ack)
	if st := waitTerminal(t, hs.URL, ack["id"]); st.State != api.StateDone || st.Owner == "" {
		t.Fatalf("job: %s with owner %q, want done with its lease owner", st.State, st.Owner)
	}
	ops := plane.Ops()
	for i := 0; i < 20; i++ {
		var st api.Status
		getJSON(t, hs.URL+"/jobs/"+ack["id"], &st)
	}
	if got := plane.Ops(); got != ops {
		t.Errorf("20 status polls drew %d chaos-plane ops, want 0", got-ops)
	}
}

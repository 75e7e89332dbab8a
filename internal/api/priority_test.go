package api_test

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/lease"
)

// longSpec is a multi-experiment campaign (~3s at tiny scale) — long
// enough that a preemption can reliably land mid-run.
func longSpec() api.JobSpec {
	return api.JobSpec{Experiments: []string{"fig7", "fig9", "fig12"}, Scale: "tiny"}
}

// waitRunningUnits polls a job until it is running with at least n
// completed units — the window in which a preemption both lands mid-run
// and leaves a checkpoint worth resuming. Fails if the job goes terminal
// first (the spec was too short for the test's timing).
func waitRunningUnits(t *testing.T, base, id string, n uint64) {
	t.Helper()
	waitRunning(t, base, id, fmt.Sprintf("%d running units", n),
		func(st api.Status) bool { return st.Progress.Units >= n })
}

// waitRunning polls a job's status until it is running and ready holds;
// what names the awaited condition. Fails if the job goes terminal first.
func waitRunning(t *testing.T, base, id, what string, ready func(api.Status) bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		var st api.Status
		if code := getJSON(t, base+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		switch st.State {
		case api.StateRunning:
			if ready(st) {
				return
			}
		case api.StateDone, api.StateFailed, api.StateCanceled:
			t.Fatalf("job %s went %s before reaching %s", id, st.State, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, what)
}

// TestPreemptSuspendResume is the tentpole's determinism contract in one
// process: a bulk job preempted mid-campaign by an interactive arrival is
// suspended with its journal checkpoint, resumed after the interactive job
// finishes, and renders byte-identically to an unpreempted reference run
// of the same spec.
func TestPreemptSuspendResume(t *testing.T) {
	_, hs := newTestServer(t, func(c *api.Config) {
		c.JobWorkers = 1
		c.Preempt = true
		c.DisableCache = true // every job must actually execute
	})

	spec := longSpec()
	spec.Priority = api.PriorityBulk
	var ack map[string]string
	if resp := submit(t, hs.URL, "tenant-bulk", spec, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit bulk: status %d", resp.StatusCode)
	}
	bulkID := ack["id"]
	waitRunningUnits(t, hs.URL, bulkID, 3)

	fast := api.JobSpec{Experiments: []string{"fig8"}, Scale: "tiny", Priority: api.PriorityInteractive}
	if resp := submit(t, hs.URL, "tenant-ia", fast, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit interactive: status %d", resp.StatusCode)
	}
	iaID := ack["id"]

	// The interactive job must finish first — that is what preemption buys.
	iaSt := waitTerminal(t, hs.URL, iaID)
	if iaSt.State != api.StateDone {
		t.Fatalf("interactive job: %s (%s)", iaSt.State, iaSt.Error)
	}
	bulkSt := waitTerminal(t, hs.URL, bulkID)
	if bulkSt.State != api.StateDone {
		t.Fatalf("bulk job: %s (%s)", bulkSt.State, bulkSt.Error)
	}
	if bulkSt.Preemptions < 1 {
		t.Fatalf("bulk job reports %d preemptions, want >= 1", bulkSt.Preemptions)
	}

	var bulkRes api.Result
	if code := getJSON(t, hs.URL+"/jobs/"+bulkID+"/result", &bulkRes); code != http.StatusOK {
		t.Fatalf("GET bulk result: status %d", code)
	}
	if bulkRes.ResumedUnits == 0 {
		t.Fatal("preempted job resumed 0 units from its journal; the checkpoint was not used")
	}

	// Reference: the same campaign, uncontended and unpreempted.
	ref := longSpec()
	if resp := submit(t, hs.URL, "tenant-ref", ref, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit reference: status %d", resp.StatusCode)
	}
	refSt := waitTerminal(t, hs.URL, ack["id"])
	if refSt.State != api.StateDone {
		t.Fatalf("reference job: %s (%s)", refSt.State, refSt.Error)
	}
	var refRes api.Result
	if code := getJSON(t, hs.URL+"/jobs/"+ack["id"]+"/result", &refRes); code != http.StatusOK {
		t.Fatalf("GET reference result: status %d", code)
	}
	if !reflect.DeepEqual(bulkRes.Renders, refRes.Renders) {
		t.Fatal("preempted-then-resumed renders differ from the unpreempted reference")
	}
	// The resumed run counted again the units its preempted run counted;
	// the job still ends with the reference's count.
	if bulkSt.Progress.Units != refSt.Progress.Units || bulkRes.Units != refRes.Units {
		t.Errorf("preempted job counts %d units (result %d), want the reference's %d",
			bulkSt.Progress.Units, bulkRes.Units, refSt.Progress.Units)
	}
}

// TestFleetPreemptCrossWorkerResume exercises the release-for-requeue
// path: worker A preempts a bulk job and releases its lease with reason
// "preempted"; peer worker B claims it off the store and resumes it from
// the journal while A is still busy with the interactive job. The result
// must be byte-identical to an uncontended run, and the lease history must
// show exclusive ownership throughout.
func TestFleetPreemptCrossWorkerResume(t *testing.T) {
	dir := t.TempDir()
	mutate := func(c *api.Config) {
		c.Preempt = true
		c.DisableCache = true
	}
	_, hsA := newFleetServer(t, dir, "worker-a", mutate)
	st, err := api.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	spec := longSpec()
	spec.Priority = api.PriorityBulk
	var ack map[string]string
	if resp := submit(t, hsA.URL, "tenant-bulk", spec, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit bulk: status %d", resp.StatusCode)
	}
	bulkID := ack["id"]
	waitRunningUnits(t, hsA.URL, bulkID, 3)

	// A long interactive job keeps worker A's only slot busy after the
	// preemption, so the suspended bulk job's released lease is B's to
	// claim. B joins only once A runs the interactive job: an idle B's
	// scanner would otherwise claim the interactive job itself, leaving
	// A's slot free to re-claim the bulk job.
	fast := longSpec()
	fast.Priority = api.PriorityInteractive
	if resp := submit(t, hsA.URL, "tenant-ia", fast, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit interactive: status %d", resp.StatusCode)
	}
	waitRunning(t, hsA.URL, ack["id"], "running on worker-a",
		func(st api.Status) bool { return st.Owner == "worker-a" })
	_, _ = newFleetServer(t, dir, "worker-b", mutate)

	res := waitStoreResult(t, st, bulkID, time.Minute)
	if res.State != api.StateDone {
		t.Fatalf("bulk job: %s (%s)", res.State, res.Error)
	}
	if res.ResumedUnits == 0 {
		t.Fatal("cross-worker resume replayed 0 units; the checkpoint was not used")
	}

	hist, err := lease.History(nil, st.Dir()+"/jobs/"+bulkID)
	if err != nil {
		t.Fatal(err)
	}
	var sawPreemptRelease, resumedByB bool
	for _, ev := range hist {
		if ev.Op == "release" && ev.Reason == "preempted" {
			sawPreemptRelease = true
		}
		if sawPreemptRelease && ev.Op == "claim" && ev.WorkerID == "worker-b" {
			resumedByB = true
		}
	}
	if !sawPreemptRelease {
		t.Fatalf("lease history has no release with reason=preempted: %+v", hist)
	}
	if !resumedByB {
		t.Fatalf("worker-b never claimed the job after the preempted release: %+v", hist)
	}

	// Byte-identical to an uncontended single-process reference.
	_, hsRef := newTestServer(t, func(c *api.Config) { c.DisableCache = true })
	if resp := submit(t, hsRef.URL, "ref", longSpec(), &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit reference: status %d", resp.StatusCode)
	}
	refSt := waitTerminal(t, hsRef.URL, ack["id"])
	if refSt.State != api.StateDone {
		t.Fatalf("reference job: %s (%s)", refSt.State, refSt.Error)
	}
	var refRes api.Result
	if code := getJSON(t, hsRef.URL+"/jobs/"+ack["id"]+"/result", &refRes); code != http.StatusOK {
		t.Fatalf("GET reference result: status %d", code)
	}
	if !reflect.DeepEqual(res.Renders, refRes.Renders) {
		t.Fatal("cross-worker resumed renders differ from the uncontended reference")
	}
}

// TestShedWatermark pins graceful degradation under depth pressure: past
// the watermark, bulk submissions are shed with 429 + Retry-After while
// batch submissions still use the remaining headroom up to QueueCap.
func TestShedWatermark(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, hs := newTestServer(t, func(c *api.Config) {
		c.JobWorkers = 1
		c.QueueCap = 8
		c.ShedWatermark = 2
		c.DisableCache = true
		c.BeforeJob = func(string) { <-release } // park the worker
	})

	// One job parked in the worker plus two waiting: depth == 2 == the
	// watermark.
	for i := 0; i < 3; i++ {
		spec := tinySpec()
		spec.Seed = int64(i + 1)
		if resp := submit(t, hs.URL, "filler", spec, nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("filler %d: status %d", i, resp.StatusCode)
		}
	}

	bulk := tinySpec()
	bulk.Seed = 100
	bulk.Priority = api.PriorityBulk
	var errBody map[string]string
	resp := submit(t, hs.URL, "bulk-tenant", bulk, &errBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bulk past watermark: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 429 carries no Retry-After")
	}
	if !strings.Contains(errBody["error"], "shed") {
		t.Fatalf("shed error %q does not say shed", errBody["error"])
	}

	// Batch still admits at the same depth — only the lowest class sheds.
	batch := tinySpec()
	batch.Seed = 101
	if resp := submit(t, hs.URL, "batch-tenant", batch, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch at same depth: status %d, want 202", resp.StatusCode)
	}
}

// TestDeadlineSemantics covers deadline_ms end to end: an impossible
// deadline fails fast as deadline-infeasible without burning the slot, a
// generous one completes normally and surfaces in the status, and a
// negative one is a 400 at validation.
func TestDeadlineSemantics(t *testing.T) {
	_, hs := newTestServer(t, func(c *api.Config) {
		c.JobWorkers = 1
		c.DisableCache = true
	})

	// Seed the duration EWMA: the feasibility check compares a fresh job's
	// remaining budget against the average executed job, so one completed
	// job first makes the fail-fast deterministic.
	var ack map[string]string
	if resp := submit(t, hs.URL, "t", tinySpec(), &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit seed job: status %d", resp.StatusCode)
	}
	if st := waitTerminal(t, hs.URL, ack["id"]); st.State != api.StateDone {
		t.Fatalf("seed job: %s (%q)", st.State, st.Error)
	}

	hopeless := tinySpec()
	hopeless.Seed = 1
	hopeless.DeadlineMS = 1
	if resp := submit(t, hs.URL, "t", hopeless, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	st := waitTerminal(t, hs.URL, ack["id"])
	if st.State != api.StateFailed || !strings.Contains(st.Error, "deadline infeasible") {
		t.Fatalf("hopeless deadline: %s (%q), want failed deadline-infeasible", st.State, st.Error)
	}

	fine := tinySpec()
	fine.Seed = 2
	fine.DeadlineMS = 120_000
	if resp := submit(t, hs.URL, "t", fine, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	st = waitTerminal(t, hs.URL, ack["id"])
	if st.State != api.StateDone {
		t.Fatalf("generous deadline: %s (%q)", st.State, st.Error)
	}
	if st.DeadlineUnixNS == 0 {
		t.Fatal("status does not surface the job's deadline")
	}

	bad := tinySpec()
	bad.DeadlineMS = -5
	if resp := submit(t, hs.URL, "t", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline_ms: status %d, want 400", resp.StatusCode)
	}

	junk := tinySpec()
	junk.Priority = "urgent"
	if resp := submit(t, hs.URL, "t", junk, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority: status %d, want 400", resp.StatusCode)
	}
}

package api_test

import (
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/chaos"
	"voltsmooth/internal/lease"
	"voltsmooth/internal/lease/leasetest"
)

// newFleetServer opens a fleet-mode server over an existing (shared)
// store directory.
func newFleetServer(t *testing.T, dir, workerID string, mutate func(*api.Config)) (*api.Server, *httptest.Server) {
	t.Helper()
	st, err := api.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := api.Config{
		Store:                 st,
		JobWorkers:            1,
		DefaultSessionWorkers: 2,
		WorkerID:              workerID,
		LeaseTTL:              500 * time.Millisecond,
		ScanInterval:          100 * time.Millisecond,
		Logf: func(format string, args ...any) {
			t.Logf(workerID+": "+format, args...)
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := api.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

// waitStoreResult polls the shared store until the job has a durable
// terminal result — the fleet's source of truth, independent of which
// worker produced it.
func waitStoreResult(t *testing.T, st *api.Store, id string, timeout time.Duration) *api.Result {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if res, err := st.LoadResult(id); err == nil {
			return res
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s: no result in the store after %s", id, timeout)
	return nil
}

// TestFleetPeerDiscoveryAndAdoption pins the scanner's convergence
// behavior with no faults at all: a job submitted to worker A appears in
// worker B's /jobs view, exposes its lease owner and epoch, and once A
// finishes it, B adopts the identical terminal result from the store.
func TestFleetPeerDiscoveryAndAdoption(t *testing.T) {
	dir := t.TempDir()
	_, hsA := newFleetServer(t, dir, "worker-a", nil)
	_, hsB := newFleetServer(t, dir, "worker-b", func(c *api.Config) {
		// B scans slowly enough that A (which enqueues at admission)
		// always claims its own submission first.
		c.ScanInterval = 250 * time.Millisecond
	})

	var ack map[string]string
	if resp := submit(t, hsA.URL, "tenant", tinySpec(), &ack); resp.StatusCode != 202 {
		t.Fatalf("submit to A: status %d", resp.StatusCode)
	}
	id := ack["id"]

	stA := waitTerminal(t, hsA.URL, id)
	if stA.State != api.StateDone {
		t.Fatalf("job on A finished %s (%s), want done", stA.State, stA.Error)
	}

	// B must converge: discover the job, then adopt A's result.
	deadline := time.Now().Add(10 * time.Second)
	var stB api.Status
	for time.Now().Before(deadline) {
		if code := getJSON(t, hsB.URL+"/jobs/"+id, &stB); code == 200 && stB.State == api.StateDone {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if stB.State != api.StateDone {
		t.Fatalf("B never adopted the result: state %s", stB.State)
	}
	if stB.Owner != "worker-a" || stB.Epoch == 0 {
		t.Errorf("B reports owner %q epoch %d, want worker-a at a nonzero epoch", stB.Owner, stB.Epoch)
	}

	var resA, resB api.Result
	getJSON(t, hsA.URL+"/jobs/"+id+"/result", &resA)
	if code := getJSON(t, hsB.URL+"/jobs/"+id+"/result", &resB); code != 200 {
		t.Fatalf("result from B: status %d", code)
	}
	if !reflect.DeepEqual(resA.Renders, resB.Renders) {
		t.Error("A's and B's views of the renders diverge")
	}
}

// TestFleetKillFailoverSoak is the seeded in-process failover soak: worker
// A runs under a chaos plane (wired beneath both its journal and its lease
// layer) that freezes at a seeded op and hard-stops the server — the
// in-process analogue of SIGKILL. Worker B shares the store; it must
// detect A's lease expiring, claim the job at the next epoch, replay the
// journal, and finish with renders byte-identical to a fault-free run.
// Every loop also asserts the lease history shows exclusive ownership.
func TestFleetKillFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second failover soak")
	}
	spec := tinySpec()

	// Reference renders from a fault-free fleet run.
	refDir := t.TempDir()
	_, hsRef := newFleetServer(t, refDir, "ref", nil)
	var ack map[string]string
	submit(t, hsRef.URL, "tenant", spec, &ack)
	refSt, err := api.OpenStore(refDir)
	if err != nil {
		t.Fatal(err)
	}
	ref := waitStoreResult(t, refSt, ack["id"], time.Minute)
	if ref.State != api.StateDone {
		t.Fatalf("reference run finished %s (%s)", ref.State, ref.Error)
	}

	sawResumedFailover := false
	for _, killAt := range []int64{20, 30, 40} {
		t.Logf("=== kill at op %d ===", killAt)
		dir := t.TempDir()

		var srvA *api.Server
		plane := chaos.NewFS(chaos.Plan{Seed: killAt, KillAtOp: killAt}, func() {
			// The plane froze mid-op: every later file op on A fails, as
			// after a process death. Hard-stop the server off this stack.
			go srvA.Close()
		})
		// One plane under both layers: the kill-point can land inside a
		// claim transaction, a renewal, or a journal append.
		srvA, hsA := newFleetServer(t, dir, "w1", func(c *api.Config) {
			c.FS = plane
		})
		_, _ = newFleetServer(t, dir, "w2", nil)

		submit(t, hsA.URL, "tenant", spec, &ack)
		id := ack["id"]

		st, err := api.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		res := waitStoreResult(t, st, id, time.Minute)
		if res.State != api.StateDone {
			t.Fatalf("killAt %d: job finished %s (%s), want done", killAt, res.State, res.Error)
		}
		if !reflect.DeepEqual(res.Renders, ref.Renders) {
			t.Errorf("killAt %d: renders diverge from the fault-free run", killAt)
		}

		jobDir := filepath.Join(dir, "jobs", id)
		hist, err := lease.History(nil, jobDir)
		if err != nil || len(hist) == 0 {
			t.Fatalf("killAt %d: lease history: %v (%d events)", killAt, err, len(hist))
		}
		leasetest.AssertExclusiveOwnership(t, hist)

		var claimers []string
		for _, ev := range hist {
			if ev.Op == "claim" {
				claimers = append(claimers, ev.WorkerID)
			}
		}
		t.Logf("killAt %d: claims by %v, resumed %d, units %d", killAt, claimers, res.ResumedUnits, res.Units)
		if len(claimers) >= 2 && claimers[len(claimers)-1] == "w2" && res.ResumedUnits > 0 {
			sawResumedFailover = true
		}
	}
	if !sawResumedFailover {
		t.Error("no loop produced a failover that resumed checkpointed units; kill-points need retuning")
	}
}

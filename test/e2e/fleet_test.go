// Fleet black-box tests: several real vsmoothd binaries sharing one
// -store, coordinating job ownership through per-job lease files. The
// headline property is failover — SIGKILL the owning worker at a seeded
// chaos kill-point and a surviving peer must detect the lease expiring,
// re-claim the job, replay its journal, and finish byte-identically — and
// its dual, fencing: a paused-then-resumed worker must never push its
// stale outcome over the successor's run.
package e2e

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"voltsmooth/internal/lease"
	"voltsmooth/internal/lease/leasetest"
)

// fleetArgs are the lease settings shared by every worker in these
// tests: a readable worker ID, a short TTL so failover fits in test time,
// and a scan cadence well under it.
func fleetArgs(workerID string, extra ...string) []string {
	return append([]string{
		"-worker-id", workerID,
		"-lease-ttl", "1s",
		"-scan-interval", "200ms",
	}, extra...)
}

// submitSpec POSTs an arbitrary spec body and returns the job ID.
func submitSpec(t *testing.T, base, body string) string {
	t.Helper()
	req, _ := http.NewRequest("POST", base+"/jobs", strings.NewReader(body))
	req.Header.Set("X-Client", "e2e")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || ack["id"] == "" {
		t.Fatalf("submit: status %d ack %v, want 202 with id", resp.StatusCode, ack)
	}
	return ack["id"]
}

// jobStatus fetches one job's status JSON from a worker (200 only).
func jobStatus(t *testing.T, base, id string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	json.NewDecoder(resp.Body).Decode(&st)
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	return st
}

// assertLeaseHistory loads the job's lease.log and asserts the fleet's
// core ownership invariants: at least one claim, strictly increasing
// epochs, no two workers ever simultaneously live, and the final claim by
// wantLast.
func assertLeaseHistory(t *testing.T, store, id, wantLast string) []lease.Event {
	t.Helper()
	hist, err := lease.History(nil, filepath.Join(store, "jobs", id))
	if err != nil {
		t.Fatalf("lease history: %v", err)
	}
	var claims []lease.Event
	for _, ev := range hist {
		if ev.Op == "claim" {
			claims = append(claims, ev)
		}
	}
	if len(claims) == 0 {
		t.Fatal("lease history has no claims")
	}
	leasetest.AssertExclusiveOwnership(t, hist)
	if last := claims[len(claims)-1]; last.WorkerID != wantLast {
		t.Errorf("last claim by %s (epoch %d), want %s", last.WorkerID, last.Epoch, wantLast)
	}
	return hist
}

// TestFleetKillFailover is the fleet acceptance test: two real vsmoothd
// binaries share one store; the worker that owns the job SIGKILLs itself
// at a seeded chaos kill-point (the plane is wired under both its journal
// and its lease layer); the survivor must observe the lease expire,
// re-claim at a higher epoch, replay the journal, and produce renders
// byte-identical to an uninterrupted reference run.
func TestFleetKillFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet failover campaign")
	}

	// Uninterrupted reference.
	ref := startServer(t, t.TempDir())
	want := renderOf(t, jobResult(t, ref.base, submitJob(t, ref.base)), "fig7")
	ref.stop(t, syscall.SIGTERM, 143)

	store := t.TempDir()
	// Worker A claims its own admission immediately; the kill-point lands
	// mid-campaign, after checkpoints exist, before the job can finish.
	svA := startServer(t, store, fleetArgs("A", "-chaos-kill-at-op", "40")...)
	svB := startServer(t, store, fleetArgs("B")...)

	id := submitJob(t, svA.base)
	svA.waitKilled(t)

	// The survivor takes over after lease expiry and finishes the job.
	res := jobResult(t, svB.base, id)
	if got := renderOf(t, res, "fig7"); got != want {
		t.Errorf("failover render differs from uninterrupted reference\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if resumed, _ := res["resumed_units"].(float64); resumed <= 0 {
		t.Errorf("resumed_units = %v, want > 0 (B must replay A's checkpoints)", res["resumed_units"])
	}

	hist := assertLeaseHistory(t, store, id, "B")
	workers := map[string]bool{}
	for _, ev := range hist {
		if ev.Op == "claim" {
			workers[ev.WorkerID] = true
		}
	}
	if !workers["A"] || !workers["B"] {
		t.Errorf("claim history spans %v, want both A (original owner) and B (takeover)", workers)
	}

	// B's status view exposes the final ownership.
	if st := jobStatus(t, svB.base, id); st != nil {
		if st["owner"] != "B" {
			t.Errorf("owner = %v, want B", st["owner"])
		}
	}
	svB.stop(t, syscall.SIGTERM, 143)

	// A died by SIGKILL mid-job: whatever debris it left (its lease lock
	// sidecar, a torn tmp file) must be fully repairable.
	fsckStore(t, store)
}

// TestFleetFenceStaleWorker pins the epoch fence end to end with real
// processes and SIGSTOP: worker A is paused mid-job until its lease
// expires; worker B claims the job at the next epoch and waits out A's
// still-held journal flock; when A resumes, its next lease renewal is
// fenced — A abandons the run without writing a result — and B's run is
// the one the store records, journal replay included.
func TestFleetFenceStaleWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fence campaign with SIGSTOP timing")
	}

	// The multi-experiment spec gives the run enough runway that A is
	// still mid-job when it gets paused.
	const spec = `{"experiments":["all"],"scale":"tiny"}`

	ref := startServer(t, t.TempDir())
	refRes := jobResult(t, ref.base, submitSpec(t, ref.base, spec))
	ref.stop(t, syscall.SIGTERM, 143)

	store := t.TempDir()
	svA := startServer(t, store, fleetArgs("A")...)
	id := submitSpec(t, svA.base, spec)

	// Wait until A is genuinely mid-campaign (units flowing), then pause
	// it — a stand-in for a long GC pause, an NFS stall, a VM migration.
	deadline := time.Now().Add(time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never started making progress on A")
		}
		st := jobStatus(t, svA.base, id)
		if st != nil && st["state"] == "running" {
			if prog, ok := st["progress"].(map[string]any); ok {
				if units, _ := prog["units"].(float64); units >= 3 {
					break
				}
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := svA.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}

	// B arrives, sees the lease lapse, and claims the job out from under
	// the paused A.
	svB := startServer(t, store, fleetArgs("B")...)
	deadline = time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("B never claimed the paused worker's job")
		}
		if st := jobStatus(t, svB.base, id); st != nil && st["owner"] == "B" {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}

	// A wakes up fenced. Its heartbeat hits the new epoch, the run is
	// abandoned, and — critically — the journal flock is released so B
	// can resume from A's checkpoints.
	if err := svA.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}

	res := jobResult(t, svB.base, id)
	if resumed, _ := res["resumed_units"].(float64); resumed <= 0 {
		t.Errorf("resumed_units = %v, want > 0 (the terminal result must be B's resumed run, not A's)", res["resumed_units"])
	}
	wantRenders := refRes["renders"].(map[string]any)
	gotRenders := res["renders"].(map[string]any)
	if len(gotRenders) != len(wantRenders) {
		t.Fatalf("render count %d, want %d", len(gotRenders), len(wantRenders))
	}
	for exp, want := range wantRenders {
		if gotRenders[exp] != want {
			t.Errorf("render %s differs from the fault-free reference", exp)
		}
	}

	hist := assertLeaseHistory(t, store, id, "B")
	fencedA := false
	for _, ev := range hist {
		if ev.Op == "fence" && ev.WorkerID == "A" {
			fencedA = true
		}
	}
	if !fencedA {
		t.Error("lease history records no fence rejection for the stale worker A")
	}

	// The fenced worker is degraded, not broken: it still drains cleanly.
	svA.stop(t, syscall.SIGTERM, 143)
	svB.stop(t, syscall.SIGTERM, 143)
	fsckStore(t, store)
}

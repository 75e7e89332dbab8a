package api_test

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/journal"
	"voltsmooth/internal/lease"
	"voltsmooth/internal/telemetry"
)

// TestCancelInterruptsJournalLockWait pins the ErrLocked-retry fix: a
// fleet worker waiting out another process's journal flock used to sleep
// in fixed 250ms beats that ignored cancellation; now the wait selects on
// the job context, so a DELETE lands immediately — and is classified as a
// cancel, not a job failure, and not a requeue after the full 4×TTL lock
// budget.
func TestCancelInterruptsJournalLockWait(t *testing.T) {
	dir := t.TempDir()
	entered := make(chan struct{}, 1)
	lockHeld := make(chan struct{})
	_, hs := newFleetServer(t, dir, "w1", func(c *api.Config) {
		c.ScanInterval = time.Hour // no scanner noise; admission enqueues directly
		c.LeaseTTL = 5 * time.Second
		// Park the worker until the test holds the journal flock, so its
		// openSession is guaranteed to land in the ErrLocked wait.
		c.BeforeJob = func(string) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-lockHeld
		}
	})
	st, err := api.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	var ack map[string]string
	if resp := submit(t, hs.URL, "tenant", tinySpec(), &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := ack["id"]
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked the job up")
	}

	// Another "process" holds the journal flock (this test, via a direct
	// open), so the worker's openSession spins on ErrLocked with a 4×TTL
	// (20s) budget before requeueing.
	jnl, err := journal.Open(st.JournalPath(id), "held-by-test", journal.Options{})
	if err != nil {
		t.Fatalf("hold journal lock: %v", err)
	}
	defer jnl.Close()
	close(lockHeld)

	// Wait for the run to be live (cancel must take the cooperative
	// running path, which fires the job context).
	deadline := time.Now().Add(10 * time.Second)
	for {
		var stj api.Status
		getJSON(t, hs.URL+"/jobs/"+id, &stj)
		if stj.State == api.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached running; last state %s", stj.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	canceledAt := time.Now()
	req, _ := http.NewRequest("DELETE", hs.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	fin := waitTerminal(t, hs.URL, id)
	elapsed := time.Since(canceledAt)
	if fin.State != api.StateCanceled {
		t.Fatalf("job finished %s (%s), want canceled", fin.State, fin.Error)
	}
	// Promptness is the point: the old bare sleep rode out its full beat
	// (and the lock budget kept the job non-terminal for up to 4×TTL);
	// the ctx-aware wait unwinds immediately.
	if elapsed > 3*time.Second {
		t.Errorf("cancel took %s to land while the journal was locked; the wait ignored the context", elapsed)
	}
}

// TestCancelConflictCancelsNothing pins that a DELETE answered 409 — the
// job is under another worker's live lease — changes nothing: the job
// stays live as its fingerprint's dedup leader, and this server writes no
// result for it while the peer's lease is live. Once the peer lets go, the
// job runs here to done and serves the identical job that waited behind
// it.
func TestCancelConflictCancelsNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	dir := t.TempDir()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }
	_, hs := newFleetServer(t, dir, "worker-a", func(c *api.Config) {
		c.BeforeJob = func(string) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		}
	})
	t.Cleanup(rel) // registered after the server: runs before its Close
	st, err := api.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	var ack map[string]string
	if resp := submit(t, hs.URL, "tenant-a", tinySpec(), &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	id := ack["id"]
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked the job up")
	}

	// A peer claims the job while worker-a's worker waits before its own
	// claim.
	ghost := &lease.Manager{WorkerID: "ghost", TTL: time.Minute}
	h, err := ghost.Claim(filepath.Join(dir, "jobs", id), id)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest("DELETE", hs.URL+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of a job under a peer's live lease: status %d, want 409", resp.StatusCode)
	}

	// The held pick now loses its claim to the peer, and an identical job
	// steps back behind the still-live leader instead of executing.
	rel()
	waitEvent(t, hs.URL, id, "api.job.claim_lost")
	var ack2 map[string]string
	submit(t, hs.URL, "tenant-b", tinySpec(), &ack2)
	id2 := ack2["id"]
	waitEvent(t, hs.URL, id2, "following identical in-flight job "+id)

	for _, jid := range []string{id, id2} {
		if _, err := st.LoadResult(jid); err == nil {
			t.Fatalf("job %s: result.json written while the peer's lease is live", jid)
		}
		var stj api.Status
		getJSON(t, hs.URL+"/jobs/"+jid, &stj)
		if stj.State != api.StateQueued {
			t.Fatalf("job %s is %s after the refused cancel, want queued", jid, stj.State)
		}
	}
	if got := reg.Snapshot().Counters["exp.completed"]; got != 0 {
		t.Fatalf("exp.completed = %d while the only leader is the peer's, want 0", got)
	}

	// The peer lets go: the leader runs here, the follower is served from
	// its cache entry, and the campaign executed once.
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	res1 := waitStoreResult(t, st, id, time.Minute)
	res2 := waitStoreResult(t, st, id2, time.Minute)
	if res1.State != api.StateDone || res1.Cached {
		t.Errorf("leader %s finished %s (cached=%v), want an executed done", id, res1.State, res1.Cached)
	}
	if res2.State != api.StateDone || res2.CacheSource != id {
		t.Errorf("follower %s finished %s from %q, want done from %s", id2, res2.State, res2.CacheSource, id)
	}
	if got, want := reg.Snapshot().Counters["exp.completed"], uint64(len(tinySpec().Experiments)); got != want {
		t.Errorf("exp.completed = %d, want %d", got, want)
	}
}

// waitEvent polls a job's event trace until a line contains substr,
// failing if the job goes terminal first.
func waitEvent(t *testing.T, base, id, substr string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), substr) {
			return
		}
		var st api.Status
		getJSON(t, base+"/jobs/"+id, &st)
		switch st.State {
		case api.StateDone, api.StateFailed, api.StateCanceled:
			t.Fatalf("job %s went %s (%s) before its trace showed %q", id, st.State, st.Error, substr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s: trace never showed %q", id, substr)
}

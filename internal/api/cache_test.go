package api_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/telemetry"
)

// newStoreServer is newTestServer with the store opened by the test, so
// cache-layer assertions can inspect the durable layout directly.
func newStoreServer(t *testing.T, mutate func(*api.Config)) (*api.Store, *httptest.Server) {
	t.Helper()
	st, err := api.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, func(c *api.Config) {
		c.Store = st
		if mutate != nil {
			mutate(c)
		}
	})
	return st, hs
}

// fingerprintOf is the cache key of a spec as the server computes it:
// over the normalized (validated) form.
func fingerprintOf(t *testing.T, spec api.JobSpec) string {
	t.Helper()
	spec, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return spec.ConfigFingerprint()
}

// TestCacheServesIdenticalSpecAcrossTenants is the tentpole acceptance
// test (DESIGN §12): two identical specs from different tenants execute
// exactly once — asserted via the process-global experiment counters —
// and both tenants receive byte-identical renders, the second instantly
// from the durable cache with cached=true and the source job's ID.
func TestCacheServesIdenticalSpecAcrossTenants(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	st, hs := newStoreServer(t, nil)

	var ack1 map[string]string
	if resp := submit(t, hs.URL, "tenant-a", tinySpec(), &ack1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A: %d", resp.StatusCode)
	}
	st1 := waitTerminal(t, hs.URL, ack1["id"])
	if st1.State != api.StateDone || st1.Cached {
		t.Fatalf("first job: state=%s cached=%v, want an executed done", st1.State, st1.Cached)
	}
	var res1 api.Result
	getJSON(t, hs.URL+"/jobs/"+ack1["id"]+"/result", &res1)
	executed := reg.Snapshot().Counters["exp.completed"]
	if executed == 0 {
		t.Fatal("first job completed no experiments")
	}

	// Second tenant, identical spec: the 202 is already terminal.
	var ack2 map[string]string
	if resp := submit(t, hs.URL, "tenant-b", tinySpec(), &ack2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %d", resp.StatusCode)
	}
	if ack2["state"] != string(api.StateDone) || ack2["cached"] != "true" || ack2["cache_source"] != ack1["id"] {
		t.Fatalf("cached admission ack = %v, want done/cached from %s", ack2, ack1["id"])
	}
	st2 := waitTerminal(t, hs.URL, ack2["id"])
	if !st2.Cached || st2.CacheSource != ack1["id"] {
		t.Errorf("second status cached=%v source=%q, want true from %s", st2.Cached, st2.CacheSource, ack1["id"])
	}
	var res2 api.Result
	if code := getJSON(t, hs.URL+"/jobs/"+ack2["id"]+"/result", &res2); code != http.StatusOK {
		t.Fatalf("second result: %d", code)
	}
	if !reflect.DeepEqual(res1.Renders, res2.Renders) {
		t.Error("tenants' renders are not byte-identical")
	}
	if !res2.Cached || res2.CacheSource != ack1["id"] {
		t.Errorf("second result cached=%v source=%q", res2.Cached, res2.CacheSource)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["exp.completed"]; got != executed {
		t.Errorf("experiments executed %d times, want exactly once (%d): the cache hit re-ran the campaign", got, executed)
	}
	if snap.Counters["api.cache_hits"] != 1 {
		t.Errorf("api.cache_hits = %d, want 1", snap.Counters["api.cache_hits"])
	}
	if snap.Counters["api.jobs_completed"] != 2 {
		t.Errorf("api.jobs_completed = %d, want 2 (both tenants' jobs complete)", snap.Counters["api.jobs_completed"])
	}

	// The durable entry names the execution that produced it.
	e, err := st.LoadCached(fingerprintOf(t, tinySpec()))
	if err != nil {
		t.Fatalf("durable cache entry: %v", err)
	}
	if e.SourceJob != ack1["id"] || !reflect.DeepEqual(e.Renders, res1.Renders) {
		t.Errorf("cache entry source=%s, want %s with the first run's renders", e.SourceJob, ack1["id"])
	}
}

// TestCachedAdmissionKeepsDeadline: a submission served from the cache
// at admission reports its absolute deadline like any other job, and the
// same deadline_unix_ns after a restart recovers it from job.json.
func TestCachedAdmissionKeepsDeadline(t *testing.T) {
	st, err := api.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	if err := st.WriteCached(&api.CacheEntry{Fingerprint: fingerprintOf(t, spec), SourceJob: "j000000",
		Renders: map[string]string{"fig7": "cached render"}, Units: 1}); err != nil {
		t.Fatal(err)
	}
	useStore := func(c *api.Config) { c.Store = st }

	srv, hs := newTestServer(t, useStore)
	spec.DeadlineMS = 60_000
	var ack map[string]string
	if resp := submit(t, hs.URL, "tenant", spec, &ack); resp.StatusCode != http.StatusAccepted || ack["cached"] != "true" {
		t.Fatalf("submit: status %d, ack %v; want a 202 cache hit", resp.StatusCode, ack)
	}
	var before api.Status
	getJSON(t, hs.URL+"/jobs/"+ack["id"], &before)
	if want := before.CreatedUnixNS + int64(time.Minute); before.DeadlineUnixNS != want {
		t.Fatalf("cache hit reports deadline_unix_ns %d, want created+60s = %d", before.DeadlineUnixNS, want)
	}
	hs.Close()
	srv.Close()

	_, hs = newTestServer(t, useStore)
	var after api.Status
	getJSON(t, hs.URL+"/jobs/"+ack["id"], &after)
	if after.DeadlineUnixNS != before.DeadlineUnixNS || after.State != api.StateDone || !after.Cached {
		t.Fatalf("after restart: state %s cached %v deadline %d; want done, cached, deadline %d",
			after.State, after.Cached, after.DeadlineUnixNS, before.DeadlineUnixNS)
	}
}

// TestInflightFollowerAttaches pins in-flight dedup: when an identical
// spec arrives while the first is still executing, the second job attaches
// as a follower instead of executing, and is completed from the leader's
// result the moment it lands — exactly one execution, both done.
func TestInflightFollowerAttaches(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	entered := make(chan string, 2)
	release := make(chan struct{})
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }
	defer rel()

	_, hs := newStoreServer(t, func(c *api.Config) {
		c.JobWorkers = 2 // both jobs must be in runJob simultaneously
		c.BeforeJob = func(id string) {
			entered <- id
			<-release
		}
	})

	var ackA, ackB map[string]string
	submit(t, hs.URL, "tenant-a", tinySpec(), &ackA)
	submit(t, hs.URL, "tenant-b", tinySpec(), &ackB)
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of 2 workers picked a job up", i)
		}
	}
	rel()

	stA := waitTerminal(t, hs.URL, ackA["id"])
	stB := waitTerminal(t, hs.URL, ackB["id"])
	if stA.State != api.StateDone || stB.State != api.StateDone {
		t.Fatalf("jobs finished %s/%s, want done/done", stA.State, stB.State)
	}
	// Leadership is by lowest ID: A executed, B followed.
	if stA.Cached {
		t.Error("the lower-ID job was served from a cache instead of executing")
	}
	if !stB.Cached || stB.CacheSource != ackA["id"] {
		t.Errorf("follower cached=%v source=%q, want true from %s", stB.Cached, stB.CacheSource, ackA["id"])
	}

	var resA, resB api.Result
	getJSON(t, hs.URL+"/jobs/"+ackA["id"]+"/result", &resA)
	getJSON(t, hs.URL+"/jobs/"+ackB["id"]+"/result", &resB)
	if !reflect.DeepEqual(resA.Renders, resB.Renders) {
		t.Error("leader's and follower's renders are not byte-identical")
	}

	snap := reg.Snapshot()
	if snap.Counters["api.cache_followed"] != 1 {
		t.Errorf("api.cache_followed = %d, want 1", snap.Counters["api.cache_followed"])
	}
	if got, want := snap.Counters["exp.completed"], uint64(len(stA.Spec.Experiments)); got != want {
		t.Errorf("exp.completed = %d, want %d (one execution)", got, want)
	}
	if snap.Counters["api.jobs_completed"] != 2 {
		t.Errorf("api.jobs_completed = %d, want 2", snap.Counters["api.jobs_completed"])
	}
}

// TestInflightLeaderCancelHandsOff pins the failed-leader handoff of
// in-flight dedup: a job that stepped back behind an identical in-flight
// job must not inherit that job's cancellation. Job A is held before it
// executes, identical job B steps back behind it, and A is then canceled:
// B executes on its own — done, not cached — and the campaign runs once.
func TestInflightLeaderCancelHandsOff(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	entered := make(chan struct{})
	release := make(chan struct{})
	var holding atomic.Bool
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }
	defer rel()

	_, hs := newStoreServer(t, func(c *api.Config) {
		c.JobWorkers = 2 // A holds one worker; B runs on the other
		c.BeforeJob = func(string) {
			if holding.CompareAndSwap(false, true) { // only the first job waits
				close(entered)
				<-release
			}
		}
	})

	var ackA, ackB map[string]string
	submit(t, hs.URL, "tenant-a", tinySpec(), &ackA)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no worker picked job A up")
	}
	submit(t, hs.URL, "tenant-b", tinySpec(), &ackB)

	// B has stepped back once its trace names A as the job it follows.
	following := "following identical in-flight job " + ackA["id"]
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/jobs/" + ackB["id"] + "/events")
		if err != nil {
			t.Fatal(err)
		}
		trace, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(trace), following) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job B never stepped back behind A; its trace:\n%s", trace)
		}
		time.Sleep(20 * time.Millisecond)
	}

	req, _ := http.NewRequest("DELETE", hs.URL+"/jobs/"+ackA["id"], nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rel()

	stA := waitTerminal(t, hs.URL, ackA["id"])
	stB := waitTerminal(t, hs.URL, ackB["id"])
	if stA.State != api.StateCanceled {
		t.Errorf("leader finished %s, want canceled", stA.State)
	}
	if stB.State != api.StateDone || stB.Cached {
		t.Fatalf("B finished %s (cached=%v, %s), want an executed done", stB.State, stB.Cached, stB.Error)
	}
	if got, want := reg.Snapshot().Counters["exp.completed"], uint64(len(stB.Spec.Experiments)); got != want {
		t.Errorf("exp.completed = %d, want %d (one execution, B's)", got, want)
	}
}

// TestTornCacheEntryReExecutes is the cache-correctness chaos case: a torn
// or corrupt cache entry (here: truncated mid-file, as after a crashed
// non-atomic writer or disk corruption) must never be served. The next
// identical spec detects the defect, executes normally, and its publish
// heals the entry.
func TestTornCacheEntryReExecutes(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	st, hs := newStoreServer(t, nil)

	var ack1 map[string]string
	submit(t, hs.URL, "tenant-a", tinySpec(), &ack1)
	if st1 := waitTerminal(t, hs.URL, ack1["id"]); st1.State != api.StateDone {
		t.Fatalf("first job: %s (%s)", st1.State, st1.Error)
	}
	var res1 api.Result
	getJSON(t, hs.URL+"/jobs/"+ack1["id"]+"/result", &res1)
	executed := reg.Snapshot().Counters["exp.completed"]

	// Tear the entry: keep the first half of the bytes.
	fp := fingerprintOf(t, tinySpec())
	path := st.CachePath(fp)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadCached(fp); err == nil {
		t.Fatal("LoadCached validated a torn entry")
	}

	var ack2 map[string]string
	submit(t, hs.URL, "tenant-b", tinySpec(), &ack2)
	st2 := waitTerminal(t, hs.URL, ack2["id"])
	if st2.State != api.StateDone {
		t.Fatalf("re-execution: %s (%s)", st2.State, st2.Error)
	}
	if st2.Cached {
		t.Fatal("a torn cache entry was served as a hit")
	}
	var res2 api.Result
	getJSON(t, hs.URL+"/jobs/"+ack2["id"]+"/result", &res2)
	if !reflect.DeepEqual(res1.Renders, res2.Renders) {
		t.Error("re-executed renders differ from the original (engine should be deterministic)")
	}

	snap := reg.Snapshot()
	if got := snap.Counters["exp.completed"]; got != 2*executed {
		t.Errorf("exp.completed = %d, want %d: the torn entry should have forced a second execution", got, 2*executed)
	}
	if snap.Counters["api.cache_hits"] != 0 {
		t.Errorf("api.cache_hits = %d, want 0", snap.Counters["api.cache_hits"])
	}

	// The re-execution healed the entry.
	e, err := st.LoadCached(fp)
	if err != nil {
		t.Fatalf("cache entry after re-execution: %v", err)
	}
	if e.SourceJob != ack2["id"] {
		t.Errorf("healed entry source = %s, want the re-execution %s", e.SourceJob, ack2["id"])
	}
}

// TestLoadCachedRejectsDefects pins the entry-validation matrix directly:
// every way an entry can be wrong reads as a miss, never as a result.
func TestLoadCachedRejectsDefects(t *testing.T) {
	st, err := api.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	write := func(fp, content string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(st.CachePath(fp)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.CachePath(fp), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := st.LoadCached("absent"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("absent entry: err = %v, want not-exist", err)
	}
	write("garbage", `{"fingerprint": "garb`)
	if _, err := st.LoadCached("garbage"); err == nil {
		t.Error("unparseable entry validated")
	}
	write("misplaced", `{"fingerprint":"other","source_job":"j1","renders":{"fig7":"x"}}`)
	if _, err := st.LoadCached("misplaced"); err == nil {
		t.Error("entry with a foreign fingerprint validated")
	}
	write("empty", `{"fingerprint":"empty","source_job":"j1","renders":{}}`)
	if _, err := st.LoadCached("empty"); err == nil {
		t.Error("renderless entry validated")
	}

	if err := st.WriteCached(&api.CacheEntry{Fingerprint: "good", SourceJob: "j1",
		Renders: map[string]string{"fig7": "x"}}); err != nil {
		t.Fatal(err)
	}
	if e, err := st.LoadCached("good"); err != nil || e.SourceJob != "j1" {
		t.Errorf("round-trip: %v (entry %+v)", err, e)
	}
}

// TestCacheDisabledRunsEveryJob pins the -cache=false escape hatch: with
// the cache off, identical specs execute independently and nothing is
// published under <store>/cache.
func TestCacheDisabledRunsEveryJob(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	st, hs := newStoreServer(t, func(c *api.Config) {
		c.DisableCache = true
	})

	var ack1, ack2 map[string]string
	submit(t, hs.URL, "tenant-a", tinySpec(), &ack1)
	if s1 := waitTerminal(t, hs.URL, ack1["id"]); s1.State != api.StateDone {
		t.Fatalf("first: %s", s1.State)
	}
	submit(t, hs.URL, "tenant-b", tinySpec(), &ack2)
	if ack2["state"] == string(api.StateDone) {
		t.Error("cache-disabled submission acked already-done")
	}
	s2 := waitTerminal(t, hs.URL, ack2["id"])
	if s2.State != api.StateDone || s2.Cached {
		t.Fatalf("second: state=%s cached=%v, want an executed done", s2.State, s2.Cached)
	}

	snap := reg.Snapshot()
	if got, want := snap.Counters["exp.completed"], uint64(2*len(s2.Spec.Experiments)); got != want {
		t.Errorf("exp.completed = %d, want %d (two independent executions)", got, want)
	}
	if snap.Counters["api.cache_hits"] != 0 || snap.Counters["api.cache_misses"] != 0 {
		t.Error("cache counters moved with the cache disabled")
	}
	if _, err := st.LoadCached(fingerprintOf(t, tinySpec())); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("cache entry published with the cache disabled: %v", err)
	}
}

// TestCacheEviction pins the -cache-max bound: each publish evicts the
// oldest fingerprints beyond the cap.
func TestCacheEviction(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	st, hs := newStoreServer(t, func(c *api.Config) {
		c.CacheMax = 1
	})

	specOld := tinySpec()
	specNew := tinySpec()
	specNew.FaultSeed = 7 // fingerprint-distinct, still deterministic

	var ack map[string]string
	submit(t, hs.URL, "tenant", specOld, &ack)
	if s := waitTerminal(t, hs.URL, ack["id"]); s.State != api.StateDone {
		t.Fatalf("first: %s", s.State)
	}
	if _, err := st.LoadCached(fingerprintOf(t, specOld)); err != nil {
		t.Fatalf("first entry not published: %v", err)
	}

	submit(t, hs.URL, "tenant", specNew, &ack)
	if s := waitTerminal(t, hs.URL, ack["id"]); s.State != api.StateDone {
		t.Fatalf("second: %s", s.State)
	}
	if _, err := st.LoadCached(fingerprintOf(t, specOld)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("oldest entry survived past CacheMax: %v", err)
	}
	if _, err := st.LoadCached(fingerprintOf(t, specNew)); err != nil {
		t.Errorf("newest entry missing after eviction: %v", err)
	}
	if got := reg.Snapshot().Counters["api.cache_evicted"]; got != 1 {
		t.Errorf("api.cache_evicted = %d, want 1", got)
	}
}

// TestFleetCachedAdoption pins cross-worker dedup over the shared store:
// a spec completed by worker A is served cached by worker B, with exactly
// one execution fleet-wide.
func TestFleetCachedAdoption(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	dir := t.TempDir()
	_, hsA := newFleetServer(t, dir, "worker-a", nil)
	_, hsB := newFleetServer(t, dir, "worker-b", func(c *api.Config) {
		// B scans slowly enough that A always claims its own submission.
		c.ScanInterval = 250 * time.Millisecond
	})

	var ack1 map[string]string
	if resp := submit(t, hsA.URL, "tenant-a", tinySpec(), &ack1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to A: %d", resp.StatusCode)
	}
	st1 := waitTerminal(t, hsA.URL, ack1["id"])
	if st1.State != api.StateDone || st1.Cached {
		t.Fatalf("first job on A: state=%s cached=%v", st1.State, st1.Cached)
	}
	executed := reg.Snapshot().Counters["exp.completed"]

	// B serves the hit at admission, as every server does.
	var ack2 map[string]string
	if resp := submit(t, hsB.URL, "tenant-b", tinySpec(), &ack2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit to B: %d", resp.StatusCode)
	}
	st2 := waitTerminal(t, hsB.URL, ack2["id"])
	if st2.State != api.StateDone {
		t.Fatalf("second job on B: %s (%s)", st2.State, st2.Error)
	}
	if !st2.Cached || st2.CacheSource != ack1["id"] {
		t.Errorf("B's job cached=%v source=%q, want true from %s", st2.Cached, st2.CacheSource, ack1["id"])
	}

	var res1, res2 api.Result
	getJSON(t, hsA.URL+"/jobs/"+ack1["id"]+"/result", &res1)
	getJSON(t, hsB.URL+"/jobs/"+ack2["id"]+"/result", &res2)
	if !reflect.DeepEqual(res1.Renders, res2.Renders) {
		t.Error("fleet tenants' renders are not byte-identical")
	}

	snap := reg.Snapshot()
	if got := snap.Counters["exp.completed"]; got != executed {
		t.Errorf("exp.completed = %d, want %d: the fleet executed the campaign twice", got, executed)
	}
	if snap.Counters["api.cache_hits"] != 1 {
		t.Errorf("api.cache_hits = %d, want 1", snap.Counters["api.cache_hits"])
	}
}

// TestFleetIdenticalInflightExecutesOnce pins the fleet in-flight
// holdback: with an identical campaign live under a lower-ID job that B
// has discovered, B's copy steps back instead of executing, and is served
// from the cache entry the leader's completion publishes. The fleet-wide
// execution count stays at one.
func TestFleetIdenticalInflightExecutesOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	dir := t.TempDir()
	release := make(chan struct{})
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }

	entered := make(chan struct{}, 1)
	_, hsA := newFleetServer(t, dir, "worker-a", func(c *api.Config) {
		c.BeforeJob = func(string) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		}
	})
	_, hsB := newFleetServer(t, dir, "worker-b", nil)
	t.Cleanup(rel) // registered after the servers: runs before their Close

	st, err := api.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	var ack1 map[string]string
	submit(t, hsA.URL, "tenant-a", tinySpec(), &ack1)
	id1 := ack1["id"]
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("A's worker never picked the job up")
	}

	// Wait until B has discovered j1 through its scanner: that is the
	// precondition under which the lowest-ID rule makes B's copy of the
	// identical spec step back deterministically. (Before discovery, B
	// executing its own copy is allowed — a duplicate execution with
	// byte-identical output, traded for zero cross-worker coordination.)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var stj api.Status
		if code := getJSON(t, hsB.URL+"/jobs/"+id1, &stj); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("B never discovered A's job")
		}
		time.Sleep(20 * time.Millisecond)
	}

	var ack2 map[string]string
	submit(t, hsB.URL, "tenant-b", tinySpec(), &ack2)
	id2 := ack2["id"]
	rel()

	res1 := waitStoreResult(t, st, id1, time.Minute)
	res2 := waitStoreResult(t, st, id2, time.Minute)
	if res1.State != api.StateDone || res2.State != api.StateDone {
		t.Fatalf("results %s/%s, want done/done", res1.State, res2.State)
	}
	if !res2.Cached || res2.CacheSource != id1 {
		t.Errorf("j2 cached=%v source=%q, want served from %s", res2.Cached, res2.CacheSource, id1)
	}
	if !reflect.DeepEqual(res1.Renders, res2.Renders) {
		t.Error("renders diverge between the leader and the held-back job")
	}
	if got, want := reg.Snapshot().Counters["exp.completed"], uint64(len(tinySpec().Experiments)); got != want {
		t.Errorf("exp.completed = %d, want %d: the identical in-flight spec executed twice", got, want)
	}
}

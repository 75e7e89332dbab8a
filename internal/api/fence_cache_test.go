package api

import (
	"errors"
	"os"
	"testing"
	"time"

	"voltsmooth/internal/lease"
	"voltsmooth/internal/telemetry"
)

// TestFencedPublishWritesNeitherResultNorCache pins the chaos contract of
// DESIGN §12: the result AND the cache entry are published inside the
// lease Guard, so a worker whose lease was superseded (it stalled past the
// TTL and a successor claimed the job at a higher epoch) can neither
// overwrite the successor's result nor poison the cross-tenant cache with
// its stale run. The positive half then shows a live holder publishing
// both atomically.
func TestFencedPublishWritesNeitherResultNorCache(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Store:        st,
		WorkerID:     "stale-worker",
		LeaseTTL:     200 * time.Millisecond,
		ScanInterval: time.Hour, // keep the scanner out of this test
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	mkJob := func(spec JobSpec) *job {
		t.Helper()
		spec, err := spec.Validate()
		if err != nil {
			t.Fatal(err)
		}
		id, err := st.AllocateID()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.CreateJob(JobRecord{ID: id, Client: "tenant", Spec: spec,
			CreatedUnixNS: time.Now().UnixNano()}); err != nil {
			t.Fatal(err)
		}
		jb := &job{
			id:          id,
			client:      "tenant",
			spec:        spec,
			created:     time.Now(),
			fingerprint: spec.ConfigFingerprint(),
			state:       StateRunning,
			started:     time.Now(),
			trace:       telemetry.NewTrace(64),
		}
		s.mu.Lock()
		s.jobs[id] = jb
		s.mu.Unlock()
		return jb
	}
	renders := map[string]string{"fig7": "RENDERED"}
	attempts := map[string]int{"fig7": 1}

	t.Run("fenced", func(t *testing.T) {
		jb := mkJob(JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"})

		h, err := s.leases.Claim(st.jobDir(jb.id), jb.id)
		if err != nil {
			t.Fatal(err)
		}
		jb.hold = h

		// The worker "stalls": no heartbeat renews the claim, the TTL
		// expires, and a successor claims the job at the next epoch.
		time.Sleep(300 * time.Millisecond)
		successor := &lease.Manager{WorkerID: "successor", TTL: time.Minute}
		h2, err := successor.Claim(st.jobDir(jb.id), jb.id)
		if err != nil {
			t.Fatalf("successor claim after TTL expiry: %v", err)
		}
		if h2.Epoch() <= h.Epoch() {
			t.Fatalf("successor epoch %d not past stale epoch %d", h2.Epoch(), h.Epoch())
		}

		// The stale worker finishes its run and tries to publish.
		s.finishJob(jb, StateDone, "", renders, attempts)

		if _, err := st.LoadResult(jb.id); err == nil {
			t.Error("fenced worker's result.json landed; the successor's run is no longer the truth")
		}
		if _, err := st.LoadCached(jb.fingerprint); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("fenced worker published into the cache: LoadCached err = %v, want not-exist", err)
		}
		jb.mu.Lock()
		state, res := jb.state, jb.result
		jb.mu.Unlock()
		if state != StateQueued || res != nil {
			t.Errorf("fenced job is %s with result=%v, want queued with no result", state, res)
		}
	})

	t.Run("fenced failed run", func(t *testing.T) {
		jb := mkJob(JobSpec{Experiments: []string{"fig7"}, Scale: "tiny", FaultSeed: 5})

		h, err := s.leases.Claim(st.jobDir(jb.id), jb.id)
		if err != nil {
			t.Fatal(err)
		}
		jb.hold = h
		time.Sleep(300 * time.Millisecond)
		successor := &lease.Manager{WorkerID: "successor", TTL: time.Minute}
		if _, err := successor.Claim(st.jobDir(jb.id), jb.id); err != nil {
			t.Fatalf("successor claim after TTL expiry: %v", err)
		}

		// A failed run's outcome is as stale as a finished one's: the
		// requeued job must not report the error, finish time or cache
		// source of a result that was never written.
		s.finishJob(jb, StateFailed, "1/1 experiments failed: boom", nil, attempts)

		if _, err := st.LoadResult(jb.id); err == nil {
			t.Error("fenced worker's failed result.json landed")
		}
		got := jb.status()
		if got.State != StateQueued || got.Error != "" || got.FinishedUnixNS != 0 || got.Cached || got.CacheSource != "" {
			t.Errorf("fenced failed job reports state=%s error=%q finished_unix_ns=%d cached=%v cache_source=%q, want queued with no outcome",
				got.State, got.Error, got.FinishedUnixNS, got.Cached, got.CacheSource)
		}
	})

	t.Run("live holder publishes both", func(t *testing.T) {
		jb := mkJob(JobSpec{Experiments: []string{"fig7"}, Scale: "tiny", FaultSeed: 9})

		h, err := s.leases.Claim(st.jobDir(jb.id), jb.id)
		if err != nil {
			t.Fatal(err)
		}
		jb.hold = h
		s.finishJob(jb, StateDone, "", renders, attempts)

		res, err := st.LoadResult(jb.id)
		if err != nil || res.State != StateDone {
			t.Fatalf("live holder's result: %v (res %+v)", err, res)
		}
		e, err := st.LoadCached(jb.fingerprint)
		if err != nil {
			t.Fatalf("live holder's cache entry: %v", err)
		}
		if e.SourceJob != jb.id || e.Renders["fig7"] != renders["fig7"] {
			t.Errorf("cache entry source=%s renders=%v, want %s with the run's renders", e.SourceJob, e.Renders, jb.id)
		}
	})
}

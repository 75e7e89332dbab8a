package api_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/chaos"
	"voltsmooth/internal/lease"
)

// TestFsckSweepsChaosTornLeaseWrite: a chaos kill-point inside a lease
// claim's atomic write leaves what a dead process leaves — a torn temp
// file beside lease.json — so fsck reports it as the one tmp_orphan, and
// a repair pass leaves the store clean.
func TestFsckSweepsChaosTornLeaseWrite(t *testing.T) {
	st, err := api.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.AllocateID()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateJob(api.JobRecord{ID: id, Client: "tenant", Spec: tinySpec(), CreatedUnixNS: 1}); err != nil {
		t.Fatal(err)
	}

	// A never-claimed job has no lease.json to read, so the claim's first
	// plane op is its lease write: op 1 kills inside it.
	plane := chaos.NewFS(chaos.Plan{Seed: 1, KillAtOp: 1}, nil)
	m := &lease.Manager{WorkerID: "w1", TTL: time.Minute, FS: plane, Warn: t.Logf}
	jobDir := filepath.Join(st.Dir(), "jobs", id)
	if _, err := m.Claim(jobDir, id); !errors.Is(err, chaos.ErrKilled) {
		t.Fatalf("claim under a kill-point returned %v, want ErrKilled", err)
	}

	rep, err := st.Fsck(false, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Issues) != 1 || rep.Issues[0].Kind != "tmp_orphan" || filepath.Dir(rep.Issues[0].Path) != jobDir {
		t.Fatalf("fsck after a torn lease write found %+v, want one tmp_orphan in %s", rep.Issues, jobDir)
	}
	if rep, err = st.Fsck(true, t.Logf); err != nil || rep.Repaired != 1 {
		t.Fatalf("repair pass: %+v, %v; want 1 repaired", rep, err)
	}
	if rep, err = st.Fsck(false, t.Logf); err != nil || len(rep.Issues) != 0 {
		t.Fatalf("store after repair: %+v, %v; want clean", rep, err)
	}
}

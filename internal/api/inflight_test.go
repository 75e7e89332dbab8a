package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestInflightLeaderIsLowestIDAfterLateMirror pins DESIGN §12.3's leader
// rule for a twin this server learns of late: it admits its own job first,
// then a peer's identical job with a lower ID reaches the store and one
// scanner pass mirrors it. Every server on the store must compute the same
// leader, the lowest ID, so the mirrored job leads, and the job list puts
// it first.
func TestInflightLeaderIsLowestIDAfterLateMirror(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	held := make(chan string, 1)
	release := make(chan struct{})
	s, err := New(Config{
		Store:        st,
		JobWorkers:   1,
		ScanInterval: time.Hour, // the one scan below is explicit
		Logf:         t.Logf,
		// Hold the only worker on this server's own job, so neither job
		// runs while the leader is computed.
		BeforeJob: func(id string) {
			select {
			case held <- id:
			default:
			}
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(release)
		s.Close()
	})

	// The peer takes the lower ID first but persists its record only
	// after this server has admitted its own copy.
	peerID, err := st.AllocateID()
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"}
	body, _ := json.Marshal(spec)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	var ack struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.ID <= peerID {
		t.Fatalf("own job %s does not follow the peer's %s", ack.ID, peerID)
	}
	select {
	case id := <-held:
		if id != ack.ID {
			t.Fatalf("worker picked %s, want %s", id, ack.ID)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked the admitted job")
	}

	norm, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CreateJob(JobRecord{ID: peerID, Client: "peer", Spec: norm,
		CreatedUnixNS: time.Now().UnixNano()}); err != nil {
		t.Fatal(err)
	}
	if err := s.scanOnce(false); err != nil {
		t.Fatal(err)
	}

	if l := s.dedupLeader(norm.ConfigFingerprint()); l == nil || l.id != peerID {
		got := "none"
		if l != nil {
			got = l.id
		}
		t.Errorf("leader is %s, want the peer's lower-ID %s", got, peerID)
	}
	sts := s.statuses()
	if len(sts) != 2 || sts[0].ID != peerID || sts[1].ID != ack.ID {
		ids := make([]string, len(sts))
		for i, st := range sts {
			ids[i] = st.ID
		}
		t.Errorf("statuses list %v, want [%s %s]", ids, peerID, ack.ID)
	}
}

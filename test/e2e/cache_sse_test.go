// Cache + SSE black-box tests: a real vsmoothd binary serving the
// cross-tenant result cache and the live SSE progress stream of DESIGN
// §12. The single-process test walks the README story — submit, watch
// the run live over text/event-stream, then watch a second tenant's
// identical campaign come back instantly from the cache, byte-identical
// and without a second execution. The fleet test proves the same
// guarantee across processes: worker B serves worker A's completed run
// out of the shared store's cache without executing anything itself.
package e2e

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

// submitAs POSTs a spec body under an explicit tenant identity and
// returns the full 202 ack (which carries the cached fields when the
// submission was served from the result cache).
func submitAs(t *testing.T, base, client, body string) map[string]string {
	t.Helper()
	req, _ := http.NewRequest("POST", base+"/jobs", strings.NewReader(body))
	req.Header.Set("X-Client", client)
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
		t.Fatalf("submit as %s: status %d ack %v, want 202 with id", client, resp.StatusCode, ack)
	}
	return ack
}

// counters fetches /metrics and returns the counter section.
func counters(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return snap.Counters
}

// streamEvents opens the job's SSE stream against a real server and
// returns every named frame in order (heartbeat comments are dropped —
// cadence is pinned by the in-process suite; here the lifecycle shape is
// the point).
func streamEvents(t *testing.T, base, id string) []struct{ name, data string } {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/jobs/"+id+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	var events []struct{ name, data string }
	var cur struct{ name, data string }
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024) // result frames carry whole renders
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				cur = struct{ name, data string }{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return events
}

// TestCacheAndSSEWalkthrough is the README walkthrough end to end on one
// real process: tenant A submits and follows the run live over SSE
// (monotonic progress, terminal result frame, then EOF); tenant B then
// submits the byte-for-byte identical spec and is acked already-done from
// the cache — same renders, no second execution, all telemetry-visible
// through /metrics.
func TestCacheAndSSEWalkthrough(t *testing.T) {
	sv := startServer(t, t.TempDir())

	id1 := submitJob(t, sv.base)
	events := streamEvents(t, sv.base, id1)
	if len(events) < 2 {
		t.Fatalf("SSE stream carried %d events, want at least a snapshot and the result", len(events))
	}
	var lastUnits float64
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("mid-stream event %q, want only progress before the terminal frame", ev.name)
		}
		var st struct {
			ID       string `json:"id"`
			Progress struct {
				Units float64 `json:"units"`
			} `json:"progress"`
		}
		if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
			t.Fatalf("progress frame: %v (%q)", err, ev.data)
		}
		if st.ID != id1 {
			t.Fatalf("progress for job %s on %s's stream", st.ID, id1)
		}
		if st.Progress.Units < lastUnits {
			t.Fatalf("progress went backwards: %v after %v", st.Progress.Units, lastUnits)
		}
		lastUnits = st.Progress.Units
	}
	final := events[len(events)-1]
	if final.name != "result" {
		t.Fatalf("stream ended on %q, want the result event", final.name)
	}
	var res1 map[string]any
	if err := json.Unmarshal([]byte(final.data), &res1); err != nil {
		t.Fatalf("result frame: %v", err)
	}
	if res1["state"] != "done" {
		t.Fatalf("terminal frame state %v, want done", res1["state"])
	}
	want := renderOf(t, res1, "fig7")

	executed := counters(t, sv.base)["exp.completed"]
	if executed == 0 {
		t.Fatal("first campaign completed no experiments")
	}

	// Tenant B, identical spec: acked 202 but already terminal, renders
	// served from tenant A's run.
	ack := submitAs(t, sv.base, "tenant-b", `{"experiments":["fig7"],"scale":"tiny"}`)
	if ack["state"] != "done" || ack["cached"] != "true" || ack["cache_source"] != id1 {
		t.Fatalf("identical-spec ack = %v, want already-done cached from %s", ack, id1)
	}
	res2 := jobResult(t, sv.base, ack["id"])
	if got := renderOf(t, res2, "fig7"); got != want {
		t.Errorf("cached render differs from the executed run (%d vs %d bytes)", len(got), len(want))
	}
	if res2["cached"] != true || res2["cache_source"] != id1 {
		t.Errorf("cached result carries cached=%v source=%v, want true/%s", res2["cached"], res2["cache_source"], id1)
	}

	after := counters(t, sv.base)
	if after["exp.completed"] != executed {
		t.Errorf("exp.completed %d → %d across the cached submit; the spec executed twice", executed, after["exp.completed"])
	}
	if after["api.cache_hits"] != 1 {
		t.Errorf("api.cache_hits = %d, want 1", after["api.cache_hits"])
	}
	if after["api.sse_streams"] != 1 {
		t.Errorf("api.sse_streams = %d, want 1", after["api.sse_streams"])
	}

	sv.stop(t, syscall.SIGTERM, 143)
}

// TestFleetCacheAdoption pins the cross-process cache: worker A executes
// a campaign into the shared store; worker B — booted afterwards, its
// own process with zero executions — serves an identical spec from the
// durable cache entry at admission, without running a single experiment.
func TestFleetCacheAdoption(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet cache campaign")
	}

	store := t.TempDir()
	svA := startServer(t, store, fleetArgs("A")...)
	id1 := submitJob(t, svA.base)
	want := renderOf(t, jobResult(t, svA.base, id1), "fig7")

	svB := startServer(t, store, fleetArgs("B")...)
	if n := counters(t, svB.base)["exp.completed"]; n != 0 {
		t.Fatalf("fresh worker B has exp.completed = %d, want 0", n)
	}

	// Every server serves a cache hit at admission: the ack already reads
	// done, like a lone server's.
	ack := submitAs(t, svB.base, "tenant-b", `{"experiments":["fig7"],"scale":"tiny"}`)
	res := jobResult(t, svB.base, ack["id"])
	if res["cached"] != true || res["cache_source"] != id1 {
		t.Fatalf("B's result carries cached=%v source=%v, want true/%s", res["cached"], res["cache_source"], id1)
	}
	if got := renderOf(t, res, "fig7"); got != want {
		t.Errorf("B's cached render differs from A's execution (%d vs %d bytes)", len(got), len(want))
	}

	after := counters(t, svB.base)
	if after["exp.completed"] != 0 {
		t.Errorf("worker B executed %d experiments serving a cached spec, want 0", after["exp.completed"])
	}
	if after["api.cache_hits"] != 1 {
		t.Errorf("worker B api.cache_hits = %d, want 1", after["api.cache_hits"])
	}

	svA.stop(t, syscall.SIGTERM, 143)
	svB.stop(t, syscall.SIGTERM, 143)
}

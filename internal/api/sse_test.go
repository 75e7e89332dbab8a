package api_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/telemetry"
)

// sseEvent is one parsed frame of a text/event-stream response; comments
// (heartbeats) are surfaced with name ":".
type sseEvent struct {
	name string
	data string
}

// openSSE starts a GET /jobs/{id}/events stream with the SSE Accept
// header and returns a frame reader. The context bounds the whole stream
// so a stuck test fails instead of hanging.
func openSSE(t *testing.T, ctx context.Context, base, id string) (*http.Response, func() (sseEvent, bool)) {
	t.Helper()
	req, _ := http.NewRequestWithContext(ctx, "GET", base+"/jobs/"+id+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024) // result frames carry whole renders
	next := func() (sseEvent, bool) {
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.name != "" {
					return ev, true
				}
			case strings.HasPrefix(line, ": "):
				return sseEvent{name: ":", data: strings.TrimPrefix(line, ": ")}, true
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			}
		}
		return sseEvent{}, false
	}
	return resp, next
}

// TestSSELifecycleStream drives one job end to end over the SSE surface:
// an immediate queued snapshot, heartbeats while the job is parked, then
// monotonically non-decreasing progress snapshots, and finally a result
// event carrying the full terminal Result, after which the stream ends.
func TestSSELifecycleStream(t *testing.T) {
	reg := telemetry.NewRegistry()
	uninstall := telemetry.Install(reg, telemetry.NewTrace(0))
	defer uninstall()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }
	defer rel()

	_, hs := newTestServer(t, func(c *api.Config) {
		c.JobWorkers = 1
		c.SSEHeartbeat = 50 * time.Millisecond
		c.BeforeJob = func(string) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		}
	})

	var ack map[string]string
	submit(t, hs.URL, "tenant", tinySpec(), &ack)
	id := ack["id"]
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked the job up")
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, next := openSSE(t, ctx, hs.URL, id)
	defer resp.Body.Close()

	var (
		progressEvents int
		heartbeats     int
		lastUnits      uint64
		sawResult      bool
		last           sseEvent
	)
	for {
		ev, ok := next()
		if !ok {
			break
		}
		last = ev
		switch ev.name {
		case ":":
			heartbeats++
			// The job is parked at the seam: after a couple of idle
			// heartbeats, let it run.
			if heartbeats == 2 {
				rel()
			}
		case "progress":
			progressEvents++
			var st api.Status
			if err := json.Unmarshal([]byte(ev.data), &st); err != nil {
				t.Fatalf("progress frame: %v (%q)", err, ev.data)
			}
			if st.ID != id {
				t.Fatalf("progress for job %s on %s's stream", st.ID, id)
			}
			if st.Progress.Units < lastUnits {
				t.Fatalf("progress went backwards: %d after %d", st.Progress.Units, lastUnits)
			}
			lastUnits = st.Progress.Units
		case "result":
			sawResult = true
			var res api.Result
			if err := json.Unmarshal([]byte(ev.data), &res); err != nil {
				t.Fatalf("result frame: %v", err)
			}
			if res.State != api.StateDone || len(res.Renders["fig7"]) == 0 {
				t.Fatalf("terminal event state=%s renders=%d bytes, want done with a figure", res.State, len(res.Renders["fig7"]))
			}
		}
	}

	if progressEvents == 0 {
		t.Error("stream carried no progress snapshots")
	}
	if heartbeats < 2 {
		t.Errorf("saw %d heartbeats while the job was parked, want >= 2", heartbeats)
	}
	if lastUnits == 0 {
		t.Error("no progress snapshot carried completed units")
	}
	if !sawResult || last.name != "result" {
		t.Errorf("stream ended on %q (result seen: %v), want the result event last", last.name, sawResult)
	}
	if got := reg.Snapshot().Counters["api.sse_streams"]; got != 1 {
		t.Errorf("api.sse_streams = %d, want 1", got)
	}
}

// TestSSETerminalJobStreamsResultImmediately pins the already-done path:
// a stream opened on a terminal job gets one terminal snapshot, the
// result event, and EOF — no waiting, no heartbeat.
func TestSSETerminalJobStreamsResultImmediately(t *testing.T) {
	_, hs := newTestServer(t, nil)
	var ack map[string]string
	submit(t, hs.URL, "tenant", tinySpec(), &ack)
	if st := waitTerminal(t, hs.URL, ack["id"]); st.State != api.StateDone {
		t.Fatalf("job: %s", st.State)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, next := openSSE(t, ctx, hs.URL, ack["id"])
	defer resp.Body.Close()

	var names []string
	for {
		ev, ok := next()
		if !ok {
			break
		}
		names = append(names, ev.name)
	}
	if len(names) != 2 || names[0] != "progress" || names[1] != "result" {
		t.Fatalf("terminal stream events = %v, want [progress result]", names)
	}
}

// TestSSEDrainEndsStream pins the shutdown path: when the drain deadline
// hard-stops job execution, open streams are told to reconnect with a
// draining event instead of being cut mid-frame.
func TestSSEDrainEndsStream(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var once sync.Once
	rel := func() { once.Do(func() { close(release) }) }
	defer rel()

	srv, hs := newTestServer(t, func(c *api.Config) {
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
	submit(t, hs.URL, "tenant", tinySpec(), &ack)
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked the job up")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, next := openSSE(t, ctx, hs.URL, ack["id"])
	defer resp.Body.Close()

	// Drain with a short budget the parked worker cannot meet: the
	// deadline fires jobsCancel, which must end the stream gracefully.
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		dctx, dcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer dcancel()
		srv.Drain(dctx)
	}()

	sawDraining := false
	for {
		ev, ok := next()
		if !ok {
			break
		}
		if ev.name == "draining" {
			sawDraining = true
		}
	}
	if !sawDraining {
		t.Error("stream ended without the draining event")
	}

	rel() // let the parked worker unwind so Drain can finish
	select {
	case <-drainDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned")
	}
}

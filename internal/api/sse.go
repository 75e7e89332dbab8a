package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// sseWriteTimeout bounds each SSE frame write: a consumer that can't drain
// a frame within it is dropped (counted in api.sse_dropped) rather than
// pinning server memory or blocking the stream goroutine.
const sseWriteTimeout = 5 * time.Second

// streamEvents serves GET /jobs/{id}/events as a Server-Sent-Events
// stream (DESIGN §12): an immediate `progress` snapshot, another on every
// job-scoped observer tick (runner OnEvent, journal OnReplay, state
// transitions — coalesced through the job's watcher channel, so a slow
// client sees fewer snapshots, never stale ones), comment heartbeats
// every SSEHeartbeat, and finally a `result` event carrying the full
// terminal Result, after which the stream ends. Progress units are fed
// from monotonic atomic counters, so successive snapshots never go
// backwards.
//
// The stream ends on: the terminal result (normal), the client
// disconnecting (r.Context, which also unsubscribes the watcher), or the
// server's hard stop (drain deadline / Close) — announced with a
// `draining` event telling the client to reconnect after restart; a
// graceful drain alone keeps streams open, since running jobs may still
// finish inside the drain budget.
//
// Slow-consumer protection: the stream is exempted from the http.Server
// ReadTimeout (a long-lived GET sends no further bytes), but every frame
// is written under a fresh sseWriteTimeout deadline. A client that stalls
// its receive window past the deadline fails the write; the watcher is
// dropped — counted in api.sse_dropped — instead of pinning the
// connection, its buffers, and a notifier slot forever.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, jb *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	rc := http.NewResponseController(w)
	// Lift the server-wide ReadTimeout for this request: an SSE client
	// never sends again, so the read deadline would otherwise kill every
	// stream outliving it. ErrNotSupported (custom ResponseWriter wrappers
	// in tests) degrades to the server-wide behavior.
	if err := rc.SetReadDeadline(time.Time{}); err != nil && !errors.Is(err, http.ErrNotSupported) {
		s.logf("job %s: sse: clear read deadline: %v", jb.id, err)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)

	apiSSEStreams.Inc()

	// flush pushes one frame under a per-frame write deadline. false means
	// the client has stalled past sseWriteTimeout (or the connection died):
	// the caller must drop the stream.
	flush := func() bool {
		if err := rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return false
		}
		fl.Flush()
		if err := rc.SetWriteDeadline(time.Time{}); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return false
		}
		return true
	}
	dropped := func() {
		apiSSEDropped.Inc()
		s.logf("job %s: sse: slow consumer stalled past %s; dropping stream", jb.id, sseWriteTimeout)
	}

	// Subscribe before the first snapshot: a transition landing between
	// the snapshot and the first select is a tick already waiting.
	ch, stop := jb.watch()
	defer stop()

	snapshot := func() (term, ok bool) {
		st := jb.status()
		s.decorateOwner(&st)
		writeSSE(w, "progress", st)
		return st.State.terminal(), flush()
	}
	terminal := func() {
		jb.mu.Lock()
		res := jb.result
		jb.mu.Unlock()
		if res != nil {
			writeSSE(w, "result", res)
			flush()
		}
	}

	if term, ok := snapshot(); !ok {
		dropped()
		return
	} else if term {
		terminal()
		return
	}
	hb := time.NewTicker(s.cfg.SSEHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			// Client went away; the deferred stop() unsubscribes, and the
			// coalescing watcher means no backlog was held for it.
			return
		case <-s.jobsCtx.Done():
			fmt.Fprint(w, "event: draining\ndata: {}\n\n")
			flush()
			return
		case <-ch:
			term, ok := snapshot()
			if !ok {
				dropped()
				return
			}
			if term {
				terminal()
				return
			}
		case <-hb.C:
			// Comment line: ignored by EventSource parsers, keeps idle
			// connections alive through proxies. The heartbeat doubles as
			// the stall detector for streams with no progress traffic.
			fmt.Fprint(w, ": heartbeat\n\n")
			if !flush() {
				dropped()
				return
			}
		}
	}
}

// writeSSE frames one event. SSE data may not contain raw newlines;
// compact JSON marshaling guarantees a single line.
func writeSSE(w io.Writer, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

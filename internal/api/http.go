package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"voltsmooth/internal/lease"
	"voltsmooth/internal/telemetry"
)

// Handler returns the service's HTTP surface:
//
//	POST   /jobs             submit a campaign job  → 202 Accepted {id}
//	GET    /jobs             list all job statuses
//	GET    /jobs/{id}        one job's status + live progress
//	GET    /jobs/{id}/events the job's scoped event trace (JSONL), or — with
//	                         Accept: text/event-stream — a live SSE stream of
//	                         progress snapshots ending in the terminal result
//	GET    /jobs/{id}/result the terminal result (renders) — 409 until terminal
//	DELETE /jobs/{id}        cancel (queued: immediate, under the job's
//	                         lease — 409 while a peer holds it; running:
//	                         cooperative)
//	GET    /healthz          process liveness (200 while the process serves)
//	GET    /readyz           admission readiness (503 once draining)
//	GET    /metrics          process-wide registry snapshot (JSON)
//	       /debug/pprof/     runtime profiles
//
// Submission backpressure is explicit, never buffering: a spent client
// quota or a full queue is 429 with a Retry-After header, and a draining
// server is 503. The 202 is written only after the job record is durably
// on disk — an acked job survives any crash.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	debug := telemetry.Handler()
	mux.Handle("GET /metrics", debug)
	mux.Handle("/debug/pprof/", debug)
	return mux
}

// maxSpecBytes bounds a submission body; a campaign spec is a few hundred
// bytes, so anything near the cap is a client bug, not a bigger campaign.
const maxSpecBytes = 1 << 20

// clientOf identifies the tenant for quota accounting: the X-Client
// header, or "anonymous" — absent headers share one anonymous bucket
// rather than bypassing quotas.
func clientOf(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	return "anonymous"
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	client := clientOf(r)
	apiJobsSubmitted.Inc()

	// Drain check first: a draining server refuses before spending the
	// client's quota tokens on a doomed submission. Like every other
	// backpressure path, the 503 carries Retry-After — derived from the
	// drain budget actually remaining, since a restart (or a peer on the
	// store) can be serving well within it.
	if s.isDraining() {
		apiJobsUnavailable.Inc()
		w.Header().Set("Retry-After", s.retryAfterDraining())
		writeError(w, http.StatusServiceUnavailable, "server is draining; resubmit after restart")
		return
	}

	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parse spec: %v", err))
		return
	}
	spec, err := spec.Validate()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	if ok, retry := s.quotas.take(client); !ok {
		apiJobsRejected.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("client %q is over its admission quota; retry after %s", client, retryAfterSeconds(retry)+"s"))
		return
	}

	// Cross-tenant result cache (DESIGN §12): a spec whose fingerprint
	// already has a completed execution is served instantly — the 202 is
	// followed by an immediately-terminal job, with no queue slot spent.
	hit := s.cacheLookup(spec.ConfigFingerprint())
	if hit == nil && !s.reserveSlot(w, client, spec) {
		return
	}
	// release gives back the reserved slot when admission fails after it.
	release := func() {
		if hit == nil {
			s.mu.Lock()
			s.depth--
			apiQueueDepth.Set(int64(s.depth))
			s.mu.Unlock()
		}
	}

	// The ID comes from the store's flock-guarded counter, not process
	// memory: two servers on one store admitting concurrently can never
	// mint the same sequence.
	id, err := s.store.AllocateID()
	if err != nil {
		release()
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("allocate job id: %v", err))
		return
	}
	rec := JobRecord{ID: id, Client: client, Spec: spec, CreatedUnixNS: time.Now().UnixNano()}
	jb := s.newJob(rec)
	// Queued from birth: a hit finishes below without a queue slot, and the
	// flag keeps this process's scanner from nominating it meanwhile.
	jb.enqueued = true
	s.mu.Lock()
	s.jobs[id] = jb
	s.mu.Unlock()

	// Durability before acknowledgment: the job record reaches disk
	// (fsynced) before the 202, so an acked job survives a crash and is
	// re-enqueued by the next boot's recovery scan — cached or not.
	if err := s.store.CreateJob(rec); err != nil {
		release()
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("persist job: %v", err))
		return
	}

	apiJobsAdmitted.Inc()
	jb.trace.Emit(telemetry.Event{Kind: "api.job.queued", ID: id})
	w.Header().Set("Location", "/jobs/"+id)
	if hit != nil {
		// Completed from the entry on the spot: no queue slot, no worker,
		// no execution, and no lease — the one terminal write outside one.
		s.finishFromCache(jb, hit)
		writeJSON(w, http.StatusAccepted, map[string]string{
			"id": id, "state": string(StateDone), "cached": "true", "cache_source": hit.SourceJob,
		})
		return
	}
	s.enqueue(jb)
	s.maybePreempt(jb.rank())
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": string(StateQueued)})
}

// reserveSlot reserves a queue slot for a submission under the lock: the
// depth check and the increment are atomic, so an admitted job always
// owns a slot and its enqueue can never over-fill the queue. A refusal
// (draining, bulk shed, queue full) is written to w and reported false.
func (s *Server) reserveSlot(w http.ResponseWriter, client string, spec JobSpec) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		apiJobsUnavailable.Inc()
		w.Header().Set("Retry-After", s.retryAfterDraining())
		writeError(w, http.StatusServiceUnavailable, "server is draining; resubmit after restart")
		return false
	}
	// Overload shedding (DESIGN §13): past the watermark, bulk work is
	// refused while interactive/batch can still use the remaining headroom.
	// Shedding beats queue-stuffing — a bulk job admitted onto a saturated
	// queue would only age into everyone's way; the 429 + Retry-After tells
	// the tenant when a slot should plausibly free instead.
	if priorityRank(spec.Priority) == rankBulk && s.depth >= s.cfg.ShedWatermark {
		s.mu.Unlock()
		apiJobsRejected.Inc()
		apiJobsShed.Inc()
		w.Header().Set("Retry-After", s.retryAfterQueueFull())
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("bulk work shed: queue depth is past the watermark (%d); retry later", s.cfg.ShedWatermark))
		return false
	}
	if s.depth >= s.cfg.QueueCap {
		s.mu.Unlock()
		apiJobsRejected.Inc()
		w.Header().Set("Retry-After", s.retryAfterQueueFull())
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("admission queue is full (%d waiting); retry later", s.cfg.QueueCap))
		return false
	}
	s.depth++
	apiQueueDepth.Set(int64(s.depth))
	s.mu.Unlock()
	return true
}

// retryAfterDraining derives the draining 503's Retry-After from the
// drain budget actually remaining — past the deadline this process is
// gone and a restart (or a peer on the same store) can admit. The
// pre-derivation default of 10s stands when no deadline is known (Drain
// hasn't recorded one, or it was called without a deadline).
func (s *Server) retryAfterDraining() string {
	s.mu.Lock()
	dl := s.drainDeadline
	s.mu.Unlock()
	if dl.IsZero() {
		return "10"
	}
	return retryAfterSeconds(time.Until(dl))
}

// retryAfterQueueFull estimates when a queue slot frees. On a saturated
// server a slot opens roughly every avgJobDur/JobWorkers, so that is the
// advertised wait once at least one job has executed; before any
// completion the estimate falls back to the scan interval (a peer may pick
// the store's jobs up within one scan). Clamped to [1s, 5m] — backoff
// guidance, not a promise.
func (s *Server) retryAfterQueueFull() string {
	s.mu.Lock()
	avg := s.avgJobDur
	s.mu.Unlock()
	d := s.cfg.ScanInterval
	if avg > 0 {
		d = avg / time.Duration(s.cfg.JobWorkers)
	}
	if d > 5*time.Minute {
		d = 5 * time.Minute
	}
	return retryAfterSeconds(d)
}

// retryAfterResult estimates when a non-terminal job's result will
// exist: the average job duration minus how long this one has been
// running, clamped to [1s, 1m]; 2s when nothing is known yet.
func (s *Server) retryAfterResult(jb *job) string {
	s.mu.Lock()
	avg := s.avgJobDur
	s.mu.Unlock()
	jb.mu.Lock()
	started := jb.started
	jb.mu.Unlock()
	if avg <= 0 || started.IsZero() {
		return "2"
	}
	d := avg - time.Since(started)
	if d > time.Minute {
		d = time.Minute
	}
	return retryAfterSeconds(d)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sts := s.statuses()
	for i := range sts {
		s.decorateOwner(&sts[i])
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": sts})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	st := jb.status()
	s.decorateOwner(&st)
	writeJSON(w, http.StatusOK, st)
}

// decorateOwner fills a status's Owner/Epoch from the job's on-disk lease
// — the disk is the source of truth for ownership, so the status reflects
// peers' claims, not just this process's. It reads past the chaos plane:
// a status poll is no lease operation and must not move a kill-point.
func (s *Server) decorateOwner(st *Status) {
	if l, err := lease.Load(nil, s.store.jobDir(st.ID)); err == nil && l != nil {
		st.Owner = l.WorkerID
		st.Epoch = l.Epoch
	}
}

// handleEvents serves a job's event surface in two modes, negotiated by
// Accept. With "text/event-stream" it is a live Server-Sent-Events
// stream of progress snapshots ending in the terminal result (sse.go);
// otherwise it dumps the job's scoped event ring as JSONL — the same
// format as the CLI's -trace export, bounded by the ring capacity.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamEvents(w, r, jb)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	if err := jb.trace.WriteJSONL(w); err != nil {
		// Mid-stream failure: the status line is already gone; nothing
		// useful left to send.
		s.logf("job %s: stream events: %v", jb.id, err)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	jb.mu.Lock()
	res := jb.result
	state := jb.state
	jb.mu.Unlock()
	if res == nil {
		w.Header().Set("Retry-After", s.retryAfterResult(jb))
		writeError(w, http.StatusConflict, fmt.Sprintf("job is %s; result exists once terminal", state))
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleCancel cancels a job. Canceling a job nobody runs is a terminal
// write, so it claims the job's lease first: under a peer's live lease the
// answer is 409 and nothing changes. A job a local worker holds is
// canceled cooperatively, at its next run boundary. Terminal jobs are left
// as-is (200, idempotent).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	jb.mu.Lock()
	state := jb.state
	jb.mu.Unlock()
	var err error
	if !state.terminal() {
		_, err = s.claim(jb)
	}
	switch {
	case state.terminal():
		// Idempotent: already finished, report the state it finished in.
	case errors.Is(err, errClaimedHere):
		jb.mu.Lock()
		jb.canceled = true
		cancel := jb.cancel
		jb.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		jb.trace.Emit(telemetry.Event{Kind: "api.job.cancel_requested", ID: jb.id})
		state = StateRunning // cooperative: terminal state lands when it unwinds
	case err != nil:
		writeError(w, http.StatusConflict, fmt.Sprintf("job is owned by another worker; cancel there or retry: %v", err))
		return
	default:
		if res, lerr := s.store.LoadResult(jb.id); lerr == nil {
			// A peer finished it in the meantime; its result stands.
			s.adoptResult(jb, res)
			state = res.State
		} else {
			// A suspended job is just a queued job with a checkpoint —
			// cancel discards the resume.
			s.finishJob(jb, StateCanceled, "canceled while queued", nil, nil)
			state = StateCanceled
		}
		s.release(jb, "")
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": jb.id, "state": string(state)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process is up and serving. Stays 200 during drain —
	// a draining server is alive, just not ready.
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// retryAfterSeconds formats a backoff as whole seconds, rounded up and at
// least 1 — Retry-After carries integer seconds.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil && !errors.Is(err, http.ErrBodyNotAllowed) {
		// Client went away mid-encode; nothing to do.
		_ = err
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

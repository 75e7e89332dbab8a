package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"voltsmooth/internal/api"
)

// newTestServer builds a server over a fresh store with quiet logging and
// the given overrides applied.
func newTestServer(t *testing.T, mutate func(*api.Config)) (*api.Server, *httptest.Server) {
	t.Helper()
	st, err := api.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := api.Config{
		Store:                 st,
		DefaultSessionWorkers: 4,
		Logf:                  t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := api.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

// submit POSTs a spec and returns the response; the body is decoded into
// out when the pointer is non-nil.
func submit(t *testing.T, base string, client string, spec api.JobSpec, out any) *http.Response {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", base+"/jobs", bytes.NewReader(body))
	if client != "" {
		req.Header.Set("X-Client", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp
}

// getJSON decodes a GET into out and returns the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitTerminal polls a job's status until it reaches a terminal state.
func waitTerminal(t *testing.T, base, id string) api.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st api.Status
		if code := getJSON(t, base+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: status %d", id, code)
		}
		switch st.State {
		case api.StateDone, api.StateFailed, api.StateCanceled:
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return api.Status{}
}

// tinySpec is the standard one-experiment test campaign (~1s).
func tinySpec() api.JobSpec {
	return api.JobSpec{Experiments: []string{"fig7"}, Scale: "tiny"}
}

// TestJobLifecycle drives one job through the whole surface: submit (202 +
// durable record), status while queued/running, terminal status with
// progress, the rendered result, and the scoped event trace.
func TestJobLifecycle(t *testing.T) {
	_, hs := newTestServer(t, nil)

	var ack map[string]string
	resp := submit(t, hs.URL, "tenant-a", tinySpec(), &ack)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	id := ack["id"]
	if id == "" {
		t.Fatal("submit: no job id in response")
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+id {
		t.Errorf("submit: Location = %q, want /jobs/%s", loc, id)
	}

	st := waitTerminal(t, hs.URL, id)
	if st.State != api.StateDone {
		t.Fatalf("job finished %s (%s), want done", st.State, st.Error)
	}
	if st.Client != "tenant-a" {
		t.Errorf("status client = %q, want tenant-a", st.Client)
	}
	if st.Progress.Units == 0 {
		t.Error("terminal status reports zero completed units")
	}
	if st.Progress.ExperimentsDone != 1 || st.Progress.ExperimentsTotal != 1 {
		t.Errorf("experiments done/total = %d/%d, want 1/1",
			st.Progress.ExperimentsDone, st.Progress.ExperimentsTotal)
	}
	if st.StartedUnixNS == 0 || st.FinishedUnixNS == 0 {
		t.Error("terminal status missing started/finished timestamps")
	}

	var res api.Result
	if code := getJSON(t, hs.URL+"/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("GET result: status %d", code)
	}
	if res.State != api.StateDone || len(res.Renders["fig7"]) == 0 {
		t.Fatalf("result: state=%s renders[fig7] %d bytes; want done with a rendered figure",
			res.State, len(res.Renders["fig7"]))
	}
	if res.Attempts["fig7"] != 1 {
		t.Errorf("result attempts[fig7] = %d, want 1", res.Attempts["fig7"])
	}

	// The scoped event trace must tell the job's whole story.
	eresp, err := http.Get(hs.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	var events bytes.Buffer
	events.ReadFrom(eresp.Body)
	for _, kind := range []string{"api.job.queued", "api.job.running", "api.job.done", "run.done"} {
		if !strings.Contains(events.String(), kind) {
			t.Errorf("event trace missing %q", kind)
		}
	}

	// And the listing includes it.
	var list struct {
		Jobs []api.Status `json:"jobs"`
	}
	if code := getJSON(t, hs.URL+"/jobs", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Errorf("GET /jobs: code=%d len=%d, want 200 with 1 job", code, len(list.Jobs))
	}
}

// TestSubmitValidation maps bad specs to 400 with a useful message.
func TestSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, nil)
	for name, spec := range map[string]api.JobSpec{
		"no experiments": {Scale: "tiny"},
		"unknown id":     {Experiments: []string{"fig99"}, Scale: "tiny"},
		"bad scale":      {Experiments: []string{"fig7"}, Scale: "huge"},
		"neg timeout":    {Experiments: []string{"fig7"}, TimeoutMS: -1},
		"too wide":       {Experiments: []string{"fig7"}, Workers: 1 << 10},
	} {
		var errBody map[string]string
		if resp := submit(t, hs.URL, "", spec, &errBody); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		} else if errBody["error"] == "" {
			t.Errorf("%s: 400 without an error message", name)
		}
	}
}

// TestSaturationReturns429 is the backpressure acceptance test: with one
// worker held mid-job and the queue full, further submissions are refused
// with 429 + Retry-After — explicitly, immediately, and without buffering.
func TestSaturationReturns429(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan struct{})
	_, hs := newTestServer(t, func(c *api.Config) {
		c.JobWorkers = 1
		c.QueueCap = 2
		c.BeforeJob = func(id string) {
			select {
			case entered <- id:
			default:
			}
			<-release
		}
	})
	defer close(release)

	// Job A occupies the only worker (held at the BeforeJob seam).
	var ack map[string]string
	if resp := submit(t, hs.URL, "c1", tinySpec(), &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job A: status %d", resp.StatusCode)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up job A")
	}

	// B and C fill the queue.
	var queued []string
	for i := 0; i < 2; i++ {
		var a map[string]string
		if resp := submit(t, hs.URL, "c1", tinySpec(), &a); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: status %d", i, resp.StatusCode)
		}
		queued = append(queued, a["id"])
	}

	// D must bounce: 429, Retry-After set, body names the condition.
	var errBody map[string]string
	resp := submit(t, hs.URL, "c1", tinySpec(), &errBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("saturated submit: Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(errBody["error"], "queue") {
		t.Errorf("saturated submit error = %q, want it to name the full queue", errBody["error"])
	}

	// Cancel the queued jobs so the test doesn't pay for three campaigns;
	// canceling them frees queue depth only when dequeued, but terminal
	// state is immediate and durable.
	for _, id := range queued {
		req, _ := http.NewRequest("DELETE", hs.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: status %d", id, resp.StatusCode)
		}
		if st := waitTerminal(t, hs.URL, id); st.State != api.StateCanceled {
			t.Fatalf("canceled queued job %s reached %s", id, st.State)
		}
	}
}

// TestQuotaReturns429 pins per-client admission quotas: a client that
// spends its burst is refused with 429 + Retry-After while another client
// is still admitted.
func TestQuotaReturns429(t *testing.T) {
	release := make(chan struct{})
	_, hs := newTestServer(t, func(c *api.Config) {
		c.JobWorkers = 1
		c.QueueCap = 16
		c.QuotaRate = 0.01 // one token per 100s: no refill within the test
		c.QuotaBurst = 2
		c.BeforeJob = func(string) { <-release } // park everything
	})
	defer close(release)

	for i := 0; i < 2; i++ {
		if resp := submit(t, hs.URL, "greedy", tinySpec(), nil); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: status %d", i, resp.StatusCode)
		}
	}
	var errBody map[string]string
	resp := submit(t, hs.URL, "greedy", tinySpec(), &errBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("over-quota submit: no Retry-After header")
	}
	if !strings.Contains(errBody["error"], "quota") {
		t.Errorf("over-quota error = %q, want it to name the quota", errBody["error"])
	}
	// Quotas are per client: a different tenant is unaffected.
	if resp := submit(t, hs.URL, "patient", tinySpec(), nil); resp.StatusCode != http.StatusAccepted {
		t.Errorf("other client: status %d, want 202", resp.StatusCode)
	}
}

// TestDrainRefusesNewWork pins the graceful-shutdown contract: once
// draining, /readyz flips to 503 and submissions are refused with 503
// while /healthz stays 200.
func TestDrainRefusesNewWork(t *testing.T) {
	srv, hs := newTestServer(t, nil)

	if code := getJSON(t, hs.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("pre-drain readyz: %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain of an idle server: %v", err)
	}

	if code := getJSON(t, hs.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz: %d, want 503", code)
	}
	if code := getJSON(t, hs.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("draining healthz: %d, want 200 (alive, not ready)", code)
	}
	var errBody map[string]string
	resp := submit(t, hs.URL, "", tinySpec(), &errBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit: status %d, want 503", resp.StatusCode)
	} else if !strings.Contains(errBody["error"], "drain") {
		t.Errorf("draining submit error = %q, want it to say draining", errBody["error"])
	}
	// Like every other backpressure response, the drain 503 must tell the
	// client when to come back.
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("draining submit 503 is missing Retry-After")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Errorf("draining submit Retry-After = %q, want a positive integer of seconds", ra)
	}
}

// TestResultBeforeTerminal409 pins the result endpoint's contract while a
// job is still in flight.
func TestResultBeforeTerminal409(t *testing.T) {
	release := make(chan struct{})
	_, hs := newTestServer(t, func(c *api.Config) {
		c.JobWorkers = 1
		c.BeforeJob = func(string) { <-release }
	})
	defer close(release)

	var ack map[string]string
	submit(t, hs.URL, "", tinySpec(), &ack)
	if code := getJSON(t, hs.URL+"/jobs/"+ack["id"]+"/result", nil); code != http.StatusConflict {
		t.Errorf("result of non-terminal job: status %d, want 409", code)
	}
	if code := getJSON(t, hs.URL+"/jobs/nope/result", nil); code != http.StatusNotFound {
		t.Errorf("result of unknown job: status %d, want 404", code)
	}
}

// TestSpecDropsRepeatedExperiments pins that Validate runs each named
// experiment once: a repeated ID is dropped, the first occurrences keep
// their order, and the fingerprint is the deduplicated list's.
func TestSpecDropsRepeatedExperiments(t *testing.T) {
	normalize := func(ids ...string) api.JobSpec {
		t.Helper()
		spec, err := api.JobSpec{Experiments: ids}.Validate()
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	got := normalize("fig9", "fig7", "fig9", "fig7")
	if want := []string{"fig9", "fig7"}; !slices.Equal(got.Experiments, want) {
		t.Errorf("experiments = %v, want %v", got.Experiments, want)
	}
	if got.ConfigFingerprint() != normalize("fig9", "fig7").ConfigFingerprint() {
		t.Error("a repeated experiment changed the fingerprint")
	}
	if normalize("fig7", "fig7").ConfigFingerprint() != normalize("fig7").ConfigFingerprint() {
		t.Error(`["fig7","fig7"] and ["fig7"] fingerprint differently`)
	}
}

// TestSpecAllExpansion pins that "all" validates and expands against the
// experiment registry (validation only — running all experiments is the
// CLI suite's job).
func TestSpecAllExpansion(t *testing.T) {
	spec := api.JobSpec{Experiments: []string{"all"}}
	normalized, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if len(normalized.Experiments) < 10 {
		t.Errorf("\"all\" expanded to %d experiments, want the full registry", len(normalized.Experiments))
	}
	if normalized.Scale != "tiny" {
		t.Errorf("default scale = %q, want tiny", normalized.Scale)
	}
}

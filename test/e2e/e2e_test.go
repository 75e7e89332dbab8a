// Package e2e black-box tests the vsmoothd service binary: a real build
// of cmd/vsmoothd, driven only through its HTTP surface and POSIX
// signals. The centerpiece is the kill–restart test: a job is cut down by
// a real SIGKILL at a deterministic chaos kill-point mid-journal-write,
// the server is restarted over the same store, and the recovered job's
// rendered figures must be byte-identical to an uninterrupted reference
// run — the repository's crash-recovery promise, proven end to end.
package e2e

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// binPath is the vsmoothd binary TestMain builds once for every test.
var binPath string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "vsmoothd-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e: mktemp:", err)
		os.Exit(1)
	}
	binPath = filepath.Join(tmp, "vsmoothd")
	build := exec.Command("go", "build", "-o", binPath, "voltsmooth/cmd/vsmoothd")
	build.Dir = "../.." // module root
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: build vsmoothd: %v\n%s", err, out)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// server is one running vsmoothd process under test.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	waited chan error
}

var addrRE = regexp.MustCompile(`serving on http://([^ ]+) `)

// startServer launches the binary against the store and waits for its
// readiness line (which carries the bound port). Extra args are appended
// after the defaults.
func startServer(t *testing.T, store string, extra ...string) *server {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-store", store}, extra...)
	cmd := exec.Command(binPath, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	sv := &server{cmd: cmd, waited: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("[vsmoothd] %s", line)
			if m := addrRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
	}()
	go func() { sv.waited <- cmd.Wait() }()

	select {
	case a := <-addr:
		sv.base = "http://" + a
	case err := <-sv.waited:
		t.Fatalf("vsmoothd exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("vsmoothd never reported its listen address")
	}
	t.Cleanup(func() {
		if sv.cmd.ProcessState == nil {
			sv.cmd.Process.Kill()
			<-sv.waited
		}
	})
	return sv
}

// stop sends sig and asserts the process exits with wantCode.
func (sv *server) stop(t *testing.T, sig syscall.Signal, wantCode int) {
	t.Helper()
	if err := sv.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sv.waited:
		var code int
		if exit, ok := err.(*exec.ExitError); ok {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("wait: %v", err)
		}
		if code != wantCode {
			t.Fatalf("exit code %d after %v, want %d (128+signum)", code, sig, wantCode)
		}
	case <-time.After(60 * time.Second):
		sv.cmd.Process.Kill()
		t.Fatalf("vsmoothd did not exit within 60s of %v", sig)
	}
}

// waitKilled waits for the process to die and asserts SIGKILL ended it.
func (sv *server) waitKilled(t *testing.T) {
	t.Helper()
	select {
	case err := <-sv.waited:
		exit, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("vsmoothd exited cleanly (%v), want death by SIGKILL", err)
		}
		ws, ok := exit.Sys().(syscall.WaitStatus)
		if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
			t.Fatalf("vsmoothd ended with %v, want SIGKILL", err)
		}
	case <-time.After(2 * time.Minute):
		sv.cmd.Process.Kill()
		t.Fatal("chaos kill-point never fired")
	}
}

// submitJob POSTs the standard one-experiment campaign and returns the ID.
func submitJob(t *testing.T, base string) string {
	t.Helper()
	body := `{"experiments":["fig7"],"scale":"tiny"}`
	req, _ := http.NewRequest("POST", base+"/jobs", strings.NewReader(body))
	req.Header.Set("X-Client", "e2e")
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
		t.Fatalf("submit: status %d ack %v, want 202 with id", resp.StatusCode, ack)
	}
	return ack["id"]
}

// jobResult fetches a job's terminal result, polling status until it gets
// there.
func jobResult(t *testing.T, base, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		switch st["state"] {
		case "done":
			rresp, err := http.Get(base + "/jobs/" + id + "/result")
			if err != nil {
				t.Fatal(err)
			}
			defer rresp.Body.Close()
			var res map[string]any
			if err := json.NewDecoder(rresp.Body).Decode(&res); err != nil {
				t.Fatal(err)
			}
			if rresp.StatusCode != http.StatusOK {
				t.Fatalf("result: status %d (%v)", rresp.StatusCode, res)
			}
			return res
		case "failed", "canceled":
			t.Fatalf("job %s reached %v: %v", id, st["state"], st["error"])
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// renderOf extracts one experiment's rendered text from a result payload.
func renderOf(t *testing.T, res map[string]any, exp string) string {
	t.Helper()
	renders, ok := res["renders"].(map[string]any)
	if !ok {
		t.Fatalf("result has no renders: %v", res)
	}
	text, ok := renders[exp].(string)
	if !ok || text == "" {
		t.Fatalf("result has no render for %s", exp)
	}
	return text
}

// TestSmoke is the -short service check: boot, health, one whole job
// lifecycle over HTTP, the debug surface, graceful SIGTERM with exit 143.
func TestSmoke(t *testing.T) {
	sv := startServer(t, t.TempDir())

	resp, err := http.Get(sv.base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(sv.base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}

	id := submitJob(t, sv.base)
	res := jobResult(t, sv.base, id)
	if renderOf(t, res, "fig7") == "" {
		t.Fatal("empty render")
	}

	// /metrics reflects the job through the wired api.* instruments.
	mresp, err := http.Get(sv.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, name := range []string{"api.jobs_admitted", "api.jobs_completed", "exp.units"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
	// The same debug surface as the CLI's -metrics-addr: pprof beside it.
	presp, err := http.Get(sv.base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/: %d", presp.StatusCode)
	}

	sv.stop(t, syscall.SIGTERM, 143)
}

// fsckStore runs `vsmoothd -fsck -fsck-repair` over the store and asserts
// it exits 0 — the store was clean, or every piece of crash debris (tmp
// orphans, stale lock sidecars, torn cache entries) was provably safe to
// remove and was removed. Every kill test ends with this: a SIGKILLed
// store must never hold damage the scrubber cannot repair.
func fsckStore(t *testing.T, store string) {
	t.Helper()
	cmd := exec.Command(binPath, "-store", store, "-fsck", "-fsck-repair")
	out, err := cmd.CombinedOutput()
	if len(out) > 0 {
		t.Logf("[fsck] %s", strings.TrimSpace(string(out)))
	}
	if err != nil {
		t.Fatalf("fsck after kill found unrepairable damage: %v", err)
	}
}

// TestKillRestartRecovery is the crash-recovery acceptance test. A
// reference server runs the campaign uninterrupted. A second server runs
// the same campaign but SIGKILLs itself at a deterministic chaos-plane
// operation — a real kernel kill mid-write, no cleanup. Restarted over
// the same store, it must recover the job once the dead process's lease
// expires, resume from the journal (resumed_units > 0), and produce
// byte-identical rendered figures.
func TestKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process kill-restart campaign")
	}

	// Uninterrupted reference.
	ref := startServer(t, t.TempDir())
	refRes := jobResult(t, ref.base, submitJob(t, ref.base))
	want := renderOf(t, refRes, "fig7")
	ref.stop(t, syscall.SIGTERM, 143)

	// Crash run: the chaos plane SIGKILLs the server at its 25th op, counting
	// journal and lease ops — mid-campaign, after some units are
	// checkpointed, before the end.
	store := t.TempDir()
	crash := startServer(t, store, "-chaos-kill-at-op", "25")
	id := submitJob(t, crash.base)
	crash.waitKilled(t)

	// The store must already hold the acked job (202 implies durability)
	// and a journal with the pre-kill checkpoints.
	if _, err := os.Stat(filepath.Join(store, "jobs", id, "job.json")); err != nil {
		t.Fatalf("acked job not durable across SIGKILL: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(store, "jobs", id, "journal.jsonl")); err != nil || fi.Size() == 0 {
		t.Fatalf("journal missing or empty after SIGKILL: %v", err)
	}

	// Scrub the freshly-torn store before restarting over it: the SIGKILL
	// may have left tmp orphans mid-rename, and fsck must repair everything
	// it finds without touching the journal the recovery depends on.
	fsckStore(t, store)

	// Restart over the same store under a new worker ID (a new pid): its
	// boot scan finds the job under the dead process's live lease and
	// resumes it once the lease expires (-lease-ttl, 3s by default).
	again := startServer(t, store)
	res := jobResult(t, again.base, id)
	if got := renderOf(t, res, "fig7"); got != want {
		t.Errorf("recovered render differs from uninterrupted reference\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	resumed, _ := res["resumed_units"].(float64)
	if resumed <= 0 {
		t.Errorf("resumed_units = %v, want > 0 (the journal must have replayed the pre-kill units)", res["resumed_units"])
	}
	again.stop(t, syscall.SIGTERM, 143)
	fsckStore(t, store)
}

// TestDrainUnderLoad pins graceful shutdown with work in flight: SIGTERM
// while a job runs lets it finish within the drain budget, flips /readyz,
// refuses new submissions with 503, and still exits 143.
func TestDrainUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process campaign test")
	}
	store := t.TempDir()
	sv := startServer(t, store, "-drain-timeout", "120s")
	id := submitJob(t, sv.base)

	// Give the job a moment to start, then begin the drain.
	time.Sleep(300 * time.Millisecond)
	if err := sv.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// While draining, new submissions bounce with 503 (the HTTP listener
	// stays up until running jobs finish). The window is real but brief —
	// poll rather than assume.
	sawRefusal := false
	for i := 0; i < 50; i++ {
		resp, err := http.Post(sv.base+"/jobs", "application/json",
			strings.NewReader(`{"experiments":["fig7"],"scale":"tiny"}`))
		if err != nil {
			break // listener closed: drain finished
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			sawRefusal = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !sawRefusal {
		t.Error("never observed a 503 refusal during drain")
	}

	select {
	case err := <-sv.waited:
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 143 {
			t.Fatalf("drained exit: %v, want code 143", err)
		}
	case <-time.After(2 * time.Minute):
		sv.cmd.Process.Kill()
		t.Fatal("drain never completed")
	}

	// The running job either finished (result.json) or was checkpointed
	// for the next boot — both are legitimate drain outcomes; what is not
	// is a lost job.
	if _, err := os.Stat(filepath.Join(store, "jobs", id, "job.json")); err != nil {
		t.Fatalf("job record lost across drain: %v", err)
	}
}

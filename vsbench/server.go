package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one vsmoothd process under test, started with its default
// flags apart from -store and an ephemeral -addr.
type server struct {
	cmd   *exec.Cmd
	base  string
	setup time.Duration // exec to the first /readyz 200
	done  chan struct{} // closed once the process has been reaped
	err   error         // Wait's result, valid after done closes

	logMu sync.Mutex
	log   []string // the last lines of stderr, for diagnostics
}

const keepLogLines = 40

// bootServer starts vsmoothd over store and waits for /readyz.
func bootServer(ctx context.Context, bin, store string) (*server, error) {
	cmd := exec.Command(bin, "-store", store, "-addr", "127.0.0.1:0")
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vsmoothd: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "vsmoothd: serving on http://"); ok {
				if i := strings.IndexByte(a, ' '); i > 0 {
					select {
					case addr <- a[:i]:
					default:
					}
				}
			}
			s.logMu.Lock()
			s.log = append(s.log, line)
			if len(s.log) > keepLogLines {
				s.log = s.log[1:]
			}
			s.logMu.Unlock()
		}
		// Reap only after stderr hits EOF, as exec.Cmd requires.
		s.err = cmd.Wait()
		close(s.done)
	}()

	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		return nil, fmt.Errorf("vsmoothd exited during boot: %v\n%s", s.err, s.logTail())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("vsmoothd printed no address within 60s\n%s", s.logTail())
	case <-ctx.Done():
		s.kill()
		return nil, ctx.Err()
	}
	hc := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		if time.Since(start) > 60*time.Second {
			s.kill()
			return nil, fmt.Errorf("vsmoothd not ready within 60s\n%s", s.logTail())
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *server) logTail() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return strings.Join(s.log, "\n")
}

// kill SIGKILLs the server and waits until it has been reaped.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// stop drains the server with SIGTERM, as an operator would, and kills it
// if the drain outlasts 20s. It always waits for the process to end.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.kill()
	}
}

// procKB reads one "<field>: <n> kB" line of /proc/<pid>/status.
func (s *server) procKB(field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// client speaks vsmoothd's HTTP contract over at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// ack is the body of a 202 to POST /jobs.
type ack struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// jobStatus is the subset of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	State          string  `json:"state"`
	Spec           jobSpec `json:"spec"`
	CreatedUnixNS  int64   `json:"created_unix_ns"`
	StartedUnixNS  int64   `json:"started_unix_ns"`
	FinishedUnixNS int64   `json:"finished_unix_ns"`
	Cached         bool    `json:"cached"`
	Preemptions    int     `json:"preemptions"`
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "canceled"
}

// jobResult is the subset of GET /jobs/{id}/result the benchmark reads.
type jobResult struct {
	ID      string            `json:"id"`
	State   string            `json:"state"`
	Error   string            `json:"error"`
	Renders map[string]string `json:"renders"`
}

// event is one line of a job's JSONL event dump.
type event struct {
	T    int64  `json:"t"`
	Kind string `json:"kind"`
	ID   string `json:"id"`
}

// metricsSnap is the subset of GET /metrics the benchmark reads.
type metricsSnap struct {
	Counters map[string]uint64 `json:"counters"`
}

// httpError is a non-2xx reply.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string {
	return fmt.Sprintf("HTTP %d: %s", e.code, strings.TrimSpace(e.body))
}

func (c *client) do(ctx context.Context, method, path string, hdr map[string]string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{code: resp.StatusCode, body: string(data)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (c *client) submit(ctx context.Context, spec jobSpec, tenant string) (ack, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return ack{}, err
	}
	var a ack
	err = c.do(ctx, http.MethodPost, "/jobs", map[string]string{"X-Client": tenant}, body, &a)
	return a, err
}

func (c *client) status(ctx context.Context, id string) (jobStatus, error) {
	var st jobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, nil, &st)
	return st, err
}

func (c *client) result(ctx context.Context, id string) (jobResult, error) {
	var res jobResult
	err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, nil, &res)
	return res, err
}

func (c *client) metrics(ctx context.Context) (metricsSnap, error) {
	var m metricsSnap
	err := c.do(ctx, http.MethodGet, "/metrics", nil, nil, &m)
	return m, err
}

// events fetches a job's JSONL event dump.
func (c *client) events(ctx context.Context, id string) ([]event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &httpError{code: resp.StatusCode}
	}
	var out []event
	dec := json.NewDecoder(resp.Body)
	for {
		var ev event
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return nil, err
		}
		out = append(out, ev)
	}
}

// watch follows a job's SSE stream until its result frame, returning the
// result and the moment the frame arrived.
func (c *client) watch(ctx context.Context, id string) (jobResult, time.Time, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return jobResult{}, time.Time{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return jobResult{}, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobResult{}, time.Time{}, &httpError{code: resp.StatusCode}
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	evName := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return jobResult{}, time.Time{}, fmt.Errorf("sse stream of %s ended before its result: %w", id, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			evName = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && evName == "result":
			at := time.Now()
			var res jobResult
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &res); err != nil {
				return jobResult{}, time.Time{}, fmt.Errorf("sse result frame of %s: %w", id, err)
			}
			return res, at, nil
		case strings.HasPrefix(line, "data: ") && evName == "draining":
			return jobResult{}, time.Time{}, fmt.Errorf("server drained while %s ran", id)
		}
	}
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupBoots is how many times each pass boots vsmoothd; setup_s is the
// median over these boots.
const setupBoots = 21

// pass is one run of a workload, untraced or traced.
type pass struct {
	*bench
	ctx    context.Context
	traced bool
	tr     *tracer // nil on untraced passes

	s                 *samples
	attempted, failed atomic.Int64

	mu         sync.Mutex
	mismatches []string // render digest failures
	problems   []string // reasons the run is rejected
	jobsPerS   float64
	bootRSSMB  float64
	peakRSSMB  float64
	admitted   uint64      // jobs the server admitted, before any probe job
	snap       metricsSnap // /metrics at the end of the workload (traced)
	statuses   []jobStatus // final status of every workload job (traced)
	stores     int
	// pairRecord is a corpus-run journal payload from the core probe,
	// recorded by the journal probe.
	pairRecord corpusPayload
}

func (b *bench) newPass(traced bool) *pass {
	p := &pass{bench: b, ctx: context.Background(), traced: traced, s: newSamples()}
	if traced {
		p.tr = newTracer()
	}
	return p
}

// newStore returns a fresh, empty directory for a job store.
func (p *pass) newStore() string {
	p.mu.Lock()
	p.stores++
	n := p.stores
	p.mu.Unlock()
	kind := "untraced"
	if p.traced {
		kind = "traced"
	}
	return filepath.Join(p.dir, fmt.Sprintf("%s-store%d", kind, n))
}

// boot starts vsmoothd over store and records its set-up time.
func (p *pass) boot(store string) (*server, error) {
	srv, err := bootServer(p.ctx, p.vsmoothd, store)
	if err != nil {
		return nil, err
	}
	p.s.add("setup_s", srv.setup.Seconds())
	return srv, nil
}

// bootMeasured boots setupBoots times over store, stopping all but the
// last boot, and records the boot RSS of the one it returns.
func (p *pass) bootMeasured(store string) (*server, error) {
	for i := 0; ; i++ {
		srv, err := p.boot(store)
		if err != nil {
			return nil, err
		}
		if i < setupBoots-1 {
			srv.stop()
			continue
		}
		if kb, err := srv.procKB("VmRSS"); err == nil {
			p.bootRSSMB = kb / 1024
		}
		return srv, nil
	}
}

// finish records the server's peak RSS and, on traced passes, its
// counters; it leaves the server running.
func (p *pass) finish(c *client, srv *server) {
	if kb, err := srv.procKB("VmHWM"); err == nil {
		p.peakRSSMB = kb / 1024
	}
	if !p.traced {
		return
	}
	if m, err := p.metrics(c); err == nil {
		p.snap = m
		p.admitted = m.Counters["api.jobs_admitted"]
	} else {
		p.problem("read /metrics: %v", err)
	}
}

func (p *pass) problem(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// fail counts one failed operation (refused, failed, canceled, wrong
// render or transport error) and says why on stderr.
func (p *pass) fail(format string, args ...any) {
	p.failed.Add(1)
	fmt.Fprintf(os.Stderr, "vsbench: "+format+"\n", args...)
}

// verify checks a job's renders against the committed digests.
func (p *pass) verify(spec jobSpec, res jobResult) bool {
	if res.State != "done" {
		p.fail("job %s (%s) ended %s: %s", res.ID, spec.key(), res.State, res.Error)
		return false
	}
	if err := p.digests.check(spec, res.Renders); err != nil {
		p.mu.Lock()
		p.mismatches = append(p.mismatches, err.Error())
		p.mu.Unlock()
		p.fail("job %s: %v", res.ID, err)
		return false
	}
	return true
}

func (p *pass) correct() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.mismatches) == 0 && len(p.problems) == 0
}

// Instrumented calls. Each times one HTTP exchange into a span on traced
// passes; untraced passes make the same call without recording.

func (p *pass) submit(c *client, spec jobSpec, tenant string) (ack, error) {
	t0 := time.Now()
	a, err := c.submit(p.ctx, spec, tenant)
	p.tr.record("http.submit", a.ID, t0, time.Now())
	return a, err
}

func (p *pass) status(c *client, id string) (jobStatus, error) {
	t0 := time.Now()
	st, err := c.status(p.ctx, id)
	p.tr.record("http.status", id, t0, time.Now())
	return st, err
}

func (p *pass) result(c *client, id string) (jobResult, error) {
	t0 := time.Now()
	res, err := c.result(p.ctx, id)
	p.tr.record("http.result", id, t0, time.Now())
	return res, err
}

func (p *pass) metrics(c *client) (metricsSnap, error) {
	t0 := time.Now()
	m, err := c.metrics(p.ctx)
	p.tr.record("http.metrics", "", t0, time.Now())
	return m, err
}

// observe records a workload job's final status for the per-layer
// metrics of a traced pass.
func (p *pass) observe(st jobStatus) {
	if !p.traced {
		return
	}
	p.mu.Lock()
	p.statuses = append(p.statuses, st)
	p.mu.Unlock()
}

// report prints the pass's end-to-end metrics, the health figures that
// qualify them, and the names the metrics go by in the workload's own
// terms.
func (p *pass) report() {
	kind := "untraced"
	if p.traced {
		kind = "traced"
	}
	e2e := p.endToEnd()
	for _, d := range endToEndDefs {
		m := e2e[d.name]
		fmt.Printf("%s e2e %-16s %12.6g %-4s n=%d%s\n", kind, d.name, m.value, d.unit, m.n, m.note)
	}
	for _, d := range reportedDefs {
		m := e2e[d.name]
		fmt.Printf("%s e2e %-16s %12.6g %-4s n=%d%s, not gated\n", kind, d.name, m.value, d.unit, m.n, m.note)
	}
	for _, alias := range workloadAliases[p.workload] {
		m := e2e[alias.of]
		fmt.Printf("%s e2e %-16s %12.6g %-4s n=%d (= %s)\n", kind, alias.name, m.value, alias.unit, m.n, alias.of)
	}
	att, failed := p.attempted.Load(), p.failed.Load()
	share := float64(failed) / float64(max(att, 1))
	fmt.Printf("%s e2e %-16s %12.6g %-4s n=%d (%d failed of %d attempted)\n", kind, "failed_share", share, "ratio", att, failed, att)
	late := p.s.get("late_ms")
	fmt.Printf("%s health gen.late_ms_max %.3f ms n=%d\n", kind, late.max(), late.n())
	if pre := p.s.get("preemptions"); pre.n() > 0 {
		fmt.Printf("%s health preemptions %.0f over %d cold jobs\n", kind, pre.sum(), pre.n())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.mismatches {
		fmt.Printf("%s MISMATCH %s\n", kind, m)
	}
	for _, pr := range p.problems {
		fmt.Printf("%s REJECTED %s\n", kind, pr)
	}
}

// workloadAliases names the end-to-end metrics as the workload's users
// know them.
var workloadAliases = map[string][]struct{ name, unit, of string }{
	"campaign": {{"campaign_s", "s", "done_p50_s"}},
	"cached":   {{"max_rps", "1/s", "jobs_per_s"}},
}

// endToEndDefs are the gated end-to-end metrics, in BENCHMARK.json order.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.1},
	{"done_p50_s", "s", "lower", 0.25},
	{"done_tail_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
}

// reportedDefs are end-to-end metrics printed but not gated: admission
// latency is two or three fsyncs, and on the host this benchmark was
// tuned on their latency drifts too much between runs for any bound the
// gate accepts (see README.md).
var reportedDefs = []metricDef{
	{"submit_p50_ms", "ms", "lower", 0},
	{"submit_tail_ms", "ms", "lower", 0},
}

// endToEnd computes the pass's end-to-end metrics. A *_tail metric is the
// highest percentile with at least ten samples beyond it, which depends
// only on the sample count and so is the same percentile on every run of
// a workload.
func (p *pass) endToEnd() map[string]measured {
	out := map[string]measured{}
	pct := func(name, sample string, q float64) {
		d := p.s.get(sample)
		out[name] = measured{value: d.pct(q), n: d.n(), note: fmt.Sprintf(" (p%g)", q)}
	}
	tail := func(name, sample string) {
		d := p.s.get(sample)
		q, ok := d.tail()
		note := fmt.Sprintf(" (p%g, %d beyond)", q, d.beyond(q))
		if !ok {
			q, note = 50, " (p50: too few samples for any percentile with 10 beyond)"
		}
		out[name] = measured{value: d.pct(q), n: d.n(), note: note}
	}
	pct("setup_s", "setup_s", 50)
	pct("submit_p50_ms", "submit_ms", 50)
	tail("submit_tail_ms", "submit_ms")
	pct("done_p50_s", "done_s", 50)
	tail("done_tail_s", "done_s")
	out["peak_rss_mb"] = measured{value: p.peakRSSMB, n: 1}
	out["jobs_per_s"] = measured{value: p.jobsPerS, n: p.s.get("done_s").n()}
	return out
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x65735546: "fuse", 0x6969: "nfs", 0x2FC12FC1: "zfs",
		0x858458F6: "ramfs", 0x5346544E: "ntfs", 0x4D44: "vfat",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

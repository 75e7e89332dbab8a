package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/core"
	"voltsmooth/internal/experiments"
	"voltsmooth/internal/journal"
	"voltsmooth/internal/lease"
	"voltsmooth/internal/parallel"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// Probe sizes: how many timed calls each layer probe makes.
const (
	probeBatches = 5   // repeated batches of the hot-path loops
	storeOps     = 200 // store, cache-write and lease operations
	lookupOps    = 400 // cache lookups
	journalOps   = 300 // journal records
	reopens      = 3   // journal opens and store scans
)

// catchAbort runs fn, turning a sweep's cooperative abort panic back into
// its error.
func catchAbort(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cause := parallel.AbortCause(r)
			if cause == nil {
				panic(r)
			}
			err = cause
		}
	}()
	fn()
	return nil
}

// layerProbes times the benchmark's own calls into each layer's public
// functions, recording one span per call (or per batch of a hot-path
// loop). Each layer probe is the same on every workload.
func (p *pass) layerProbes() error {
	dir := filepath.Join(p.dir, "probes")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, probe := range []func(string) error{p.probeHotPaths, p.probeBuilds, p.probeJournal, p.probeStore} {
		if err := probe(dir); err != nil {
			return err
		}
	}
	return nil
}

// probeHotPaths times the simulator's per-cycle kernels with the calls of
// BenchmarkStepCycle, BenchmarkChipCycle and BenchmarkStreamNext, and one
// core.RunPair at the quick pair length.
func (p *pass) probeHotPaths(string) error {
	cfg := uarch.DefaultConfig()
	net := pdn.NewAtLoad(cfg.PDN, 20)
	cycleTime := 1 / cfg.ClockHz
	p.batches("pdn.step_cycle", 200_000, func(i int) { net.StepCycle(cycleTime, 20+float64(i&15), cfg.Substeps) })

	gcc, err := workload.ByName("gcc")
	if err != nil {
		return err
	}
	mcf, err := workload.ByName("mcf")
	if err != nil {
		return err
	}
	chip := uarch.NewChip(cfg)
	chip.SetStream(0, gcc.NewStream())
	chip.SetStream(1, mcf.NewStream())
	const cycles = 50_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.batches("uarch.cycle", cycles, func(int) { chip.Cycle() })
	runtime.ReadMemStats(&after)
	p.s.add("uarch.cycle_allocs", float64(after.Mallocs-before.Mallocs)/float64(cycles*probeBatches))

	stream := gcc.NewStream()
	p.batches("workload.next", 1_000_000, func(int) { _ = stream.Next() })

	q := experiments.Quick()
	rc := core.RunConfig{Cycles: q.PairCycles, WarmupCycles: q.WarmupCycles}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		res := core.RunPair(cfg, gcc.NewStream(), mcf.NewStream(), rc)
		end := time.Now()
		p.tr.record("core.run_pair", "", t0, end)
		p.s.add("core.pair_ns_per_cycle", float64(end.Sub(t0))/float64(rc.Cycles+rc.WarmupCycles))
		p.pairRecord = corpusPayload{Cycles: res.Cycles, Scope: res.Scope}
	}
	return nil
}

// batches times probeBatches batches of n calls of fn, one span each, and
// records the per-call time in ns under name+"_ns".
func (p *pass) batches(name string, n int, fn func(i int)) {
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		end := time.Now()
		p.tr.record(name, "", t0, end)
		p.s.add(name+"_ns", float64(end.Sub(t0))/float64(n))
	}
}

// probeBuilds times the shared measurements at the tiny scale, as
// BenchmarkCorpusBuild and BenchmarkPairTableBuild do: each corpus and
// the pair table at nproc workers, and the Proc100 corpus again at one
// worker for the parallel efficiency.
func (p *pass) probeBuilds(string) error {
	ctx := context.Background()
	build := func(name string, workers int, fn func(*experiments.Session)) (float64, error) {
		sess := experiments.NewSession(experiments.Tiny())
		sess.Workers = workers
		t0 := time.Now()
		err := catchAbort(func() { fn(sess) })
		end := time.Now()
		p.tr.record(name, "", t0, end)
		return end.Sub(t0).Seconds(), err
	}
	for _, v := range []pdn.ProcVariant{pdn.Proc100, pdn.Proc25, pdn.Proc3} {
		d, err := build("experiments.corpus/"+v.Name, p.conns, func(s *experiments.Session) { s.Corpus(ctx, v) })
		if err != nil {
			return err
		}
		p.s.add("experiments.corpus_s."+v.Name, d)
	}
	d, err := build("sched.pair_table", p.conns, func(s *experiments.Session) { s.PairTable(ctx, pdn.Proc3) })
	if err != nil {
		return err
	}
	p.s.add("sched.pair_table_s", d)
	serial, err := build("experiments.corpus_serial/Proc100", 1, func(s *experiments.Session) { s.Corpus(ctx, pdn.Proc100) })
	if err != nil {
		return err
	}
	wide := p.s.get("experiments.corpus_s.Proc100").pct(50)
	p.s.add("parallel.efficiency", serial/(wide*float64(p.conns)))
	return nil
}

// corpusPayload mirrors the journal payload of one corpus run.
type corpusPayload struct {
	Cycles uint64       `json:"cycles"`
	Scope  *sense.Scope `json:"scope"`
}

// probeJournal times Record at SyncEvery=1 with a corpus-run payload, and
// Open with Resume over a complete quick-campaign journal.
func (p *pass) probeJournal(dir string) error {
	j, err := journal.Open(filepath.Join(dir, "record.jsonl"), "vsbench-probe", journal.Options{SyncEvery: 1})
	if err != nil {
		return err
	}
	for i := 0; i < journalOps; i++ {
		t0 := time.Now()
		err := j.Record(fmt.Sprintf("corpus/probe/%d", i), p.pairRecord)
		end := time.Now()
		if err != nil {
			j.Close()
			return err
		}
		p.tr.record("journal.record", "", t0, end)
	}
	if err := j.Close(); err != nil {
		return err
	}

	tmpl, err := p.journalTemplate()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "quick.jsonl")
	if err := copyTree(tmpl, path); err != nil {
		return err
	}
	hash := experiments.NewSession(experiments.Quick()).ConfigFingerprint()
	for i := 0; i < reopens; i++ {
		t0 := time.Now()
		j, err := journal.Open(path, hash, journal.Options{Resume: true})
		end := time.Now()
		if err != nil {
			return err
		}
		p.tr.record("journal.open", "", t0, end)
		if j.Len() == 0 {
			j.Close()
			return fmt.Errorf("quick-campaign journal template is empty")
		}
		if err := j.Close(); err != nil {
			return err
		}
	}
	return nil
}

// probeStore times the store's admission and publish writes, the cache's
// reads and writes, a scan over the cached workload's history, and the
// lease transitions on the job directories the probe created.
func (p *pass) probeStore(dir string) error {
	tmpl, err := p.historyTemplate()
	if err != nil {
		return err
	}
	history, err := api.OpenStore(tmpl)
	if err != nil {
		return err
	}
	for i := 0; i < reopens; i++ {
		if err := p.tr.timed("store.scan", func() error { _, err := history.Scan(nil); return err }); err != nil {
			return err
		}
	}
	specs := make([]api.JobSpec, len(popularSpecs))
	entries := make([]*api.CacheEntry, len(popularSpecs))
	for k, s := range popularSpecs {
		if specs[k], err = apiSpec(s); err != nil {
			return err
		}
	}
	for i := 0; i < lookupOps; i++ {
		k := i % len(specs)
		t0 := time.Now()
		e, err := history.LoadCached(specs[k].ConfigFingerprint())
		end := time.Now()
		if err != nil {
			return err
		}
		p.tr.record("cache.lookup", "", t0, end)
		entries[k] = e
	}

	st, err := api.OpenStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	m := &lease.Manager{WorkerID: "vsbench", TTL: 10 * time.Second}
	for i := 0; i < storeOps; i++ {
		k := i % len(specs)
		var id string
		if err := p.tr.timed("store.allocate_id", func() (err error) { id, err = st.AllocateID(); return err }); err != nil {
			return err
		}
		now := time.Now().UnixNano()
		rec := api.JobRecord{ID: id, Client: "vsbench", Spec: specs[k], CreatedUnixNS: now}
		if err := p.tr.timed("store.create_job", func() error { return st.CreateJob(rec) }); err != nil {
			return err
		}
		res := &api.Result{ID: id, State: api.StateDone, Renders: entries[k].Renders, Cached: true,
			CacheSource: entries[k].SourceJob, FinishedUnixNS: now}
		if err := p.tr.timed("store.write_result", func() error { return st.WriteResult(res) }); err != nil {
			return err
		}
		entry := *entries[k]
		entry.CreatedUnixNS = now
		if err := p.tr.timed("cache.write", func() error { return st.WriteCached(&entry) }); err != nil {
			return err
		}

		jobDir := filepath.Join(st.Dir(), "jobs", id)
		var h *lease.Handle
		if err := p.tr.timed("lease.claim", func() (err error) { h, err = m.Claim(jobDir, id); return err }); err != nil {
			return err
		}
		if err := p.tr.timed("lease.renew", func() error { return h.Renew(1) }); err != nil {
			return err
		}
		if err := p.tr.timed("lease.guard", func() error { return h.Guard(func() error { return nil }) }); err != nil {
			return err
		}
		if err := p.tr.timed("lease.release", func() error { return h.ReleaseFor("") }); err != nil {
			return err
		}
	}
	return nil
}

package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"voltsmooth/internal/core"
	"voltsmooth/internal/journal"
	"voltsmooth/internal/parallel"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/resilient"
	"voltsmooth/internal/sched"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/telemetry"
	"voltsmooth/internal/uarch"
	"voltsmooth/internal/workload"
)

// Session caches the expensive shared measurements (run corpora, oracle
// pair tables, the Tab I / Fig 19 passing analysis) across experiments,
// mirroring the paper's structure: the 881-run corpus feeds Figs 7–10 and
// Tab I, and the 29×29 oracle table feeds Figs 16–19.
//
// A Session is safe for concurrent use: each cache is a per-key
// singleflight, so independent experiments running on separate goroutines
// share one build of each corpus and table.
type Session struct {
	Scale Scale
	// Workers bounds the fan-out of every measurement sweep the session
	// runs (corpus construction, oracle tables, random-batch evaluation,
	// and each experiment's own independent runs).
	// Every run is an independent, deterministically seeded simulation,
	// so results are bit-identical at any width. <= 0 means
	// parallel.DefaultWorkers(); 1 restores the serial path.
	Workers int

	// FaultClasses selects which fault classes the figx-recovery
	// experiment injects ("spikes", "dropout", "counters"); empty enables
	// all of them. FaultSeed drives every injected fault stream.
	FaultClasses []string
	FaultSeed    uint64

	// Journal, when non-nil, checkpoints every completed corpus run and
	// oracle-table cell as it finishes and replays them on the next build,
	// so an interrupted campaign resumes from its last completed unit.
	// Open it against ConfigFingerprint(): the journal layer rejects a
	// file recorded under any other configuration.
	//
	// A journal that poisons itself mid-campaign (a failed write or
	// fsync — journal.ErrJournalFailed) degrades the session to
	// journal-less execution with a single Warn message instead of
	// aborting the campaign: checkpointing is an optimization, results
	// never depend on it.
	Journal *journal.Journal

	// Warn receives campaign-level warnings (today: the journal-degrade
	// notice); nil logs to stderr.
	Warn func(format string, args ...any)

	// journalDown latches once the journal has failed; lookups and
	// records are skipped from then on.
	journalDown atomic.Bool

	corpora parallel.Group[string, *Corpus]
	tables  parallel.Group[string, *sched.PairTable]
	passing parallel.Group[string, *Tab1Fig19Result]
}

// NewSession creates a session at the given scale.
func NewSession(s Scale) *Session {
	return &Session{Scale: s}
}

// ErrExperimentPanicked wraps a panic that escaped an experiment runner.
var ErrExperimentPanicked = errors.New("experiments: runner panicked")

// Run executes one experiment with a recovery boundary: a panic escaping
// the runner (experiment internals panic on impossible configurations)
// comes back as a typed error instead of killing the whole batch, so
// cmd/vsmooth can report one failed figure and keep rendering the rest.
//
// Two panic classes are distinguished. A cooperative abort (the ctx was
// cancelled and a sweep unwound with *parallel.AbortError) returns an
// error wrapping the context's error — errors.Is(err, context.Canceled)
// holds — with no stack, because nothing crashed. Every other panic
// returns ErrExperimentPanicked carrying the originating goroutine's
// stack trace (the sweep engine's, when a worker panicked; this one's
// otherwise), so a failed figure in a long campaign is diagnosable from
// the report alone.
func (s *Session) Run(ctx context.Context, e Entry) (r Renderer, err error) {
	if h := hooks.Load(); h != nil {
		if h.Trace != nil {
			h.Trace.Emit(telemetry.Event{Kind: "exp.start", ID: e.ID})
		}
		start := time.Now()
		defer func() {
			elapsed := time.Since(start)
			if h.WallTime != nil {
				h.WallTime.Observe(elapsed)
			}
			if h.Experiments != nil {
				h.Experiments.Inc()
			}
			if h.Trace != nil {
				detail := "ok"
				if err != nil {
					detail = firstLine(err)
				}
				h.Trace.Emit(telemetry.Event{Kind: "exp.done", ID: e.ID, Detail: detail, Value: elapsed.Seconds()})
			}
		}()
	}
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		r = nil
		if cause := parallel.AbortCause(p); cause != nil {
			err = fmt.Errorf("experiments: %s aborted: %w", e.ID, cause)
			return
		}
		stack := debug.Stack()
		if pe, ok := p.(*parallel.PanicError); ok {
			p, stack = pe.Value, pe.Stack
		}
		err = fmt.Errorf("%w: %s: %v\n%s", ErrExperimentPanicked, e.ID, p, stack)
	}()
	return e.Run(ctx, s), nil
}

// firstLine trims an error to its first line for trace payloads (panic
// errors carry whole stacks).
func firstLine(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// ConfigFingerprint digests everything that determines the session's
// measured output — the scale and the fault plan — for journal pinning.
// Workers is deliberately excluded: every sweep is bit-identical at any
// width, so a resumed campaign may change its fan-out freely.
func (s *Session) ConfigFingerprint() string {
	return journal.ConfigHash(struct {
		Scale        Scale    `json:"scale"`
		FaultClasses []string `json:"fault_classes"`
		FaultSeed    uint64   `json:"fault_seed"`
	}{s.Scale, s.FaultClasses, s.FaultSeed})
}

// JournalDegraded reports whether the session dropped its journal after a
// write/fsync failure and is running journal-less.
func (s *Session) JournalDegraded() bool { return s.journalDown.Load() }

// lookupUnit replays a completed unit from the journal, if one is
// attached and still healthy.
func (s *Session) lookupUnit(key string, v any) bool {
	if s.Journal == nil || s.journalDown.Load() {
		return false
	}
	return s.Journal.LookupInto(key, v)
}

// recordUnit checkpoints one completed unit. A poisoned journal
// (ErrJournalFailed — the file's durability is unknown and nothing more
// will be written) degrades the session to journal-less execution with
// one warning; the campaign keeps running, it just stops checkpointing.
// Any other failure (a programming error: unmarshalable payload, write
// after Close) still aborts, carrying its cause to Session.Run.
func (s *Session) recordUnit(key string, v any) {
	if s.Journal == nil || s.journalDown.Load() {
		return
	}
	err := s.Journal.Record(key, v)
	if err == nil {
		return
	}
	if errors.Is(err, journal.ErrJournalFailed) {
		s.degradeJournal(err)
		return
	}
	panic(&parallel.AbortError{Err: fmt.Errorf("experiments: journal %s: %w", key, err)})
}

// degradeJournal latches the session into journal-less execution, warning
// once and tracing the transition.
func (s *Session) degradeJournal(cause error) {
	if !s.journalDown.CompareAndSwap(false, true) {
		return
	}
	warn := s.Warn
	if warn == nil {
		warn = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
		}
	}
	warn("journal failed; campaign continues without checkpoints (completed units after this point are not resumable): %v", cause)
	if h := hooks.Load(); h != nil && h.Trace != nil {
		h.Trace.Emit(telemetry.Event{Kind: "journal.degraded", Detail: firstLine(cause)})
	}
}

// sweep runs fn(i) for every i in [0, n) over the session's workers. Each
// call must write only its own preallocated slot; callers fold the slots
// in index order afterwards, so the result is bit-identical at any width.
// A cancelled ctx stops the sweep at the next run boundary and unwinds as
// an abort panic, which Session.Run turns back into the context's error.
func (s *Session) sweep(ctx context.Context, n int, fn func(i int)) {
	if err := parallel.SweepCtx(ctx, s.Workers, n, fn); err != nil {
		panic(&parallel.AbortError{Err: err})
	}
}

// ChipConfig returns the chip configuration for a decap variant.
func (s *Session) ChipConfig(v pdn.ProcVariant) uarch.Config {
	cfg := uarch.DefaultConfig()
	cfg.PDN = cfg.PDN.WithCapFraction(v.CapFraction)
	return cfg
}

// Margin returns the characterization margin for a variant.
func (s *Session) Margin(v pdn.ProcVariant) float64 {
	return core.PhaseMarginFor(v.CapFraction)
}

// SpecProfiles returns the SPEC-like suite at the session's scale.
func (s *Session) SpecProfiles() []workload.Profile {
	all := workload.SPEC2006()
	if s.Scale.SpecSubset <= 0 || s.Scale.SpecSubset >= len(all) {
		return all
	}
	byName := map[string]workload.Profile{}
	for _, p := range all {
		byName[p.Name] = p
	}
	out := make([]workload.Profile, 0, s.Scale.SpecSubset)
	for _, name := range quickSubsetOrder[:s.Scale.SpecSubset] {
		p, ok := byName[name]
		if !ok {
			panic(fmt.Sprintf("experiments: quickSubsetOrder entry %q is not in workload.SPEC2006()", name))
		}
		out = append(out, p)
	}
	return out
}

// Corpus is the measured run population for one decap variant: the
// simulated equivalent of the paper's 881 benchmarking runs
// (29 single-threaded + 11 multi-threaded + 29×29 multi-program).
type Corpus struct {
	Variant pdn.ProcVariant
	// Runs carries per-run emergency data across the default margin set.
	Runs []resilient.RunData
	// Merged aggregates every voltage sample of every run (the Fig 7/9
	// CDF population).
	Merged *sense.Scope
	// Counts by run kind.
	SingleThreaded, MultiThreaded, MultiProgram int
}

// Corpus builds (or returns the cached) corpus for a variant. A cancelled
// ctx unwinds as an abort panic at the next run boundary; Session.Run is
// the recovery boundary that turns it back into the context's error.
func (s *Session) Corpus(ctx context.Context, v pdn.ProcVariant) *Corpus {
	c, err := s.corpora.DoCtx(ctx, v.Name, func() *Corpus { return s.buildCorpus(ctx, v) })
	if err != nil {
		panic(&parallel.AbortError{Err: err})
	}
	return c
}

// runKind tags corpus runs for the per-kind counters.
type runKind int

const (
	kindSingleThreaded runKind = iota
	kindMultiThreaded
	kindMultiProgram
)

// corpusJob is one deferred measurement of the corpus population.
type corpusJob struct {
	name string
	kind runKind
	run  func() core.Result
}

// corpusJobs lists the corpus population in its fixed order: the
// single-threaded suite, the multi-threaded runs, then the multi-program
// pairs. The order is what the serial build used, so folding results in
// job order keeps the corpus bit-identical at any worker count.
func (s *Session) corpusJobs(cfg uarch.Config) []corpusJob {
	spec := s.SpecProfiles()
	par := workload.Parsec()
	if s.Scale.SpecSubset > 0 && s.Scale.SpecSubset < len(par) {
		par = par[:s.Scale.SpecSubset]
	}

	rcSingle := core.RunConfig{Cycles: s.Scale.RunCycles, WarmupCycles: s.Scale.WarmupCycles}
	rcPair := core.RunConfig{Cycles: s.Scale.PairCycles, WarmupCycles: s.Scale.WarmupCycles}

	jobs := make([]corpusJob, 0, len(spec)+len(par)+len(spec)*len(spec))
	for _, p := range spec {
		jobs = append(jobs, corpusJob{p.Name, kindSingleThreaded, func() core.Result {
			return core.RunSingle(cfg, p.NewStream(), rcSingle)
		}})
	}
	// Multi-threaded runs: both cores execute threads of the same program
	// (distinct stream instances — threads share the binary, not the
	// exact dynamic path; the second thread gets a derived seed).
	for _, p := range par {
		q := p
		q.Seed = p.Seed + 1
		jobs = append(jobs, corpusJob{p.Name + "(mt)", kindMultiThreaded, func() core.Result {
			return core.RunPair(cfg, p.NewStream(), q.NewStream(), rcSingle)
		}})
	}
	for _, a := range spec {
		for _, b := range spec {
			jobs = append(jobs, corpusJob{a.Name + "+" + b.Name, kindMultiProgram, func() core.Result {
				return core.RunPair(cfg, a.NewStream(), b.NewStream(), rcPair)
			}})
		}
	}
	return jobs
}

// corpusRecord is the journal payload of one completed corpus run:
// exactly the fields the corpus fold consumes, so a run replayed from the
// journal contributes bit-identically to a run just measured.
type corpusRecord struct {
	Cycles uint64       `json:"cycles"`
	Scope  *sense.Scope `json:"scope"`
}

func (s *Session) buildCorpus(ctx context.Context, v pdn.ProcVariant) *Corpus {
	cfg := s.ChipConfig(v)
	jobs := s.corpusJobs(cfg)
	progress := ProgressFrom(ctx)

	// unitDone feeds the campaign telemetry per completed unit: the units
	// counter drives the live status line, and each run's crossings at the
	// characterization margin accumulate into "emergencies so far".
	unitDone := func(rec *corpusRecord) {
		h := hooks.Load()
		if h == nil {
			return
		}
		if h.Units != nil {
			h.Units.Inc()
		}
		if h.Emergencies != nil && rec.Scope != nil {
			h.Emergencies.Add(rec.Scope.Crossings(core.PhaseMargin))
		}
	}

	// Measure in parallel (each job is an independent seeded simulation),
	// then fold serially in job order so the merged scope and run list
	// match the serial build exactly. Completed runs are checkpointed to
	// the session journal as they finish and replayed from it on resume.
	results := make([]corpusRecord, len(jobs))
	s.sweep(ctx, len(jobs), func(i int) {
		key := "corpus/" + v.Name + "/" + jobs[i].name
		if s.lookupUnit(key, &results[i]) {
			progress(key)
			unitDone(&results[i])
			return
		}
		res := jobs[i].run()
		results[i] = corpusRecord{Cycles: res.Cycles, Scope: res.Scope}
		// A poisoned journal degrades the session to journal-less
		// execution (one warning) instead of aborting: the unit was
		// measured, only its checkpoint is lost.
		s.recordUnit(key, results[i])
		progress(key)
		unitDone(&results[i])
	})

	c := &Corpus{
		Variant: v,
		Merged:  sense.NewScope(cfg.PDN.VNom, core.DefaultMargins()),
	}
	for i, j := range jobs {
		res := results[i]
		c.Runs = append(c.Runs, resilient.FromScope(j.name, res.Cycles, res.Scope))
		c.Merged.Merge(res.Scope)
		switch j.kind {
		case kindSingleThreaded:
			c.SingleThreaded++
		case kindMultiThreaded:
			c.MultiThreaded++
		case kindMultiProgram:
			c.MultiProgram++
		}
	}
	return c
}

// PairTable builds (or returns the cached) oracle table for a variant.
// The paper's scheduling study (Sec IV) runs on the Proc3 future-node
// stand-in. Like Corpus, cancellation unwinds as an abort panic.
func (s *Session) PairTable(ctx context.Context, v pdn.ProcVariant) *sched.PairTable {
	t, err := s.tables.DoCtx(ctx, v.Name, func() *sched.PairTable {
		progress := ProgressFrom(ctx)
		bc := sched.BuildConfig{
			Chip:     s.ChipConfig(v),
			Cycles:   s.Scale.PairCycles,
			Warmup:   s.Scale.WarmupCycles,
			Margin:   s.Margin(v),
			Workers:  s.Workers,
			Progress: func(unit string) { progress("table/" + v.Name + "/" + unit) },
		}
		if s.Journal != nil {
			bc.Cache = &journalCellCache{s: s, prefix: "table/" + v.Name + "/"}
		}
		tt, err := sched.BuildPairTableCtx(ctx, bc, s.SpecProfiles())
		if err != nil {
			panic(&parallel.AbortError{Err: err})
		}
		return tt
	})
	if err != nil {
		panic(&parallel.AbortError{Err: err})
	}
	return t
}

// journalCellCache adapts the session journal to the pair-table builder's
// cache seam: every completed cell is recorded under a variant-scoped key
// and replayed exactly on resume. It routes through the session's
// degradation-aware lookup/record, so a poisoned journal silently turns
// the cache off instead of aborting the build.
type journalCellCache struct {
	s      *Session
	prefix string
}

func (c *journalCellCache) LoadSingle(name string) (sched.SingleCell, bool) {
	var out sched.SingleCell
	ok := c.s.lookupUnit(c.prefix+"single/"+name, &out)
	return out, ok
}

func (c *journalCellCache) StoreSingle(name string, cell sched.SingleCell) {
	c.s.recordUnit(c.prefix+"single/"+name, cell)
}

func (c *journalCellCache) LoadPair(a, b string) (sched.PairCell, bool) {
	var out sched.PairCell
	ok := c.s.lookupUnit(c.prefix+"pair/"+a+"+"+b, &out)
	return out, ok
}

func (c *journalCellCache) StorePair(a, b string, cell sched.PairCell) {
	c.s.recordUnit(c.prefix+"pair/"+a+"+"+b, cell)
}

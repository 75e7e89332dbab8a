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
// Tab I, and the 29×29 oracle table feeds Figs 16–19. Like the paper's
// pre-run phase, the table's pair cells are the corpus's multi-program
// runs, read from one shared population, so a session simulates each
// distinct run once.
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
	// oracle-table single-core reference as it finishes and replays them
	// on the next build, so an interrupted campaign resumes from its last
	// completed unit. The table's pair cells are the corpus's shared
	// multi-program runs, so they are journaled once, as corpus runs.
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

	// populations are the corpus run populations, one per part and lane
	// group (see Plan). The corpus folds all three parts, the oracle
	// table takes its pair cells from the pairs and fig15 reads the
	// Proc3 single-threaded runs, so each of those runs is simulated once
	// per session, and once for every variant planned beside it.
	populations parallel.Group[populationKey, [][]corpusRun]
	plan        atomic.Pointer[lanePlan]

	// onRead, when set, observes every population read (tests use it to
	// check each experiment's reads declaration).
	onRead func(part, pdn.ProcVariant)
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

// unit is the path every journaled measurement of the session takes
// outside the corpus populations, whose lanes share one chip run (see
// buildPopulation). It replays key's record into rec, a pointer, when the
// journal holds one; otherwise it runs measure, which must fill rec, and
// checkpoints rec under key. Either way it then reports key as progress.
func (s *Session) unit(progress func(string), key string, rec any, measure func()) {
	if !s.lookupUnit(key, rec) {
		measure()
		// A poisoned journal degrades the session to journal-less
		// execution (one warning) instead of aborting: the unit was
		// measured, only its checkpoint is lost.
		s.recordUnit(key, rec)
	}
	progress(key)
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

// buildCorpus folds v's single-threaded, multi-threaded and multi-program
// populations, in that order, so the corpus is bit-identical at any
// worker count, whichever consumer built the populations and whichever
// variants were built beside v.
func (s *Session) buildCorpus(ctx context.Context, v pdn.ProcVariant) *Corpus {
	// unitDone feeds the campaign telemetry once per corpus run: the units
	// counter drives the live status line, and each run's crossings at the
	// characterization margin accumulate into "emergencies so far".
	unitDone := func(r *corpusRun) {
		h := hooks.Load()
		if h == nil {
			return
		}
		if h.Units != nil {
			h.Units.Inc()
		}
		if h.Emergencies != nil {
			h.Emergencies.Add(r.data.EmergenciesAt(core.PhaseMargin))
		}
	}

	singles := s.runs(ctx, partSingle, v, unitDone)
	mt := s.runs(ctx, partMT, v, unitDone)
	pairs := s.runs(ctx, partPair, v, unitDone)

	c := &Corpus{
		Variant:        v,
		Runs:           make([]resilient.RunData, 0, len(singles)+len(mt)+len(pairs)),
		Merged:         sense.NewScope(s.ChipConfig(v).PDN.VNom, core.DefaultMargins()),
		SingleThreaded: len(singles),
		MultiThreaded:  len(mt),
		MultiProgram:   len(pairs),
	}
	for _, runs := range [][]corpusRun{singles, mt, pairs} {
		for i := range runs {
			c.Runs = append(c.Runs, runs[i].data)
			c.Merged.Merge(runs[i].Scope)
			// The corpus is the only reader of a run's scope, and it
			// folds each run once: release the scope instead of holding
			// it in the shared population for the rest of the session.
			runs[i].Scope = nil
		}
	}
	return c
}

// PairTable builds (or returns the cached) oracle table for a variant.
// The paper's scheduling study (Sec IV) runs on the Proc3 future-node
// stand-in. Like Corpus, cancellation unwinds as an abort panic.
func (s *Session) PairTable(ctx context.Context, v pdn.ProcVariant) *sched.PairTable {
	t, err := s.tables.DoCtx(ctx, v.Name, func() *sched.PairTable { return s.buildPairTable(ctx, v) })
	if err != nil {
		panic(&parallel.AbortError{Err: err})
	}
	return t
}

// buildPairTable measures the table's single-core references, which run
// for PairCycles, and takes every pair cell from v's multi-program
// population: the oracle's pre-run phase and the corpus's multi-program
// part are one set of runs.
func (s *Session) buildPairTable(ctx context.Context, v pdn.ProcVariant) *sched.PairTable {
	cfg, spec, margin := s.ChipConfig(v), s.SpecProfiles(), s.Margin(v)
	rc := core.RunConfig{Cycles: s.Scale.PairCycles, WarmupCycles: s.Scale.WarmupCycles}
	progress := ProgressFrom(ctx)
	names := make([]string, len(spec))
	singles := make([]sched.SingleCell, len(spec))
	s.sweep(ctx, len(spec), func(i int) {
		names[i] = spec[i].Name
		s.unit(progress, "table/"+v.Name+"/single/"+spec[i].Name, &singles[i], func() {
			res := core.RunSingle(cfg, spec[i].NewStream(), rc)
			singles[i] = sched.SingleCell{Droops: res.DroopsPerKCycle(margin), IPC: res.IPC(0)}
		})
		sched.CellDone()
	})
	runs := s.runs(ctx, partPair, v, func(*corpusRun) { sched.CellDone() })
	pairs := make([]sched.PairRun, len(runs))
	for k := range runs {
		pairs[k] = sched.PairRun{Data: runs[k].data, Counters: runs[k].Counters}
	}
	return sched.NewPairTable(names, margin, s.Scale.PairCycles, singles, pairs)
}

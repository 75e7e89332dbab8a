package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
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
// A Session is safe for concurrent use. Each cache is a parallel.Group:
// the first caller of a key builds it under the key's lock, and every
// other caller waits for that build, whatever its own context says, so
// independent experiments running on separate goroutines share one build
// of each corpus and table. A build whose context is cancelled unwinds at
// its next run boundary and caches nothing; the key's next caller builds
// it again.
//
// Lock order: a Tab1Fig19 build (passing) calls PairTable and Corpus
// (tables, corpora); those builds read populations; a populations build
// reads no other key; and no build calls Do on its own key. So keys are
// locked from passing down to populations, and no two callers can each
// hold a key the other waits for.
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
	// oracle-table single-core reference as its lockstep group finishes
	// (see lockstep) and replays them on the next build, so an
	// interrupted campaign resumes from its last completed group. The
	// table's pair cells are the corpus's shared multi-program runs, so
	// they are journaled once, as corpus runs. Open it against
	// ConfigFingerprint(): the journal layer rejects a file recorded
	// under any other configuration.
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
	telemetry.Emit(telemetry.Event{Kind: "exp.start", ID: e.ID})
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		expWallMS.Observe(elapsed)
		expCompleted.Inc()
		detail := "ok"
		if err != nil {
			detail = telemetry.FirstLine(err)
		}
		telemetry.Emit(telemetry.Event{Kind: "exp.done", ID: e.ID, Detail: detail, Value: elapsed.Seconds()})
	}()
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
	telemetry.Emit(telemetry.Event{Kind: "journal.degraded", Detail: telemetry.FirstLine(cause)})
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

// lockstep runs fn(lo, hi) for the ranges of s.spans(n, threads) over
// the session's workers: the sweep of n independent runs, split into
// lockstep groups that each step their runs' networks together. Like
// sweep, each call writes only its own runs' slots, so the result is
// bit-identical at any width.
func (s *Session) lockstep(ctx context.Context, n, threads int, fn func(lo, hi int)) {
	spans := s.spans(n, threads)
	s.sweep(ctx, len(spans), func(g int) { fn(spans[g][0], spans[g][1]) })
}

// spans splits [0, n) into the consecutive [lo, hi) ranges of the
// lockstep groups a sweep of n runs makes when each group keeps threads
// goroutines busy: 2 for core.RunLanes, whose chips run a block ahead of
// its networks, and 1 for a closed loop (failsafe.RunGroup,
// sched.RunOnline) or core.MeasureLoopImpedances. There are
// max(⌈n/pdn.MaxLanes⌉, ⌈min(n, workers, GOMAXPROCS)/threads⌉) groups,
// whose sizes differ by at most one: no group holds more runs than one
// packed kernel call has lanes, no core that a worker could keep busy
// idles while another steps a larger group, and no pack runs half empty
// to spread the runs over more goroutines than there are cores.
func (s *Session) spans(n, threads int) [][2]int {
	workers := s.Workers
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	groups := max((n+pdn.MaxLanes-1)/pdn.MaxLanes, (min(n, workers, runtime.GOMAXPROCS(0))+threads-1)/threads)
	out := make([][2]int, groups)
	for g := range out {
		out[g] = [2]int{g * n / groups, (g + 1) * n / groups}
	}
	return out
}

// lockstepRuns runs n independent, equal-length runs of rc on cfg's chip
// and network, run i on programs(i), in lockstep groups, and returns their
// results in run order.
func (s *Session) lockstepRuns(ctx context.Context, cfg uarch.Config, rc core.RunConfig, n int,
	programs func(i int) []workload.Stream) []core.Result {
	out := make([]core.Result, n)
	s.lockstep(ctx, n, 2, func(lo, hi int) { laneGroup(cfg, rc, programs, out, lo, hi) })
	return out
}

// laneGroup runs runs [lo, hi) of lockstepRuns as one core.RunLanes group
// and writes their results to out[lo:hi].
func laneGroup(cfg uarch.Config, rc core.RunConfig, programs func(i int) []workload.Stream,
	out []core.Result, lo, hi int) {
	runs := make([]core.LaneRun, hi-lo)
	for i := range runs {
		runs[i] = core.LaneRun{Streams: programs(lo + i), Nets: []pdn.Params{cfg.PDN}}
	}
	for i, res := range core.RunLanes(cfg, runs, rc) {
		out[lo+i] = res[0]
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

// Corpus builds (or returns the cached) corpus for a variant. A build
// whose ctx is cancelled unwinds as an abort panic at the next run
// boundary; Session.Run is the recovery boundary that turns it back into
// the context's error.
func (s *Session) Corpus(ctx context.Context, v pdn.ProcVariant) *Corpus {
	return s.corpora.Do(v.Name, func() *Corpus { return s.buildCorpus(ctx, v) })
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
		ExpUnits.Inc()
		ExpEmergencies.Add(r.data.EmergenciesAt(core.PhaseMargin))
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
	return s.tables.Do(v.Name, func() *sched.PairTable { return s.buildPairTable(ctx, v) })
}

// buildPairTable measures the table's single-core references, which run
// for PairCycles in lockstep groups, and takes every pair cell from v's
// multi-program population: the oracle's pre-run phase and the corpus's
// multi-program part are one set of runs. A reference the journal holds
// is replayed; each measured one is recorded under its own key.
func (s *Session) buildPairTable(ctx context.Context, v pdn.ProcVariant) *sched.PairTable {
	cfg, spec, margin := s.ChipConfig(v), s.SpecProfiles(), s.Margin(v)
	rc := core.RunConfig{Cycles: s.Scale.PairCycles, WarmupCycles: s.Scale.WarmupCycles}
	progress := ProgressFrom(ctx)
	names := make([]string, len(spec))
	keys := make([]string, len(spec))
	singles := make([]sched.SingleCell, len(spec))
	s.lockstep(ctx, len(spec), 2, func(lo, hi int) {
		var runs []core.LaneRun
		var measured []int
		for i := lo; i < hi; i++ {
			names[i] = spec[i].Name
			keys[i] = "table/" + v.Name + "/single/" + spec[i].Name
			if !s.lookupUnit(keys[i], &singles[i]) {
				runs = append(runs, core.LaneRun{Streams: []workload.Stream{spec[i].NewStream()}, Nets: []pdn.Params{cfg.PDN}})
				measured = append(measured, i)
			}
		}
		for j, res := range core.RunLanes(cfg, runs, rc) {
			i := measured[j]
			singles[i] = sched.SingleCell{Droops: res[0].DroopsPerKCycle(margin), IPC: res[0].IPC(0)}
			s.recordUnit(keys[i], &singles[i])
		}
		for i := lo; i < hi; i++ {
			progress(keys[i])
			sched.SchedCells.Inc()
		}
	})
	runs := s.runs(ctx, partPair, v, func(*corpusRun) { sched.SchedCells.Inc() })
	pairs := make([]sched.PairRun, len(runs))
	for k := range runs {
		pairs[k] = sched.PairRun{Data: runs[k].data, Counters: runs[k].Counters}
	}
	return sched.NewPairTable(names, margin, s.Scale.PairCycles, singles, pairs)
}

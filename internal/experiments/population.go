package experiments

import (
	"context"
	"slices"
	"sort"
	"strings"

	"voltsmooth/internal/core"
	"voltsmooth/internal/counters"
	"voltsmooth/internal/pdn"
	"voltsmooth/internal/resilient"
	"voltsmooth/internal/sense"
	"voltsmooth/internal/workload"
)

// part is one kind of corpus run population. Parts combine as a bit set
// in reads.
type part uint8

const (
	// partSingle is every spec profile alone on core 0 for RunCycles.
	partSingle part = 1 << iota
	// partMT is every multi-threaded program's two threads for RunCycles.
	partMT
	// partPair is every ordered spec pair for PairCycles.
	partPair

	// corpusParts are the populations Corpus(v) folds.
	corpusParts = partSingle | partMT | partPair
	// tableParts are the populations PairTable(v) reads besides its own
	// single-core references: its pair cells are the corpus's pairs.
	tableParts = partPair
)

// allParts lists every part, in corpus fold order.
var allParts = []part{partSingle, partMT, partPair}

// reads declares the run populations an experiment reads, per decap
// variant: corpusParts for Corpus(v), tableParts for PairTable(v), and
// partSingle alone for v's single-threaded runs.
type reads map[pdn.ProcVariant]part

// lanePlan maps each (part, variant) a planned batch reads to the lane
// group that builds it: every variant the batch reads that part of, at
// most pdn.MaxLanes to a group, in decreasing capacitance order.
type lanePlan map[laneKey][]pdn.ProcVariant

type laneKey struct {
	part    part
	variant pdn.ProcVariant
}

// Plan tells the session which experiments it is about to run, before the
// first one starts. From then on, each population those experiments read
// is built once for every variant they read it on: one chip run per
// program, pair or two-thread run drives one network and one scope per
// variant (core.RunLanes). A population no planned experiment reads, or
// any population of a session that is never planned, is built for its
// own variant alone. Plan changes no result, journal key or unit count;
// a population already built keeps its lanes.
func (s *Session) Plan(entries []Entry) {
	want := map[part][]pdn.ProcVariant{}
	for _, e := range entries {
		for v, ps := range e.reads {
			for _, p := range allParts {
				if ps&p != 0 && !slices.Contains(want[p], v) {
					want[p] = append(want[p], v)
				}
			}
		}
	}
	plan := lanePlan{}
	for p, vs := range want {
		sort.Slice(vs, func(i, j int) bool { return vs[i].CapFraction > vs[j].CapFraction })
		for len(vs) > 0 {
			group := vs[:min(len(vs), pdn.MaxLanes)]
			vs = vs[len(group):]
			for _, v := range group {
				plan[laneKey{p, v}] = group
			}
		}
	}
	s.plan.Store(&plan)
}

// lanes returns the variants whose part p runs are built together with
// v's: v's lane group in the session's plan, or v alone.
func (s *Session) lanes(p part, v pdn.ProcVariant) []pdn.ProcVariant {
	if plan := s.plan.Load(); plan != nil {
		if group, ok := (*plan)[laneKey{p, v}]; ok {
			return group
		}
	}
	return []pdn.ProcVariant{v}
}

// corpusRun is one measured corpus run. Its exported fields are the run's
// journal record; data is derived from them once, when the run is
// measured or replayed, and every consumer of the run shares it.
type corpusRun struct {
	Cycles uint64       `json:"cycles"`
	Scope  *sense.Scope `json:"scope"`
	// Counters are the per-core counters of the measured window. The
	// multi-threaded runs leave them out: nothing reads them, and the
	// payload under a journal key never changes shape, because a journal
	// written by an older build may already hold the key.
	Counters []counters.Counters `json:"counters,omitempty"`
	data     resilient.RunData
}

// corpusPart is one kind of corpus run, the same on every variant: run i
// runs programs(i) for rc, and name(i) is its RunData name and the tail
// of its journal key, "corpus/<variant>/" + kind + name(i).
type corpusPart struct {
	kind string
	n    int
	rc   core.RunConfig
	name func(i int) string
	// programs returns run i's workloads on cores 0 and 1; b is nil when
	// core 1 idles.
	programs func(i int) (a, b workload.Stream)
	// noCounters drops the per-core counters from the record (the
	// multi-threaded runs; see corpusRun.Counters).
	noCounters bool
}

// corpusPart returns part p at the session's scale.
func (s *Session) corpusPart(p part) corpusPart {
	spec := s.SpecProfiles()
	rc := core.RunConfig{Cycles: s.Scale.RunCycles, WarmupCycles: s.Scale.WarmupCycles}
	switch p {
	case partSingle:
		return corpusPart{
			kind:     "single/",
			n:        len(spec),
			rc:       rc,
			name:     func(i int) string { return spec[i].Name },
			programs: func(i int) (a, b workload.Stream) { return spec[i].NewStream(), nil },
		}
	case partMT:
		// The threads are distinct stream instances: they share the
		// binary, not the exact dynamic path (the second thread gets a
		// derived seed).
		par := workload.Parsec()
		if s.Scale.SpecSubset > 0 && s.Scale.SpecSubset < len(par) {
			par = par[:s.Scale.SpecSubset]
		}
		return corpusPart{
			kind: "",
			n:    len(par),
			rc:   rc,
			name: func(i int) string { return par[i].Name + "(mt)" },
			programs: func(i int) (a, b workload.Stream) {
				q := par[i]
				q.Seed++
				return par[i].NewStream(), q.NewStream()
			},
			noCounters: true,
		}
	default: // partPair: run k places spec[k/n] on core 0 and spec[k%n] on core 1.
		n := len(spec)
		rc.Cycles = s.Scale.PairCycles
		return corpusPart{
			kind: "pair/",
			n:    n * n,
			rc:   rc,
			name: func(k int) string { return spec[k/n].Name + "+" + spec[k%n].Name },
			programs: func(k int) (a, b workload.Stream) {
				return spec[k/n].NewStream(), spec[k%n].NewStream()
			},
		}
	}
}

// populationKey names one population, the runs of one part for one lane
// group: the part and the group's variant names.
type populationKey struct {
	part  part
	lanes string
}

// runs returns part p's runs of variant v. The first call for any
// variant of v's lane group builds the whole group's population. done is
// called once per run of v for every caller: as each run completes when
// this call builds the population, and for every run afterwards when
// another call built it. Each consumer therefore counts every run it
// reads once, whether it measured, replayed or shared it.
func (s *Session) runs(ctx context.Context, p part, v pdn.ProcVariant, done func(*corpusRun)) []corpusRun {
	if s.onRead != nil {
		s.onRead(p, v)
	}
	lanes := s.lanes(p, v)
	self := 0
	names := make([]string, len(lanes))
	for l, lv := range lanes {
		names[l] = lv.Name
		if lv == v {
			self = l
		}
	}
	key := populationKey{p, strings.Join(names, "+")}
	built := false
	runs := s.populations.Do(key, func() [][]corpusRun {
		built = true
		return s.buildPopulation(ctx, p, lanes, self, done)
	})[self]
	if !built {
		for i := range runs {
			done(&runs[i])
		}
	}
	return runs
}

// buildPopulation simulates, or replays from the journal, part p's runs
// for every lane over the session sweep, and returns them by lane: run i
// of variant lanes[l] is pop[l][i]. The runs are simulated in lockstep
// groups (Session.lockstep): each run replays the lanes the journal holds,
// and its chip drives a network for each of the rest, every run of the
// group stepping together; each simulated lane is recorded under its own
// key, and progress is reported once per lane. done is called for lane
// self's run of each index once its group completes.
func (s *Session) buildPopulation(ctx context.Context, p part, lanes []pdn.ProcVariant, self int,
	done func(*corpusRun)) [][]corpusRun {
	cp := s.corpusPart(p)
	progress := ProgressFrom(ctx)
	pop := make([][]corpusRun, len(lanes))
	prefixes := make([]string, len(lanes))
	laneNets := make([]pdn.Params, len(lanes))
	for l, v := range lanes {
		pop[l] = make([]corpusRun, cp.n)
		prefixes[l] = "corpus/" + v.Name + "/" + cp.kind
		laneNets[l] = s.ChipConfig(v).PDN
	}
	// The variants' chips differ only in their networks.
	cfg := s.ChipConfig(lanes[0])
	s.lockstep(ctx, cp.n, 2, func(lo, hi int) {
		// The group's bookkeeping is allocated once, not per run.
		names := make([]string, hi-lo)
		keys := make([]string, (hi-lo)*len(lanes))
		missing := make([]int, 0, len(keys)) // the simulated lanes' indexes in keys, run by run
		nets := make([]pdn.Params, 0, len(keys))
		streams := make([]workload.Stream, 0, 2*(hi-lo))
		runs := make([]core.LaneRun, 0, hi-lo)
		for i := lo; i < hi; i++ {
			names[i-lo] = cp.name(i)
			first := len(nets)
			for l := range lanes {
				k := (i-lo)*len(lanes) + l
				keys[k] = prefixes[l] + names[i-lo]
				if !s.lookupUnit(keys[k], &pop[l][i]) {
					missing = append(missing, k)
					nets = append(nets, laneNets[l])
				}
			}
			if len(nets) > first {
				a, b := cp.programs(i)
				streams = append(streams, a, b)
				runs = append(runs, core.LaneRun{Streams: streams[len(streams)-2:], Nets: nets[first:]})
			}
		}
		m := 0
		for _, res := range core.RunLanes(cfg, runs, cp.rc) {
			for _, lr := range res {
				k := missing[m]
				m++
				r := &pop[k%len(lanes)][lo+k/len(lanes)]
				r.Cycles, r.Scope, r.Counters = lr.Cycles, lr.Scope, lr.Counters
				if cp.noCounters {
					r.Counters = nil
				}
				// A poisoned journal degrades the session to
				// journal-less execution (one warning) instead of
				// aborting: the run was measured, only its checkpoint
				// is lost.
				s.recordUnit(keys[k], r)
			}
		}
		for i := lo; i < hi; i++ {
			for l := range lanes {
				r := &pop[l][i]
				r.data = resilient.FromScope(names[i-lo], r.Cycles, r.Scope)
				progress(keys[(i-lo)*len(lanes)+l])
			}
			done(&pop[self][i])
		}
	})
	return pop
}

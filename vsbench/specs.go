package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"voltsmooth/internal/experiments"
)

// jobSpec is the submission body of POST /jobs.
type jobSpec struct {
	Experiments []string `json:"experiments"`
	Scale       string   `json:"scale"`
	FaultSeed   uint64   `json:"fault_seed,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	Priority    string   `json:"priority,omitempty"`
}

// key identifies what determines a spec's renders: the experiment list,
// the scale and the fault seed. Two specs with equal keys may share one
// execution; two with different keys must not.
func (s jobSpec) key() string {
	return fmt.Sprintf("%s@%s#%d", strings.Join(s.Experiments, ","), s.Scale, s.FaultSeed)
}

// campaignSpec is the paper's product: every figure at the quick scale.
var campaignSpec = jobSpec{Experiments: []string{"all"}, Scale: "quick"}

// probeSpec is the cold job that ends a traced cached or tenants run, so
// every workload reports per-experiment spans and SSE lag.
var probeSpec = jobSpec{Experiments: []string{"all"}, Scale: "tiny"}

// popularSpecs are the small, repeated tiny-scale specs that the result
// cache serves: cheap experiments only, so their one cold execution is
// short.
var popularSpecs = []jobSpec{
	{Experiments: []string{"fig1"}, Scale: "tiny"},
	{Experiments: []string{"fig2"}, Scale: "tiny"},
	{Experiments: []string{"fig6"}, Scale: "tiny"},
	{Experiments: []string{"fig11"}, Scale: "tiny"},
	{Experiments: []string{"fig1", "fig2"}, Scale: "tiny"},
	{Experiments: []string{"fig12"}, Scale: "tiny"},
	{Experiments: []string{"fig4"}, Scale: "tiny"},
	{Experiments: []string{"fig15"}, Scale: "tiny"},
}

// Cold specs combine one base experiment with up to two light ones. A
// "heavy" base builds a run corpus or the pair table, so its job writes
// journal units; the recovery base varies its fault seed, which changes
// its renders.
var (
	heavyExperiments = []string{"fig7", "fig8", "fig17", "fig18"}
	lightExperiments = []string{"fig1", "fig2", "fig6", "fig11", "fig12", "fig15"}
)

const (
	recoveryExperiment = "figx-recovery"
	// maxFaultSeed bounds the recovery fault seeds, so the committed
	// digests cover every one the generator can draw.
	maxFaultSeed = 32
	// coldPattern fixes which cold specs get a heavy base: three in five,
	// so at least half of every run's cold specs write journal units.
	coldPattern = "HRHHR"
)

// Traffic shares of the tenants mix.
const (
	coldShare        = 0.08
	coldBurst        = 3
	interactiveShare = 0.2
	bulkShare        = 0.2
)

// registryRank orders experiment IDs as the registry lists them.
func registryRank() map[string]int {
	rank := map[string]int{}
	for i, e := range experiments.All() {
		rank[e.ID] = i
	}
	return rank
}

// sortByRegistry puts ids in registry order, in place.
func sortByRegistry(ids []string, rank map[string]int) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && rank[ids[j]] < rank[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// expand resolves "all" to every registered experiment ID, in registry
// order.
func expand(ids []string) []string {
	if len(ids) == 1 && ids[0] == "all" {
		var out []string
		for _, e := range experiments.All() {
			out = append(out, e.ID)
		}
		return out
	}
	return ids
}

// zipf draws popular-spec indices with a Zipf skew: the first spec is the
// most popular.
type zipf struct{ z *rand.Zipf }

func newZipf(r *rand.Rand, n int) zipf { return zipf{rand.NewZipf(r, 1.1, 1, uint64(n-1))} }

func (z zipf) next() int { return int(z.z.Uint64()) }

// coldGen draws cold specs whose keys are unique within one run.
type coldGen struct {
	r     *rand.Rand
	rank  map[string]int
	seen  map[string]bool
	heavy []int // a seeded rotation through heavyExperiments
	n     int
}

func newColdGen(r *rand.Rand) *coldGen {
	return &coldGen{r: r, rank: registryRank(), seen: map[string]bool{}, heavy: r.Perm(len(heavyExperiments))}
}

func (g *coldGen) next() jobSpec {
	heavy := coldPattern[g.n%len(coldPattern)] == 'H'
	base := heavyExperiments[g.heavy[g.n%len(g.heavy)]]
	g.n++
	for {
		s := jobSpec{Scale: "tiny"}
		if heavy {
			s.Experiments = []string{base}
		} else {
			s.Experiments = []string{recoveryExperiment}
			s.FaultSeed = uint64(1 + g.r.Intn(maxFaultSeed))
		}
		for _, i := range g.r.Perm(len(lightExperiments))[:g.r.Intn(3)] {
			s.Experiments = append(s.Experiments, lightExperiments[i])
		}
		sortByRegistry(s.Experiments, g.rank)
		if !g.seen[s.key()] {
			g.seen[s.key()] = true
			return s
		}
	}
}

// arrival is one scheduled submission of an open-loop workload.
type arrival struct {
	at   float64 // seconds after the start of the arrival window
	spec jobSpec
	// popular marks a spec drawn from popularSpecs.
	popular bool
}

// tenantsArrivals is the tenants schedule: n arrivals over window
// seconds, each placed uniformly at random within its own 1/n of the
// window, so every run offers the same load equally smoothly. A
// coldShare of them carry cold specs, in bursts of coldBurst adjacent
// arrivals spread evenly over the window: a burst fills both job slots
// and queues a third job, which preempts when it outranks a running one.
// The rest are popular specs drawn Zipf-style. Priorities are
// interactive/batch/bulk in an exact 20/60/20 mix, shuffled. The seed
// decides the arrival times, the priorities and the specs.
func tenantsArrivals(seed int64, n int, window float64) []arrival {
	r := rand.New(rand.NewSource(seed))
	priority := shuffled(r, n, map[string]float64{"interactive": interactiveShare, "bulk": bulkShare})
	z := newZipf(r, len(popularSpecs))
	cold := newColdGen(r)
	isCold := coldSlots(n)
	out := make([]arrival, n)
	for i := range out {
		a := arrival{at: (float64(i) + r.Float64()) * window / float64(n)}
		if isCold[i] {
			a.spec = cold.next()
		} else {
			a.spec, a.popular = popularSpecs[z.next()], true
		}
		a.spec.Priority = priority[i]
		if a.spec.Priority == "" {
			a.spec.Priority = "batch"
		}
		a.spec.Experiments = append([]string(nil), a.spec.Experiments...)
		out[i] = a
	}
	return out
}

// coldSlots marks which of n arrivals are cold: floor(coldShare*n) of
// them, in bursts of coldBurst adjacent slots, one burst in the middle of
// each equal segment of the window.
func coldSlots(n int) []bool {
	cold := int(coldShare * float64(n))
	bursts := (cold + coldBurst - 1) / coldBurst
	marks := make([]bool, n)
	for b := 0; b < bursts; b++ {
		start := (2*b + 1) * n / (2 * bursts)
		for k := 0; k < coldBurst && cold > 0; k++ {
			marks[start+k] = true
			cold--
		}
	}
	return marks
}

// shuffled returns n labels in a random order, each label of shares
// making up its share of them (rounded) and the zero label the rest.
func shuffled[L comparable](r *rand.Rand, n int, shares map[L]float64) []L {
	out := make([]L, 0, n)
	for _, l := range sortedLabels(shares) {
		for k := int(math.Round(shares[l] * float64(n))); k > 0 && len(out) < n; k-- {
			out = append(out, l)
		}
	}
	out = append(out, make([]L, n-len(out))...)
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sortedLabels orders a map's keys by their formatted value, so shuffles
// do not depend on map iteration order.
func sortedLabels[L comparable](m map[L]float64) []L {
	keys := make([]L, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
	return keys
}

// cachedArrivals is the cached workload's open-loop phase: n submissions
// at a fixed rate, each a popular spec drawn Zipf-style.
func cachedArrivals(seed int64, rate float64, n int) []arrival {
	r := rand.New(rand.NewSource(seed))
	z := newZipf(r, len(popularSpecs))
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{at: float64(i) / rate, spec: popularSpecs[z.next()], popular: true}
	}
	return out
}

// closedLoopSpecs is the cached workload's closed-loop phase: n popular
// specs drawn Zipf-style from a stream independent of the open loop's.
func closedLoopSpecs(seed int64, n int) []jobSpec {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	z := newZipf(r, len(popularSpecs))
	out := make([]jobSpec, n)
	for i := range out {
		out[i] = popularSpecs[z.next()]
	}
	return out
}

// tenantPool hands out X-Client IDs round-robin over a pool sized so that
// no client submits more than perClient jobs in the run: with the
// server's default quota (burst 5), no submission is refused.
type tenantPool struct {
	prefix string
	size   int
	next   int
}

func newTenantPool(prefix string, total, perClient int) *tenantPool {
	return &tenantPool{prefix: prefix, size: max(1, int(math.Ceil(float64(total)/float64(perClient))))}
}

func (p *tenantPool) id() string {
	id := fmt.Sprintf("%s-%04d", p.prefix, p.next%p.size)
	p.next++
	return id
}

package sched

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"voltsmooth/internal/parallel"
)

// Policy scores candidate pairs on the oracle table; the batch scheduler
// greedily picks the highest-scoring admissible pair at each step.
type Policy interface {
	Name() string
	// Score returns the desirability of co-scheduling (i, j); higher is
	// better.
	Score(t *PairTable, i, j int) float64
}

// DroopPolicy is the paper's proposed policy: minimize chip-wide droops
// ("It focuses on mitigating voltage noise explicitly by reducing the
// number of times the hardware recovery mechanism triggers").
type DroopPolicy struct{}

// Name implements Policy.
func (DroopPolicy) Name() string { return "Droop" }

// Score implements Policy: fewer droops score higher.
func (DroopPolicy) Score(t *PairTable, i, j int) float64 { return -t.Droops[i][j] }

// IPCPolicy is the conventional throughput-oriented comparison policy:
// it chooses the co-schedules with the best throughput relative to the
// members' SPECrate baselines (pairing programs whose shared-cache
// footprints interfere least), which is what cache-aware performance
// schedulers optimize.
type IPCPolicy struct{}

// Name implements Policy.
func (IPCPolicy) Name() string { return "IPC" }

// Score implements Policy: higher normalized pair throughput wins.
func (IPCPolicy) Score(t *PairTable, i, j int) float64 { return normIPC(t, i, j) }

// normIPC is the pair's IPC over the mean of its members' SPECrate IPCs.
func normIPC(t *PairTable, i, j int) float64 {
	base := (t.IPC[i][i] + t.IPC[j][j]) / 2
	if base <= 0 {
		base = 1e-9
	}
	return t.IPC[i][j] / base
}

// HybridPolicy is the paper's IPC/Droopⁿ metric: performance-aware
// noise-aware scheduling whose exponent n adapts to the platform's
// recovery cost ("n is small for fine-grained schemes … bigger to
// compensate for larger recovery penalties under more coarse-grained
// schemes").
type HybridPolicy struct{ N float64 }

// Name implements Policy.
func (h HybridPolicy) Name() string { return fmt.Sprintf("IPC/Droop^%g", h.N) }

// Score implements Policy.
func (h HybridPolicy) Score(t *PairTable, i, j int) float64 {
	d := t.Droops[i][j]
	if d <= 0 {
		d = 1e-9 // a pair with no droops is maximally desirable
	}
	return normIPC(t, i, j) / math.Pow(d, h.N)
}

// RandomPolicy scores pairs randomly (deterministically per seed); the
// paper evaluates 100 random schedules as a control.
type RandomPolicy struct{ Seed int64 }

// Name implements Policy.
func (RandomPolicy) Name() string { return "Random" }

// Score implements Policy. The score is a pure hash of (seed, i, j) so a
// RandomPolicy value is stateless and safe to reuse.
func (r RandomPolicy) Score(t *PairTable, i, j int) float64 {
	h := uint64(r.Seed)*0x9E3779B97F4A7C15 + uint64(i)*0x517CC1B727220A95 + uint64(j)*0x2545F4914F6CDD1D
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return float64(h>>11) / (1 << 53)
}

// Batch is one batch schedule: an ordered list of co-scheduled pairs.
type Batch struct {
	Policy string
	Pairs  [][2]int
}

// BatchConfig shapes batch construction, mirroring the paper's setup:
// "From this pool, during each scheduling interval, the scheduler chooses
// a combination of programs to run together, based on the active policy.
// In order to avoid preferential behavior, we constrain the number of
// times a program is repeatedly chosen. 50 such combinations constitute
// one batch schedule."
type BatchConfig struct {
	Size      int // pairs per batch (paper: 50)
	MaxRepeat int // times one program may be chosen
}

// DefaultBatchConfig returns the paper's batch shape for a 29-benchmark
// pool: 50 pairs, each program limited to its fair share of slots.
func DefaultBatchConfig(poolSize int) BatchConfig {
	size := 50
	maxRepeat := (2*size + poolSize - 1) / poolSize
	return BatchConfig{Size: size, MaxRepeat: maxRepeat}
}

// BuildBatch greedily assembles a batch under the policy: at every
// scheduling interval the admissible pair with the best score is chosen,
// where admissible means both programs are under their repeat budget.
func BuildBatch(t *PairTable, p Policy, cfg BatchConfig) Batch {
	if cfg.Size < 1 || cfg.MaxRepeat < 1 {
		panic(fmt.Sprintf("sched: bad batch config %+v", cfg))
	}
	n := t.Size()
	used := make([]int, n)
	batch := Batch{Policy: p.Name()}
	for len(batch.Pairs) < cfg.Size {
		bestI, bestJ := -1, -1
		best := math.Inf(-1)
		for i := 0; i < n; i++ {
			if used[i] >= cfg.MaxRepeat {
				continue
			}
			for j := 0; j < n; j++ {
				if used[j] >= cfg.MaxRepeat || (i == j && used[i]+2 > cfg.MaxRepeat) {
					continue
				}
				if s := p.Score(t, i, j); s > best {
					best, bestI, bestJ = s, i, j
				}
			}
		}
		if bestI < 0 {
			break // pool exhausted
		}
		used[bestI]++
		used[bestJ]++
		batch.Pairs = append(batch.Pairs, [2]int{bestI, bestJ})
	}
	return batch
}

// BatchEval is one point of the Fig 18 scatter: a batch's droop count and
// performance, both normalized to the SPECrate baseline ("we normalize
// and analyze results relative to SPECrate for both droop counts and IPC,
// since this removes any inherent IPC differences between benchmarks and
// focuses only on the benefits of co-scheduling").
type BatchEval struct {
	Policy string
	// Droops is the batch-mean normalized droop count: each pair's
	// droops divided by the mean of its two members' SPECrate droops.
	Droops float64
	// Perf is the batch-mean normalized IPC on the same basis.
	Perf float64
}

// EvaluateBatch computes the normalized coordinates of a batch.
func EvaluateBatch(t *PairTable, b Batch) BatchEval {
	if len(b.Pairs) == 0 {
		panic("sched: evaluating an empty batch")
	}
	var dSum, pSum float64
	for _, pr := range b.Pairs {
		i, j := pr[0], pr[1]
		dBase := (t.Droops[i][i] + t.Droops[j][j]) / 2
		pBase := (t.IPC[i][i] + t.IPC[j][j]) / 2
		if dBase <= 0 {
			dBase = 1e-9
		}
		if pBase <= 0 {
			pBase = 1e-9
		}
		dSum += t.Droops[i][j] / dBase
		pSum += t.IPC[i][j] / pBase
	}
	n := float64(len(b.Pairs))
	return BatchEval{Policy: b.Policy, Droops: dSum / n, Perf: pSum / n}
}

// randomSeeds draws the per-batch policy seeds for the random control
// group. They come from one serial rand stream so the group is identical
// however the batch builds are later distributed.
func randomSeeds(count int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, count)
	for k := range out {
		out[k] = rng.Int63()
	}
	return out
}

// RandomBatches builds the paper's 100-random-schedule control group.
func RandomBatches(t *PairTable, cfg BatchConfig, count int, seed int64) []Batch {
	out := make([]Batch, 0, count)
	for _, s := range randomSeeds(count, seed) {
		out = append(out, BuildBatch(t, RandomPolicy{Seed: s}, cfg))
	}
	return out
}

// RandomEvalsCtx builds and evaluates the random control group, fanning
// the per-batch greedy constructions (each an O(size·n²) table scan) out
// over `workers` goroutines. The result equals evaluating
// RandomBatches(t, cfg, count, seed) batch by batch, at any width. The
// sweep stops at a batch boundary when ctx is cancelled and returns the
// context's error and no evals.
func RandomEvalsCtx(ctx context.Context, t *PairTable, cfg BatchConfig, count int, seed int64, workers int) ([]BatchEval, error) {
	seeds := randomSeeds(count, seed)
	out := make([]BatchEval, count)
	if err := parallel.SweepCtx(ctx, workers, count, func(k int) {
		out[k] = EvaluateBatch(t, BuildBatch(t, RandomPolicy{Seed: seeds[k]}, cfg))
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// BestPartner returns, for benchmark i, the co-runner the policy would
// choose from the whole pool.
func BestPartner(t *PairTable, p Policy, i int) int {
	best, bestJ := math.Inf(-1), 0
	for j := 0; j < t.Size(); j++ {
		if s := p.Score(t, i, j); s > best {
			best, bestJ = s, j
		}
	}
	return bestJ
}

// PolicySchedules returns one schedule per benchmark: each program paired
// with its policy-chosen best partner. This is the per-suite schedule set
// whose pass count Fig 19 compares against the SPECrate column of Tab I.
func PolicySchedules(t *PairTable, p Policy) [][2]int {
	out := make([][2]int, t.Size())
	for i := range out {
		out[i] = [2]int{i, BestPartner(t, p, i)}
	}
	return out
}

package main

import (
	"math"
	"sort"
	"sync"
)

// tailLadder lists the percentiles a distribution may report as its tail,
// highest first. A percentile qualifies only when at least minBeyond
// samples lie beyond it, so the tail is never read off one or two
// outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// dist is the sample of one measured quantity.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.xs = append(d.xs, x)
	d.sorted = false
}

// n is the sample count.
func (d *dist) n() int { return len(d.xs) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// rankIndex is the nearest-rank index of percentile p in a sorted sample
// of n values.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// pct returns the p-th percentile by nearest rank; 0 for an empty sample.
func (d *dist) pct(p float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	d.sort()
	return d.xs[rankIndex(p, len(d.xs))]
}

// beyond counts the samples ranked above the p-th percentile.
func (d *dist) beyond(p float64) int {
	if len(d.xs) == 0 {
		return 0
	}
	return len(d.xs) - 1 - rankIndex(p, len(d.xs))
}

// tail returns the highest ladder percentile with at least minBeyond
// samples beyond it, and false when the sample is too small for any.
func (d *dist) tail() (float64, bool) {
	for _, p := range tailLadder {
		if d.beyond(p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

func (d *dist) max() float64 { return d.pct(100) }

func (d *dist) sum() float64 {
	s := 0.0
	for _, x := range d.xs {
		s += x
	}
	return s
}

// samples is a concurrency-safe set of named distributions.
type samples struct {
	mu sync.Mutex
	d  map[string]*dist
}

func newSamples() *samples { return &samples{d: map[string]*dist{}} }

func (s *samples) add(name string, x float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.d[name]
	if d == nil {
		d = &dist{}
		s.d[name] = d
	}
	d.add(x)
}

// get returns the named distribution (empty when nothing was recorded).
// Callers read it only after every writer has finished.
func (s *samples) get(name string) *dist {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.d[name]; d != nil {
		return d
	}
	return &dist{}
}

// median returns the median of xs (0 when empty) without reordering it.
func median(xs []float64) float64 {
	d := dist{xs: append([]float64(nil), xs...)}
	return d.pct(50)
}

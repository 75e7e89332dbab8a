package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call across a layer boundary: a call the benchmark
// made into a layer's public function or HTTP endpoint, or a span the
// server reported for a job (an experiment's run.start to run.done). Req
// ties the spans of one job together; Parent names the causing span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Req     string `json:"req,omitempty"`
	StartNS int64  `json:"start_unix_ns"`
	EndNS   int64  `json:"end_unix_ns"`
}

// tracer keeps a traced pass's spans in memory until the run ends. A nil
// tracer records nothing, so untraced passes make the same calls at no
// cost.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// record adds a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(name, req string, start, end time.Time) int {
	return t.recordChild(0, name, req, start, end)
}

func (t *tracer) recordChild(parent int, name, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		StartNS: start.UnixNano(), EndNS: end.UnixNano()})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	t.record(name, "", t0, time.Now())
	return err
}

// durations returns the lengths of every span called name, in the given
// unit.
func (t *tracer) durations(name string, unit time.Duration) *dist {
	d := &dist{}
	if t == nil {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			d.add(float64(s.EndNS-s.StartNS) / float64(unit))
		}
	}
	return d
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

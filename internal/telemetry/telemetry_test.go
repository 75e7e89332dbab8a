package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestTimingStats(t *testing.T) {
	r := NewRegistry()
	tm := r.Timing("wall")
	tm.Observe(100 * time.Millisecond)
	tm.Observe(300 * time.Millisecond)
	s := tm.Stats()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MeanMs != 200 {
		t.Errorf("mean = %g, want 200 (exact, from tracked sum)", s.MeanMs)
	}
	if s.MaxMs != 300 {
		t.Errorf("max = %g, want 300 (exact)", s.MaxMs)
	}
	if s.P50Ms < 0 || s.P50Ms > s.MaxMs {
		t.Errorf("p50 = %g outside [0, max]", s.P50Ms)
	}
}

func TestSnapshotRoundTripsAsJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("x.count").Add(3)
	r.Gauge("x.gauge").Set(-1)
	r.Timing("x.wall").Observe(time.Millisecond)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["x.count"] != 3 || back.Gauges["x.gauge"] != -1 || back.Timings["x.wall"].Count != 1 {
		t.Errorf("snapshot did not round-trip: %+v", back)
	}
}

// The registry and its instruments are fed from sweep workers; this is the
// surface the CI -race step exercises.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Add(1)
				r.Timing("t").Observe(time.Microsecond)
				tr.Emit(Event{Kind: "test"})
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
	if tr.Total() != 8000 || tr.Len() != 64 || tr.Dropped() != 8000-64 {
		t.Errorf("trace total/len/dropped = %d/%d/%d", tr.Total(), tr.Len(), tr.Dropped())
	}
}

func TestTraceRingOrderAndDrop(t *testing.T) {
	tr := NewTrace(4)
	tr.now = func() time.Time { return time.Unix(0, 42) }
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: "k", Value: float64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		wantSeq := uint64(2 + i) // events 0 and 1 were overwritten
		if ev.Seq != wantSeq || ev.Value != float64(wantSeq) {
			t.Errorf("event %d: seq=%d value=%g, want seq=%d", i, ev.Seq, ev.Value, wantSeq)
		}
		if ev.T != 42 {
			t.Errorf("event %d: T=%d, want 42", i, ev.T)
		}
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}
}

// A ring grows on demand: a fresh trace holding a few events allocates a
// few slots, never past its capacity, and retains and drops exactly as a
// preallocated ring would.
func TestTraceGrowsOnDemand(t *testing.T) {
	tr := NewTrace(4096)
	for i := 0; i < 3; i++ {
		tr.Emit(Event{Kind: "k"})
	}
	if c := cap(tr.buf); c > 16 {
		t.Errorf("3 events in a 4096-event ring hold %d slots, want at most 16", c)
	}
	for i := 3; i < 5000; i++ {
		tr.Emit(Event{Kind: "k", Value: float64(i)})
	}
	if c := cap(tr.buf); c != 4096 {
		t.Errorf("full ring holds %d slots, want exactly 4096", c)
	}
	evs := tr.Events()
	if len(evs) != 4096 || evs[0].Seq != 5000-4096 || evs[4095].Seq != 4999 || tr.Dropped() != 5000-4096 {
		t.Errorf("retained %d events (seq %d..%d), dropped %d; want 4096 (seq 904..4999), dropped 904",
			len(evs), evs[0].Seq, evs[len(evs)-1].Seq, tr.Dropped())
	}
}

func TestTraceWriteJSONL(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(Event{Kind: "a.b", ID: "fig1", Detail: "x", Attempt: 2})
	tr.Emit(Event{Kind: "c.d", Value: 1.5})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "a.b" || ev.ID != "fig1" || ev.Attempt != 2 {
		t.Errorf("first line decoded to %+v", ev)
	}
}

func TestNilTraceEmitIsSafe(t *testing.T) {
	var tr *Trace
	tr.Emit(Event{Kind: "x"}) // must not panic: Emit with no trace installed passes nil
}

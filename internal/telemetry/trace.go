package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"time"
)

// Event is one entry of the campaign event trace. The schema is flat and
// generic so every producer shares one JSONL shape:
//
//	{"seq":17,"t":1722851115123456789,"kind":"runner.retry",
//	 "id":"fig17","attempt":2,"detail":"runner: stalled (no progress)"}
//
// Seq orders events totally (assignment order under the trace lock); T is
// wall time in Unix nanoseconds and carries no ordering guarantees across
// producers. Kind is a dotted producer.verb name (see DESIGN §7 for the
// full vocabulary); ID names the subject (an experiment, a journal key);
// Detail and Value/Attempt carry kind-specific payload.
type Event struct {
	Seq     uint64  `json:"seq"`
	T       int64   `json:"t"`
	Kind    string  `json:"kind"`
	ID      string  `json:"id,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	Value   float64 `json:"value,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
}

// FirstLine trims an error to its first line for an event's Detail (a
// panic error carries its whole stack). A nil error is "".
func FirstLine(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// Trace is a bounded ring buffer of events. When full, the oldest events
// are overwritten and counted as dropped: a trace bounds its own memory no
// matter how long the campaign runs, at the cost of retaining only the most
// recent window. The ring grows on demand up to its capacity, so a trace
// that holds a few events costs a few slots. Emit is safe for concurrent
// use and cheap enough for event-rate producers (per emergency, per
// quantum, per journal record); per-cycle paths must use counters instead.
type Trace struct {
	mu      sync.Mutex
	buf     []Event
	limit   int    // capacity bound; cap(buf) never exceeds it
	next    uint64 // total events ever emitted; once full, buf[next%limit] is the next slot
	dropped uint64

	// now stamps events; overridable for tests.
	now func() time.Time
}

// DefaultTraceCapacity is the ring size used when capacity <= 0.
const DefaultTraceCapacity = 65536

// NewTrace returns a trace retaining the most recent capacity events
// (DefaultTraceCapacity when capacity <= 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Trace{limit: capacity, now: time.Now}
}

// Emit appends one event, stamping its sequence number and wall time.
// The passed event's Seq and T fields are ignored.
func (t *Trace) Emit(ev Event) {
	if t == nil {
		return
	}
	now := t.now().UnixNano()
	t.mu.Lock()
	ev.Seq = t.next
	ev.T = now
	switch {
	case len(t.buf) < cap(t.buf):
		t.buf = append(t.buf, ev)
	case len(t.buf) < t.limit:
		// Double, but never past the limit: append's own growth could overshoot.
		grown := make([]Event, len(t.buf), min(max(2*cap(t.buf), 16), t.limit))
		copy(grown, t.buf)
		t.buf = append(grown, ev)
	default:
		t.buf[t.next%uint64(t.limit)] = ev
		t.dropped++
	}
	t.next++
	t.mu.Unlock()
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns the number of events ever emitted.
func (t *Trace) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Dropped returns how many events were overwritten by newer ones.
func (t *Trace) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns the retained events in emission order (oldest first).
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) < t.limit {
		return append(out, t.buf...)
	}
	// Full ring: the oldest retained event sits at next%limit.
	start := int(t.next % uint64(t.limit))
	out = append(out, t.buf[start:]...)
	out = append(out, t.buf[:start]...)
	return out
}

// WriteJSONL writes the retained events to w, one JSON object per line,
// oldest first.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/parallel"
)

// entry builds a fake experiment around a run function.
func entry(id string, run func(ctx context.Context, s *experiments.Session) experiments.Renderer) experiments.Entry {
	return experiments.Entry{ID: id, Title: id, Run: run}
}

// okRenderer is the trivial renderer fakes return.
type okRenderer struct{ id string }

func (r okRenderer) Render() string { return "ok:" + r.id }

func session() *experiments.Session { return experiments.NewSession(experiments.Tiny()) }

// eventLog collects events concurrently.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	times  []time.Time
}

func (l *eventLog) add(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, ev)
	l.times = append(l.times, time.Now())
}

func (l *eventLog) count(kind EventKind, id string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.events {
		if ev.Kind == kind && ev.ID == id {
			n++
		}
	}
	return n
}

// doneAt returns when the EventDone for id fired.
func (l *eventLog) doneAt(id string) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, ev := range l.events {
		if ev.Kind == EventDone && ev.ID == id {
			return l.times[i], true
		}
	}
	return time.Time{}, false
}

func TestBatchRunsAllEntriesInOrder(t *testing.T) {
	var entries []experiments.Entry
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("e%d", i)
		entries = append(entries, entry(id, func(context.Context, *experiments.Session) experiments.Renderer {
			return okRenderer{id}
		}))
	}
	results, err := RunBatch(context.Background(), session(), entries, Config{Workers: 3})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if len(results) != len(entries) {
		t.Fatalf("got %d results, want %d", len(results), len(entries))
	}
	for i, r := range results {
		if r.ID != entries[i].ID {
			t.Errorf("result %d is %q, want %q (slot order broken)", i, r.ID, entries[i].ID)
		}
		if r.Err != nil {
			t.Errorf("%s failed: %v", r.ID, r.Err)
		}
		if r.Renderer == nil || r.Renderer.Render() != "ok:"+r.ID {
			t.Errorf("%s renderer wrong", r.ID)
		}
		if r.Attempts != 1 {
			t.Errorf("%s took %d attempts, want 1", r.ID, r.Attempts)
		}
	}
	if s := Summarize(results); s.Succeeded != 5 {
		t.Errorf("summary %+v, want 5 succeeded", s)
	}
}

// TestStalledExperimentIsCancelledRetriedAndDoesNotBlockSiblings is the
// watchdog acceptance test: a deliberately-stalled fake experiment is
// cancelled by the watchdog, classified ErrStalled, retried once, and
// reported as failed — while a sibling experiment completes promptly.
// TestResultElapsedCoversTheRun pins the per-experiment wall time the CLI
// prints in each header: it must cover the attempt, not read zero.
func TestResultElapsedCoversTheRun(t *testing.T) {
	slow := entry("slow", func(ctx context.Context, s *experiments.Session) experiments.Renderer {
		time.Sleep(20 * time.Millisecond)
		return okRenderer{"slow"}
	})
	results, err := RunBatch(context.Background(), session(), []experiments.Entry{slow}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Elapsed; got < 20*time.Millisecond {
		t.Errorf("Elapsed = %v, want at least the 20ms the run slept", got)
	}
}

func TestStalledExperimentIsCancelledRetriedAndDoesNotBlockSiblings(t *testing.T) {
	log := &eventLog{}
	stall := entry("stall", func(ctx context.Context, _ *experiments.Session) experiments.Renderer {
		// Never report progress; cooperate with cancellation the way a
		// real experiment does — unwind with an abort panic.
		<-ctx.Done()
		panic(&parallel.AbortError{Err: ctx.Err()})
	})
	quick := entry("quick", func(context.Context, *experiments.Session) experiments.Renderer {
		return okRenderer{"quick"}
	})

	cfg := Config{
		Workers:      2,
		MaxAttempts:  2,
		BackoffBase:  time.Millisecond,
		BackoffMax:   2 * time.Millisecond,
		StallTimeout: 30 * time.Millisecond,
		OnEvent:      log.add,
	}
	start := time.Now()
	results, err := RunBatch(context.Background(), session(), []experiments.Entry{stall, quick}, cfg)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}

	st := results[0]
	if !errors.Is(st.Err, ErrStalled) {
		t.Errorf("stalled experiment classified %v, want ErrStalled", st.Err)
	}
	if st.Attempts != 2 {
		t.Errorf("stalled experiment took %d attempts, want 2 (one retry)", st.Attempts)
	}
	if got := log.count(EventRetry, "stall"); got != 1 {
		t.Errorf("saw %d retry events for stall, want 1", got)
	}
	if results[1].Err != nil {
		t.Errorf("sibling failed: %v", results[1].Err)
	}
	quickDone, ok := log.doneAt("quick")
	if !ok {
		t.Fatal("no done event for quick sibling")
	}
	if waited := quickDone.Sub(start); waited > 25*time.Millisecond {
		t.Errorf("sibling waited %v on the stalled experiment", waited)
	}
	if s := Summarize(results); s.Stalled != 1 || s.Succeeded != 1 {
		t.Errorf("summary %+v, want 1 stalled + 1 succeeded", s)
	}
}

func TestDeadlineOverrunIsTransient(t *testing.T) {
	slow := entry("slow", func(ctx context.Context, _ *experiments.Session) experiments.Renderer {
		<-ctx.Done()
		panic(&parallel.AbortError{Err: ctx.Err()})
	})
	results, err := RunBatch(context.Background(), session(), []experiments.Entry{slow}, Config{
		Timeout:     20 * time.Millisecond,
		MaxAttempts: 1,
	})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if !errors.Is(results[0].Err, ErrTransient) {
		t.Errorf("deadline overrun classified %v, want ErrTransient", results[0].Err)
	}
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("deadline overrun does not expose context.DeadlineExceeded: %v", results[0].Err)
	}
}

func TestRecoveredPanicIsTransientAndRetrySucceeds(t *testing.T) {
	var calls atomic.Int64
	flaky := entry("flaky", func(context.Context, *experiments.Session) experiments.Renderer {
		if calls.Add(1) == 1 {
			panic("injected fault storm")
		}
		return okRenderer{"flaky"}
	})
	results, err := RunBatch(context.Background(), session(), []experiments.Entry{flaky}, Config{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if results[0].Err != nil {
		t.Fatalf("flaky experiment failed after retry: %v", results[0].Err)
	}
	if results[0].Attempts != 2 {
		t.Errorf("flaky took %d attempts, want 2", results[0].Attempts)
	}
}

func TestDeterministicPanicExhaustsBudget(t *testing.T) {
	var calls atomic.Int64
	bad := entry("bad", func(context.Context, *experiments.Session) experiments.Renderer {
		calls.Add(1)
		panic("impossible configuration")
	})
	results, err := RunBatch(context.Background(), session(), []experiments.Entry{bad}, Config{
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if !errors.Is(results[0].Err, ErrTransient) || !errors.Is(results[0].Err, experiments.ErrExperimentPanicked) {
		t.Errorf("got %v, want transient wrapping ErrExperimentPanicked", results[0].Err)
	}
	if calls.Load() != 3 {
		t.Errorf("ran %d attempts, want 3", calls.Load())
	}
}

func TestPermanentAbortIsNotRetried(t *testing.T) {
	var calls atomic.Int64
	diskFull := errors.New("journal: disk full")
	perm := entry("perm", func(context.Context, *experiments.Session) experiments.Renderer {
		calls.Add(1)
		panic(&parallel.AbortError{Err: diskFull})
	})
	results, err := RunBatch(context.Background(), session(), []experiments.Entry{perm}, Config{MaxAttempts: 3})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if !errors.Is(results[0].Err, ErrPermanent) {
		t.Errorf("non-cancellation abort classified %v, want ErrPermanent", results[0].Err)
	}
	if !errors.Is(results[0].Err, diskFull) {
		t.Errorf("cause lost: %v", results[0].Err)
	}
	if calls.Load() != 1 {
		t.Errorf("permanent failure ran %d times, want 1 (no retry)", calls.Load())
	}
}

func TestRootCancellationAbortsWithoutRetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	var calls atomic.Int64
	blocking := entry("block", func(c context.Context, _ *experiments.Session) experiments.Renderer {
		calls.Add(1)
		once.Do(func() { close(started) })
		<-c.Done()
		panic(&parallel.AbortError{Err: c.Err()})
	})
	// One worker: the second entry must never start once the root is
	// cancelled while the first blocks.
	never := entry("never", func(context.Context, *experiments.Session) experiments.Renderer {
		t.Error("entry ran after root cancellation")
		return okRenderer{"never"}
	})

	go func() {
		<-started
		cancel()
	}()
	results, err := RunBatch(ctx, session(), []experiments.Entry{blocking, never}, Config{
		Workers:     1,
		MaxAttempts: 3,
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunBatch returned %v, want context.Canceled", err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrAborted) {
			t.Errorf("%s classified %v, want ErrAborted", r.ID, r.Err)
		}
	}
	if calls.Load() != 1 {
		t.Errorf("aborted experiment ran %d times, want 1 (no retry on abort)", calls.Load())
	}
	if s := Summarize(results); s.Aborted != 2 {
		t.Errorf("summary %+v, want 2 aborted", s)
	}
}

func TestProgressFeedsWatchdog(t *testing.T) {
	// An experiment slower than the stall window in total, but reporting
	// progress faster than the window, must not be killed.
	steady := entry("steady", func(ctx context.Context, _ *experiments.Session) experiments.Renderer {
		progress := experiments.ProgressFrom(ctx)
		for i := 0; i < 8; i++ {
			time.Sleep(10 * time.Millisecond)
			progress(fmt.Sprintf("unit-%d", i))
		}
		return okRenderer{"steady"}
	})
	log := &eventLog{}
	results, err := RunBatch(context.Background(), session(), []experiments.Entry{steady}, Config{
		StallTimeout: 40 * time.Millisecond,
		MaxAttempts:  1,
		OnEvent:      log.add,
	})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if results[0].Err != nil {
		t.Fatalf("steady experiment killed: %v", results[0].Err)
	}
	if got := log.count(EventProgress, "steady"); got != 8 {
		t.Errorf("saw %d progress events, want 8", got)
	}
}

func TestBackoffScheduleIsSeededAndCapped(t *testing.T) {
	log := &eventLog{}
	fail := entry("always", func(context.Context, *experiments.Session) experiments.Renderer {
		panic("nope")
	})
	cfg := Config{
		MaxAttempts: 4,
		BackoffBase: time.Millisecond,
		BackoffMax:  3 * time.Millisecond,
		Seed:        42,
		OnEvent:     log.add,
	}
	if _, err := RunBatch(context.Background(), session(), []experiments.Entry{fail}, cfg); err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	var first []time.Duration
	log.mu.Lock()
	for _, ev := range log.events {
		if ev.Kind == EventRetry {
			first = append(first, ev.Backoff)
			if ev.Backoff <= 0 || ev.Backoff > cfg.BackoffMax {
				t.Errorf("backoff %v outside (0, %v]", ev.Backoff, cfg.BackoffMax)
			}
		}
	}
	log.mu.Unlock()
	if len(first) != 3 {
		t.Fatalf("saw %d retries, want 3", len(first))
	}

	// Same seed: identical schedule.
	log2 := &eventLog{}
	cfg.OnEvent = log2.add
	if _, err := RunBatch(context.Background(), session(), []experiments.Entry{fail}, cfg); err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	var second []time.Duration
	log2.mu.Lock()
	for _, ev := range log2.events {
		if ev.Kind == EventRetry {
			second = append(second, ev.Backoff)
		}
	}
	log2.mu.Unlock()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("backoff %d differs across equally-seeded runs: %v vs %v", i, first[i], second[i])
		}
	}
}

// TestBackoffMonotoneCappedAtHighAttempts is the regression property for
// the backoff shift overflow: base<<(attempt-1) wrapped negative past
// attempt ~40, handing time.Sleep a negative duration (no backoff at
// all) deep into a long retry storm. The schedule must be positive,
// monotone nondecreasing, capped at max, and exactly max once saturated —
// at every attempt count, not just small ones.
func TestBackoffMonotoneCappedAtHighAttempts(t *testing.T) {
	cases := []struct{ base, max time.Duration }{
		{time.Millisecond, 30 * time.Second},
		{time.Second, 5 * time.Minute},
		{time.Nanosecond, time.Duration(1) << 62}, // cap never reached by doubling before overflow
		{250 * time.Millisecond, 250 * time.Millisecond},
	}
	for _, tc := range cases {
		prev := time.Duration(0)
		saturated := false
		for attempt := 1; attempt <= 500; attempt++ {
			b := backoffFor(tc.base, tc.max, attempt)
			if b <= 0 {
				t.Fatalf("base=%v max=%v attempt=%d: backoff %v not positive (overflow regression)",
					tc.base, tc.max, attempt, b)
			}
			if b > tc.max {
				t.Fatalf("base=%v max=%v attempt=%d: backoff %v above cap", tc.base, tc.max, attempt, b)
			}
			if b < prev {
				t.Fatalf("base=%v max=%v attempt=%d: backoff %v < previous %v (not monotone)",
					tc.base, tc.max, attempt, b, prev)
			}
			if saturated && b != tc.max {
				t.Fatalf("base=%v max=%v attempt=%d: backoff %v fell below cap after saturating",
					tc.base, tc.max, attempt, b)
			}
			if b == tc.max {
				saturated = true
			}
			prev = b
		}
		if !saturated {
			t.Fatalf("base=%v max=%v: schedule never reached its cap in 500 attempts", tc.base, tc.max)
		}
	}

	// Randomized property sweep over base/max pairs.
	rng := rand.New(rand.NewSource(20260805))
	for i := 0; i < 200; i++ {
		base := time.Duration(1 + rng.Int63n(int64(10*time.Second)))
		max := base + time.Duration(rng.Int63n(int64(10*time.Minute)))
		prev := time.Duration(0)
		for _, attempt := range []int{1, 2, 3, 7, 40, 63, 64, 65, 100, 499} {
			b := backoffFor(base, max, attempt)
			if b <= 0 || b > max || b < prev {
				t.Fatalf("base=%v max=%v attempt=%d: backoff %v violates (0, max] monotone", base, max, attempt, b)
			}
			prev = b
		}
		if got := backoffFor(base, max, 499); got != max {
			t.Fatalf("base=%v max=%v: attempt 499 gives %v, want saturation at max", base, max, got)
		}
	}
}

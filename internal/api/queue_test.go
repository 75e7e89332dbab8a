package api

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// mkQueued builds a bare queued job for pickBest-level tests — no server,
// no store, just the fields the scheduler reads.
func mkQueued(id, priority string, created time.Time) *job {
	return &job{
		id:      id,
		spec:    JobSpec{Priority: priority},
		created: created,
	}
}

// TestPickBestAgingBoundsStarvation simulates the adversarial schedule the
// aging budget exists for: one bulk job waiting while a fresh interactive
// job arrives every tick, forever. Without aging the bulk job starves
// indefinitely; with aging it must be picked within its aging budget —
// rankBulk*AgeAfter, the point its effective rank reaches 0 and queue
// seniority breaks the tie against every younger interactive arrival.
func TestPickBestAgingBoundsStarvation(t *testing.T) {
	const ageAfter = 10 * time.Second
	t0 := time.Unix(1_700_000_000, 0)

	run := func(age time.Duration, ticks int) (picked bool, waited time.Duration) {
		bulk := mkQueued("j000001", PriorityBulk, t0)
		queue := []*job{bulk}
		for i := 0; i < ticks; i++ {
			now := t0.Add(time.Duration(i) * time.Second)
			queue = append(queue, mkQueued(fmt.Sprintf("j%06d", i+2), PriorityInteractive, now))
			k := pickBest(queue, now, age)
			if k < 0 {
				t.Fatalf("tick %d: empty pick from non-empty queue", i)
			}
			if queue[k] == bulk {
				return true, now.Sub(t0)
			}
			queue = append(queue[:k], queue[k+1:]...)
		}
		return false, 0
	}

	budget := time.Duration(rankBulk) * ageAfter
	picked, waited := run(ageAfter, 100)
	if !picked {
		t.Fatal("bulk job starved despite aging")
	}
	if waited > budget {
		t.Fatalf("bulk job waited %s, beyond the aging budget %s", waited, budget)
	}

	// Control: aging disabled (<= 0) reproduces the starvation the budget
	// prevents — this is the failure mode, pinned so the test means
	// something.
	if picked, _ := run(0, 100); picked {
		t.Fatal("bulk job was picked with aging disabled and a constant interactive stream; the starvation control is broken")
	}
}

// TestPickBestIsMinimal drives pickBest with seeded random queues and
// checks the pick is always a true minimum of (effectiveRank, created,
// id) — the ordering contract everything above the queue relies on.
func TestPickBestIsMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prios := []string{PriorityInteractive, PriorityBatch, PriorityBulk, ""}
	now := time.Unix(1_700_000_000, 0)
	const ageAfter = 7 * time.Second

	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		queue := make([]*job, 0, n)
		for i := 0; i < n; i++ {
			queue = append(queue, mkQueued(
				fmt.Sprintf("j%06d", rng.Intn(20)),
				prios[rng.Intn(len(prios))],
				now.Add(-time.Duration(rng.Intn(120))*time.Second),
			))
		}
		got := pickBest(queue, now, ageAfter)
		if got < 0 || got >= len(queue) {
			t.Fatalf("trial %d: pick %d out of range", trial, got)
		}
		g := queue[got]
		gr := effectiveRank(g, now, ageAfter)
		for i, jb := range queue {
			r := effectiveRank(jb, now, ageAfter)
			if r < gr ||
				(r == gr && jb.created.Before(g.created)) ||
				(r == gr && jb.created.Equal(g.created) && jb.id < g.id) {
				t.Fatalf("trial %d: picked %s (rank %d, at %s) but %d: %s (rank %d, at %s) orders first",
					trial, g.id, gr, g.created, i, jb.id, r, jb.created)
			}
		}
	}
}

// TestEffectiveRankClamps pins the aging arithmetic's edges: rank never
// goes negative, a zero admission time never ages, and interactive stays 0.
func TestEffectiveRankClamps(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	old := mkQueued("j000001", PriorityBulk, now.Add(-time.Hour))
	if r := effectiveRank(old, now, time.Second); r != 0 {
		t.Fatalf("hour-old bulk at 1s aging: rank %d, want clamped 0", r)
	}
	unset := mkQueued("j000002", PriorityBulk, time.Time{})
	if r := effectiveRank(unset, now, time.Second); r != rankBulk {
		t.Fatalf("zero admission time must not age: rank %d, want %d", r, rankBulk)
	}
	ia := mkQueued("j000003", PriorityInteractive, now.Add(-time.Hour))
	if r := effectiveRank(ia, now, time.Second); r != 0 {
		t.Fatalf("interactive rank %d, want 0", r)
	}
}

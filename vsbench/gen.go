package main

import (
	"sync"
	"time"
)

// lateLimit is how late the open-loop generator may hand out a request
// before the run is rejected: beyond it, the generator has fallen behind
// its schedule and the offered load is no longer the stated rate.
const lateLimit = time.Second

// openLoop sends requests at their due times, offsets in seconds from
// start, from `workers` goroutines (the benchmark's nproc connections). A
// request waits for a free worker when all are busy; that wait is part of
// its latency, because every latency is timed from the due time. do runs
// on a worker goroutine. openLoop returns once every request has
// completed, with each request's lateness (start of send minus due time).
func openLoop(start time.Time, at []float64, workers int, do func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, len(at))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				due := start.Add(seconds(at[i]))
				late[i] = time.Since(due)
				do(i, due)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
	for i := range at {
		if d := time.Until(start.Add(seconds(at[i]))); d > 0 {
			timer.Reset(d)
			<-timer.C
		}
		next <- i
	}
	close(next)
	wg.Wait()
	return late
}

// closedLoop runs n requests from `workers` goroutines, each sending its
// next request as soon as its previous one completes, and returns the
// moment each request completed, in completion order.
func closedLoop(n, workers int, do func(i int)) []time.Time {
	var mu sync.Mutex
	done := make([]time.Time, 0, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				do(i)
				mu.Lock()
				done = append(done, time.Now())
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return done
}

// chunkRates splits a closed loop's completions into chunks equal-count
// chunks and returns each chunk's completions per second, so one stall
// (a GC cycle, a slow fsync) moves one chunk rather than the whole rate.
func chunkRates(start time.Time, done []time.Time, chunks int) []float64 {
	var rates []float64
	prev := start
	size := len(done) / chunks
	for c := 1; c <= chunks && size > 0; c++ {
		end := done[c*size-1]
		rates = append(rates, float64(size)/end.Sub(prev).Seconds())
		prev = end
	}
	return rates
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Workload sizes. Each is fixed, so every run of a workload offers the
// same load; --seconds sets the length of the measured windows.
const (
	// cachedRate is the open-loop submission rate of the cached workload,
	// which runs for half of --seconds.
	cachedRate = 40.0
	// cachedClosedPerSecond sizes the closed-loop phase: this many
	// submissions per second of --seconds, however long they take.
	cachedClosedPerSecond = 20
	// closedChunks splits the closed loop for max_rps, the median of the
	// chunks' completion rates.
	closedChunks = 10
	// historyJobs is the finished-job history the cached store boots over.
	historyJobs = 500
	// perTenant bounds the submissions of one X-Client ID per run, below
	// the server's default quota burst of 5, so no submission is refused.
	perTenant = 4
	// tenantsRate is the job arrival rate of the tenants workload over an
	// arrival window of --seconds; coldShare of the arrivals are cold.
	tenantsRate = 5.0
	// pollEvery is how often the tenants client polls outstanding jobs.
	pollEvery = 25 * time.Millisecond
	// drainLimit bounds the wait for tenants' jobs after the window.
	drainLimit = 90 * time.Second
	// backlogSlack is how far the tenants backlog may grow between the
	// second and the last quarter of the window before the run is
	// rejected as overloaded.
	backlogSlack = 4.0
)

// campaign posts one cold all@quick job to an idle server and follows its
// SSE stream to the result frame. Each set-up boot posts the same job to
// its own empty store, so submit latency has one sample per boot; the
// last boot's job runs to completion.
func (p *pass) campaign() error {
	spec := campaignSpec
	spec.Seed = p.seed
	tenant := fmt.Sprintf("campaign-%d", p.seed)
	for i := 0; i < setupBoots; i++ {
		srv, err := p.boot(p.newStore())
		if err != nil {
			return err
		}
		last := i == setupBoots-1
		if last {
			if kb, err := srv.procKB("VmRSS"); err == nil {
				p.bootRSSMB = kb / 1024
			}
		}
		c := newClient(srv.base, p.conns)
		due := time.Now()
		p.s.add("late_ms", ms(time.Since(due)))
		p.attempted.Add(1)
		a, err := p.submit(c, spec, tenant)
		if err != nil {
			p.fail("submit campaign: %v", err)
		} else {
			p.s.add("submit_ms", ms(time.Since(due)))
		}
		if !last || err != nil {
			c.close()
			srv.kill()
			continue
		}
		stopPolls := p.pollDuring(c, a.ID, 500*time.Millisecond)
		res, at, err := c.watch(p.ctx, a.ID)
		stopPolls()
		if err != nil {
			p.fail("campaign %s: %v", a.ID, err)
		} else {
			done := at.Sub(due)
			p.s.add("done_s", done.Seconds())
			p.jobsPerS = 1 / done.Seconds()
			p.verify(spec, res)
		}
		p.finish(c, srv)
		if p.traced && err == nil {
			p.traceJob(c, a.ID, due, at, true)
			for j := 0; j < 5; j++ {
				if _, err := p.result(c, a.ID); err != nil {
					p.problem("result %s: %v", a.ID, err)
				}
			}
		}
		c.close()
		srv.stop()
	}
	return nil
}

// pollDuring polls a job's status every interval on traced passes, so
// http.status_ms sees the server under the job's load. The returned
// function stops the poller and waits for it.
func (p *pass) pollDuring(c *client, id string, interval time.Duration) func() {
	if !p.traced {
		return func() {}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				p.status(c, id)
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
	}
}

// cached boots over a copied store history whose cache already holds
// every popular spec, then submits popular specs: first open-loop at a
// fixed rate, each submission followed by a result fetch, then
// closed-loop from nproc clients.
func (p *pass) cached() error {
	tmpl, err := p.historyTemplate()
	if err != nil {
		return err
	}
	store := p.newStore()
	if err := copyTree(tmpl, store); err != nil {
		return fmt.Errorf("copy history: %w", err)
	}
	// Write the copy back before timing, so the measured fsyncs do not
	// queue behind it.
	syscall.Sync()
	srv, err := p.bootMeasured(store)
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base, p.conns)
	defer c.close()

	n1 := int(math.Ceil(cachedRate * float64(p.seconds) / 2))
	n2 := cachedClosedPerSecond * p.seconds
	pool := newTenantPool("tenant", n1+n2, perTenant)
	tenants := make([]string, n1+n2)
	for i := range tenants {
		tenants[i] = pool.id()
	}
	// hit submits one popular spec and fetches its result, which the
	// cache makes available at once.
	hit := func(spec jobSpec, tenant string, due time.Time, open bool) {
		p.attempted.Add(1)
		a, err := p.submit(c, spec, tenant)
		if err != nil {
			p.fail("submit %s: %v", spec.key(), err)
			return
		}
		if open {
			p.s.add("submit_ms", ms(time.Since(due)))
		}
		res, err := p.result(c, a.ID)
		if err != nil {
			p.fail("result %s: %v", a.ID, err)
			return
		}
		seen := time.Now()
		if open {
			p.s.add("done_s", seen.Sub(due).Seconds())
		}
		p.verify(spec, res)
		if p.traced && open {
			if st, err := p.status(c, a.ID); err == nil {
				p.observe(st)
				p.s.add("observe_lag_ms", ms(seen.Sub(time.Unix(0, st.FinishedUnixNS))))
			}
		}
	}

	arr := cachedArrivals(p.seed, cachedRate, n1)
	at := make([]float64, len(arr))
	for i, a := range arr {
		at[i] = a.at
	}
	late := openLoop(time.Now(), at, p.conns, func(i int, due time.Time) {
		hit(arr[i].spec, tenants[i], due, true)
	})
	p.checkLate(late)

	specs := closedLoopSpecs(p.seed, n2)
	start := time.Now()
	done := closedLoop(n2, p.conns, func(i int) {
		hit(specs[i], tenants[n1+i], time.Now(), false)
	})
	p.jobsPerS = median(chunkRates(start, done, closedChunks))
	p.finish(c, srv)
	if p.traced {
		p.probeJob(c)
	}
	return nil
}

// checkLate records the generator's lateness and rejects the run if it
// fell behind its schedule.
func (p *pass) checkLate(late []time.Duration) {
	worst := time.Duration(0)
	for _, l := range late {
		p.s.add("late_ms", ms(l))
		worst = max(worst, l)
	}
	if worst > lateLimit {
		p.problem("generator fell behind: a request went out %s after its due time (limit %s)", worst, lateLimit)
	}
}

// tenants offers Poisson arrivals of popular and cold specs at mixed
// priorities and sees each job finish by polling its status.
func (p *pass) tenants() error {
	srv, err := p.bootMeasured(p.newStore())
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base, p.conns)
	defer c.close()

	window := float64(p.seconds)
	arr := tenantsArrivals(p.seed, int(math.Round(tenantsRate*window)), window)
	pool := newTenantPool("tenant", len(arr), perTenant)
	tenants := make([]string, len(arr))
	for i := range tenants {
		tenants[i] = pool.id()
	}

	type pending struct {
		spec    jobSpec
		due     time.Time
		popular bool
	}
	var (
		mu          sync.Mutex
		outstanding = map[string]pending{}
		backlog     []struct{ at, n float64 }
		lastSeen    time.Time
		completed   int
	)
	start := time.Now()
	complete := func(id string, pd pending, st jobStatus, seen time.Time) {
		res, err := p.result(c, id)
		if err != nil {
			p.fail("result %s: %v", id, err)
			return
		}
		p.verify(pd.spec, res)
		if !pd.popular {
			p.s.add("done_s", seen.Sub(pd.due).Seconds())
			p.s.add("preemptions", float64(st.Preemptions))
		}
		p.observe(st)
		if p.traced {
			p.s.add("observe_lag_ms", ms(seen.Sub(time.Unix(0, st.FinishedUnixNS))))
		}
		mu.Lock()
		completed++
		if seen.After(lastSeen) {
			lastSeen = seen
		}
		mu.Unlock()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			mu.Lock()
			ids := make([]string, 0, len(outstanding))
			for id := range outstanding {
				ids = append(ids, id)
			}
			if t := time.Since(start).Seconds(); t < window {
				backlog = append(backlog, struct{ at, n float64 }{t, float64(len(ids))})
			}
			mu.Unlock()
			sort.Strings(ids)
			for _, id := range ids {
				st, err := p.status(c, id)
				if err == nil && !terminal(st.State) {
					continue
				}
				seen := time.Now()
				mu.Lock()
				pd := outstanding[id]
				delete(outstanding, id)
				mu.Unlock()
				if err != nil {
					p.fail("status %s: %v", id, err)
					continue
				}
				complete(id, pd, st, seen)
			}
		}
	}()

	at := make([]float64, len(arr))
	for i, a := range arr {
		at[i] = a.at
	}
	late := openLoop(start, at, p.conns, func(i int, due time.Time) {
		spec := arr[i].spec
		p.attempted.Add(1)
		a, err := p.submit(c, spec, tenants[i])
		if err != nil {
			p.fail("submit %s: %v", spec.key(), err)
			return
		}
		p.s.add("submit_ms", ms(time.Since(due)))
		if terminal(a.State) {
			// Served from the cache at admission.
			st, err := p.status(c, a.ID)
			if err != nil {
				p.fail("status %s: %v", a.ID, err)
				return
			}
			complete(a.ID, pending{spec, due, arr[i].popular}, st, time.Now())
			return
		}
		mu.Lock()
		outstanding[a.ID] = pending{spec, due, arr[i].popular}
		mu.Unlock()
	})
	p.checkLate(late)

	deadline := time.Now().Add(drainLimit)
	for {
		mu.Lock()
		n := len(outstanding)
		mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			p.problem("%d jobs still unfinished %s after the arrival window", n, drainLimit)
			p.failed.Add(int64(n))
			break
		}
		time.Sleep(pollEvery)
	}
	close(stop)
	wg.Wait()

	if growth := backlogGrowth(backlog); growth > backlogSlack {
		p.problem("backlog still growing at the end of the arrival window: +%.1f jobs from the second to the last quarter", growth)
	}
	if completed > 0 {
		p.jobsPerS = float64(completed) / lastSeen.Sub(start).Seconds()
	}
	p.finish(c, srv)
	if p.traced {
		p.probeJob(c)
	}
	return nil
}

// backlogGrowth compares the mean outstanding-job count of the last
// quarter of the arrival window with that of the second quarter.
func backlogGrowth(samples []struct{ at, n float64 }) float64 {
	if len(samples) == 0 {
		return 0
	}
	end := samples[len(samples)-1].at
	mean := func(lo, hi float64) float64 {
		s, k := 0.0, 0
		for _, x := range samples {
			if x.at >= lo*end && x.at < hi*end {
				s += x.n
				k++
			}
		}
		if k == 0 {
			return 0
		}
		return s / float64(k)
	}
	return mean(0.75, 1.01) - mean(0.25, 0.5)
}

// probeJob ends a traced cached or tenants pass with one cold all@tiny
// job followed over SSE, so those workloads also report per-experiment
// spans and the SSE result lag.
func (p *pass) probeJob(c *client) {
	spec := probeSpec
	spec.Seed = p.seed
	p.attempted.Add(1)
	a, err := p.submit(c, spec, "probe")
	if err != nil {
		p.fail("submit probe: %v", err)
		return
	}
	res, at, err := c.watch(p.ctx, a.ID)
	if err != nil {
		p.fail("probe %s: %v", a.ID, err)
		return
	}
	p.verify(spec, res)
	p.traceJob(c, a.ID, time.Time{}, at, false)
}

// traceJob turns a finished job's status and event dump into spans: the
// job from creation to finish, and each experiment from its run.start to
// its run.done. A workload job's status also feeds the api.* metrics.
func (p *pass) traceJob(c *client, id string, due, resultAt time.Time, workloadJob bool) {
	st, err := p.status(c, id)
	if err != nil {
		p.problem("status %s: %v", id, err)
		return
	}
	if workloadJob {
		p.observe(st)
	}
	evs, err := c.events(p.ctx, id)
	if err != nil {
		p.problem("events %s: %v", id, err)
		return
	}
	finished := time.Unix(0, st.FinishedUnixNS)
	p.s.add("sse_lag_ms", ms(resultAt.Sub(finished)))
	if workloadJob {
		// The campaign client sees its job finish through the SSE frame.
		p.s.add("observe_lag_ms", ms(resultAt.Sub(finished)))
	}
	job := p.tr.record("job", id, time.Unix(0, st.CreatedUnixNS), finished)
	starts := map[string]int64{}
	var runs float64
	var firstStart, lastDone int64
	for _, ev := range evs {
		switch ev.Kind {
		case "run.start":
			starts[ev.ID] = ev.T
			if firstStart == 0 {
				firstStart = ev.T
			}
		case "run.done":
			if t0, ok := starts[ev.ID]; ok {
				p.tr.recordChild(job, "exp.run/"+ev.ID, id, time.Unix(0, t0), time.Unix(0, ev.T))
				d := float64(ev.T-t0) / 1e9
				p.s.add("exp_s."+ev.ID, d)
				runs += d
				lastDone = ev.T
			}
		}
	}
	if !due.IsZero() && firstStart != 0 {
		// The blocking chain of the campaign: admission, the wait before
		// the first experiment, the experiments one after another, the
		// gaps between them, and the publish of the result frame.
		total := resultAt.Sub(due).Seconds()
		admit := time.Unix(0, st.CreatedUnixNS).Sub(due).Seconds()
		wait := float64(firstStart-st.CreatedUnixNS) / 1e9
		publish := resultAt.Sub(time.Unix(0, lastDone)).Seconds()
		fmt.Printf("traced accounting %s %.3f s = admission %.4f + queue %.4f + experiments %.3f + gaps %.4f + publish %.4f\n",
			id, total, admit, wait, runs, total-admit-wait-runs-publish, publish)
	}
}

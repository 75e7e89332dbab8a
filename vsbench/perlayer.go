package main

import (
	"fmt"
	"time"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/uarch"
)

// perLayerDefs lists the traced run's metrics, in BENCHMARK.json order.
var perLayerDefs = func() []metricDef {
	defs := []metricDef{
		{"pdn.step_cycle_ns", "ns", "lower", 0},
		{"uarch.cycle_ns", "ns", "lower", 0},
		{"uarch.cycle_allocs", "allocs/op", "lower", 0},
		{"workload.next_ns", "ns", "lower", 0},
		{"core.pair_ns_per_cycle", "ns/cycle", "lower", 0},
		{"experiments.corpus_s.Proc100", "s", "lower", 0},
		{"experiments.corpus_s.Proc25", "s", "lower", 0},
		{"experiments.corpus_s.Proc3", "s", "lower", 0},
		{"sched.pair_table_s", "s", "lower", 0},
		{"parallel.efficiency", "ratio", "higher", 0},
	}
	for _, e := range experiments.All() {
		defs = append(defs, metricDef{"experiments.run_s." + e.ID, "s", "lower", 0})
	}
	return append(defs, []metricDef{
		{"sim.cycles", "count", "lower", 0},
		{"exp.units", "count", "lower", 0},
		{"sched.cells", "count", "lower", 0},
		{"runner.retry_share", "ratio", "lower", 0},
		{"journal.record_us_p50", "us", "lower", 0},
		{"journal.record_us_p99", "us", "lower", 0},
		{"journal.open_ms", "ms", "lower", 0},
		{"journal.replay_share", "ratio", "lower", 0},
		{"store.allocate_id_us_p50", "us", "lower", 0},
		{"store.allocate_id_us_p99", "us", "lower", 0},
		{"store.create_job_us_p50", "us", "lower", 0},
		{"store.create_job_us_p99", "us", "lower", 0},
		{"store.write_result_us_p50", "us", "lower", 0},
		{"store.write_result_us_p99", "us", "lower", 0},
		{"store.scan_s", "s", "lower", 0},
		{"cache.lookup_us_p50", "us", "lower", 0},
		{"cache.lookup_us_p99", "us", "lower", 0},
		{"cache.write_us_p50", "us", "lower", 0},
		{"api.cache_hit_ratio", "ratio", "higher", 0},
		{"lease.claim_us_p50", "us", "lower", 0},
		{"lease.claim_us_p99", "us", "lower", 0},
		{"lease.renew_us_p50", "us", "lower", 0},
		{"lease.guard_us_p50", "us", "lower", 0},
		{"lease.release_us_p50", "us", "lower", 0},
		{"api.queue_wait_ms_p50", "ms", "lower", 0},
		{"api.queue_wait_ms_p90", "ms", "lower", 0},
		{"api.queue_wait_ms_p90.interactive", "ms", "lower", 0},
		{"api.queue_wait_ms_p90.batch", "ms", "lower", 0},
		{"api.queue_wait_ms_p90.bulk", "ms", "lower", 0},
		{"api.run_s_p50", "s", "lower", 0},
		{"api.run_s_p90", "s", "lower", 0},
		{"api.preemptions", "count", "lower", 0},
		{"api.cache_followed", "count", "higher", 0},
		{"api.observe_lag_ms_p50", "ms", "lower", 0},
		{"sse.result_lag_ms", "ms", "lower", 0},
		{"api.boot_rss_mb", "MB", "lower", 0},
		{"api.rss_per_job_kb", "KB", "lower", 0},
		{"http.status_ms_p50", "ms", "lower", 0},
		{"http.result_ms_p99", "ms", "lower", 0},
		{"api.rejected", "count", "lower", 0},
		{"gen.late_ms_max", "ms", "lower", 0},
		{"trace.overhead", "ratio", "lower", 0},
	}...)
}()

// perLayer computes the per-layer metrics of a traced pass; base is the
// untraced pass of the same seed, for the tracing overhead.
func (p *pass) perLayer(base *pass) map[string]measured {
	out := map[string]measured{}
	fromDist := func(name string, d *dist, q float64) {
		m := measured{value: d.pct(q), n: d.n()}
		if d.n() == 0 {
			m.note = " (not exercised by this workload)"
		}
		out[name] = m
	}
	spans := func(name, span string, unit time.Duration, q float64) {
		fromDist(name, p.tr.durations(span, unit), q)
	}
	sample := func(name, sample string, q float64) { fromDist(name, p.s.get(sample), q) }

	for _, name := range []string{"pdn.step_cycle_ns", "uarch.cycle_ns", "workload.next_ns", "uarch.cycle_allocs",
		"core.pair_ns_per_cycle", "experiments.corpus_s.Proc100", "experiments.corpus_s.Proc25",
		"experiments.corpus_s.Proc3", "sched.pair_table_s", "parallel.efficiency"} {
		sample(name, name, 50)
	}
	for _, e := range experiments.All() {
		sample("experiments.run_s."+e.ID, "exp_s."+e.ID, 50)
	}

	c := p.snap.Counters
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	counter := func(name string, v float64) { out[name] = measured{value: v, n: 1} }
	counter("sim.cycles", float64(c["pdn.steps"])/float64(uarch.DefaultConfig().Substeps))
	counter("exp.units", float64(c["exp.units"]))
	counter("sched.cells", float64(c["sched.cells"]))
	counter("runner.retry_share", ratio(c["runner.retries"], c["runner.attempts"]))
	counter("journal.replay_share", ratio(c["journal.replays"], c["journal.appends"]+c["journal.replays"]))
	counter("api.cache_hit_ratio", ratio(c["api.cache_hits"], c["api.cache_hits"]+c["api.cache_misses"]))
	counter("api.preemptions", float64(c["api.jobs_preempted"]))
	counter("api.cache_followed", float64(c["api.cache_followed"]))
	counter("api.rejected", float64(c["api.jobs_rejected"]+c["api.jobs_unavailable"]))

	spans("journal.record_us_p50", "journal.record", time.Microsecond, 50)
	spans("journal.record_us_p99", "journal.record", time.Microsecond, 99)
	spans("journal.open_ms", "journal.open", time.Millisecond, 50)
	for _, op := range []string{"allocate_id", "create_job", "write_result"} {
		spans("store."+op+"_us_p50", "store."+op, time.Microsecond, 50)
		spans("store."+op+"_us_p99", "store."+op, time.Microsecond, 99)
	}
	spans("store.scan_s", "store.scan", time.Second, 50)
	spans("cache.lookup_us_p50", "cache.lookup", time.Microsecond, 50)
	spans("cache.lookup_us_p99", "cache.lookup", time.Microsecond, 99)
	spans("cache.write_us_p50", "cache.write", time.Microsecond, 50)
	spans("lease.claim_us_p50", "lease.claim", time.Microsecond, 50)
	spans("lease.claim_us_p99", "lease.claim", time.Microsecond, 99)
	for _, op := range []string{"renew", "guard", "release"} {
		spans("lease."+op+"_us_p50", "lease."+op, time.Microsecond, 50)
	}
	spans("http.status_ms_p50", "http.status", time.Millisecond, 50)
	spans("http.result_ms_p99", "http.result", time.Millisecond, 99)

	// Queue wait and run time come from the workload jobs' own statuses.
	waits := map[string]*dist{"": {}, "interactive": {}, "batch": {}, "bulk": {}}
	runs := &dist{}
	for _, st := range p.statuses {
		if st.StartedUnixNS == 0 {
			continue
		}
		w := float64(st.StartedUnixNS-st.CreatedUnixNS) / 1e6
		waits[""].add(w)
		if d := waits[st.Spec.Priority]; d != nil {
			d.add(w)
		}
		if !st.Cached && st.FinishedUnixNS != 0 {
			runs.add(float64(st.FinishedUnixNS-st.StartedUnixNS) / 1e9)
		}
	}
	fromDist("api.queue_wait_ms_p50", waits[""], 50)
	fromDist("api.queue_wait_ms_p90", waits[""], 90)
	for _, class := range []string{"interactive", "batch", "bulk"} {
		fromDist("api.queue_wait_ms_p90."+class, waits[class], 90)
	}
	fromDist("api.run_s_p50", runs, 50)
	fromDist("api.run_s_p90", runs, 90)
	sample("api.observe_lag_ms_p50", "observe_lag_ms", 50)
	sample("sse.result_lag_ms", "sse_lag_ms", 50)

	counter("api.boot_rss_mb", p.bootRSSMB)
	perJob := 0.0
	if p.admitted > 0 {
		perJob = (p.peakRSSMB - p.bootRSSMB) * 1024 / float64(p.admitted)
	}
	out["api.rss_per_job_kb"] = measured{value: perJob, n: int(p.admitted),
		note: fmt.Sprintf(" (peak %.1f MB - boot %.1f MB over %d admitted jobs)", p.peakRSSMB, p.bootRSSMB, p.admitted)}

	late := p.s.get("late_ms")
	out["gen.late_ms_max"] = measured{value: late.max(), n: late.n()}
	traced, untraced := p.s.get("done_s").pct(50), base.s.get("done_s").pct(50)
	overhead := 0.0
	if untraced > 0 {
		overhead = traced/untraced - 1
	}
	out["trace.overhead"] = measured{value: overhead, n: 2,
		note: fmt.Sprintf(" (done_p50_s traced %.6g vs untraced %.6g)", traced, untraced)}
	return out
}

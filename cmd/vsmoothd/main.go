// Command vsmoothd is the long-lived campaign service over the voltage-
// smoothing reproduction: the CLI campaign (cmd/vsmooth) turned into a
// crash-recovering, multi-tenant HTTP server. Clients POST campaign jobs;
// the server admits them through per-client token quotas and a bounded
// queue with explicit backpressure, executes them on the batch supervisor
// with per-job journals, and streams progress and event traces while they
// run. A SIGKILLed server recovers on restart by scanning its job store:
// finished jobs are served from their persisted results, interrupted ones
// resume from their journals bit-identically. SIGINT/SIGTERM drains
// gracefully — new admissions get 503, /readyz flips, running jobs get
// -drain-timeout to finish before checkpoint-and-stop — and the process
// exits 128+signum, like the CLI.
//
// See DESIGN §10 for the service architecture and README for a curl
// walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"syscall"
	"time"

	"voltsmooth/internal/api"
	"voltsmooth/internal/chaos"
	"voltsmooth/internal/durable"
	"voltsmooth/internal/sigctx"
	"voltsmooth/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("vsmoothd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8431", "listen address")
		store        = fs.String("store", "", "job store directory (required; holds job records, journals, results)")
		queueCap     = fs.Int("queue", 16, "admission queue capacity; a full queue refuses submissions with 429")
		jobWorkers   = fs.Int("job-workers", 2, "how many jobs execute concurrently")
		sessWorkers  = fs.Int("workers", 4, "default per-job measurement-sweep fan-out (spec may override)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for running jobs before checkpoint-and-stop")
		quotaRate    = fs.Float64("quota-rate", 1, "per-client admission rate in jobs/second (0 disables quotas)")
		quotaBurst   = fs.Int("quota-burst", 5, "per-client admission burst")
		jobTimeout   = fs.Duration("job-timeout", 0, "default whole-job deadline (0 = none; spec timeout_ms overrides)")
		expTimeout   = fs.Duration("exp-timeout", 0, "per-experiment, per-attempt deadline (0 = none)")
		retries      = fs.Int("retries", 3, "attempt budget per experiment (first run + retries)")
		stallTimeout = fs.Duration("stall-timeout", 0, "per-attempt stall watchdog (0 = off); must exceed every experiment's longest stretch without progress (ext1 reports none until it ends: up to 2.6s at quick scale on 2 vCPUs)")

		// The cross-tenant result cache + SSE streaming (DESIGN §12).
		cache        = fs.Bool("cache", true, "serve identical specs from the cross-tenant result cache (<store>/cache) and dedup identical in-flight jobs")
		cacheMax     = fs.Int("cache-max", 0, "bound the result cache at N fingerprints, oldest evicted first (0 = unbounded)")
		sseHeartbeat = fs.Duration("sse-heartbeat", 15*time.Second, "comment-heartbeat cadence of /jobs/{id}/events SSE streams")

		// Priority scheduling + overload shedding (DESIGN §13).
		preempt       = fs.Bool("preempt", true, "preempt the lowest-priority running job (at a run boundary, checkpointed) when a higher-priority job arrives and all slots are busy")
		ageAfter      = fs.Duration("age-after", 30*time.Second, "queue aging quantum: a waiting job's effective priority improves one class per this much wait")
		shedWatermark = fs.Int("shed-watermark", 0, "queue depth past which bulk submissions are shed with 429 (0 = 3/4 of -queue)")

		// Every server runs its jobs under durable per-job leases: any number
		// of vsmoothd processes may share one -store (DESIGN §11).
		workerID     = fs.String("worker-id", "", "this server's unique identity in job leases on the -store (default <hostname>-<pid>)")
		leaseTTL     = fs.Duration("lease-ttl", 3*time.Second, "job-lease TTL: how long the jobs of a dead server wait before a peer or its restart resumes them")
		scanInterval = fs.Duration("scan-interval", 0, "how often the server scans the -store for jobs to claim and results to adopt (0 = lease-ttl/3)")

		// Store maintenance: -fsck scrubs and exits instead of serving.
		fsck       = fs.Bool("fsck", false, "scrub the store for crash debris (tmp orphans, stale lock sidecars, torn cache entries), report, and exit")
		fsckRepair = fs.Bool("fsck-repair", false, "with -fsck: also remove what is provably safe to remove")

		// chaosKillAtOp is the deterministic crash point of the kill e2e
		// tests: the Nth operation drawn by the chaos plane (journal and
		// lease ops) SIGKILLs this process — no cleanup, no flush, exactly
		// the failure mode the journal and lease layers are built to
		// survive. Production runs leave it 0.
		chaosKillAtOp = fs.Int64("chaos-kill-at-op", 0, "TESTING: SIGKILL this process at the Nth chaos-plane fs op, counting journal and lease ops (0 = off)")
	)
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *store == "" {
		fmt.Fprintln(os.Stderr, "vsmoothd: -store is required")
		fs.Usage()
		return 2
	}

	st, err := api.OpenStore(*store)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsmoothd: %v\n", err)
		return 1
	}

	if *fsck {
		return runFsck(st, *fsckRepair)
	}

	// Process-wide metrics: one registry bound to every instrumented
	// package (including the api layer's own job/queue/drain instruments),
	// served at GET /metrics. No process trace: nothing would read it, and
	// each job keeps its own event ring.
	uninstall := telemetry.Install(telemetry.NewRegistry(), nil)
	defer uninstall()

	var plane durable.FS
	if *chaosKillAtOp > 0 {
		// One plane, one op stream, under the journal and the lease layer —
		// so the seeded kill-point can land inside a claim transaction or
		// renewal just as well as mid-append.
		plane = chaos.NewFS(chaos.Plan{KillAtOp: *chaosKillAtOp}, func() {
			// A real SIGKILL: the kernel reaps the process mid-write, file
			// locks release, nothing user-space runs after this line.
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		})
		fmt.Fprintf(os.Stderr, "vsmoothd: CHAOS: will SIGKILL at fs op %d\n", *chaosKillAtOp)
	}

	srv, err := api.New(api.Config{
		Store:                 st,
		QueueCap:              *queueCap,
		JobWorkers:            *jobWorkers,
		DefaultSessionWorkers: *sessWorkers,
		QuotaRate:             *quotaRate,
		QuotaBurst:            *quotaBurst,
		DefaultTimeout:        *jobTimeout,
		ExpTimeout:            *expTimeout,
		Retries:               *retries,
		StallTimeout:          *stallTimeout,
		FS:                    plane,
		DisableCache:          !*cache,
		CacheMax:              *cacheMax,
		SSEHeartbeat:          *sseHeartbeat,
		WorkerID:              *workerID,
		LeaseTTL:              *leaseTTL,
		ScanInterval:          *scanInterval,
		Preempt:               *preempt,
		AgeAfter:              *ageAfter,
		ShedWatermark:         *shedWatermark,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsmoothd: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsmoothd: listen: %v\n", err)
		return 1
	}
	// Connection hygiene: a slow-loris client (drip-feeding headers or a
	// body, or simply never reading) must not hold a connection forever.
	// The SSE endpoint outlives ReadTimeout on purpose — streamEvents
	// clears the read deadline per request via http.ResponseController and
	// enforces its own per-frame write deadline instead.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}

	ctx, caught, release := sigctx.WithSignals(context.Background())
	defer release()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	// The address line doubles as the readiness signal for the e2e
	// harness (the port may have been :0).
	fmt.Fprintf(os.Stderr, "vsmoothd: serving on http://%s (store %s)\n", ln.Addr(), *store)

	var runErr error
	select {
	case <-ctx.Done():
		// Graceful drain: refuse new admissions (503, /readyz flips) while
		// in-flight HTTP requests and running jobs get the drain budget;
		// jobs that can't finish are checkpointed by their journals and
		// resume on the next boot.
		sig := caught()
		fmt.Fprintf(os.Stderr, "vsmoothd: caught %v; draining (budget %s)\n", sig, *drainTimeout)
		dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
		if err := srv.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "vsmoothd: drain: %v (unfinished jobs will resume on next start)\n", err)
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			httpSrv.Close()
		}
		dcancel()
	case err := <-serveErr:
		srv.Close()
		runErr = err
	}

	code := sigctx.ExitCode(caught(), runErr)
	fmt.Fprintf(os.Stderr, "vsmoothd: exit %d\n", code)
	return code
}

// runFsck scrubs the store and prints one line per issue plus a summary.
// Exit 0 when the store is clean OR every issue was repaired this run;
// exit 1 while any issue remains on disk (so e2e can assert "fsck after a
// kill test finds nothing it cannot fix").
func runFsck(st *api.Store, repair bool) int {
	rep, err := st.Fsck(repair, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "vsmoothd: "+format+"\n", args...)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsmoothd: fsck: %v\n", err)
		return 1
	}
	for _, iss := range rep.Issues {
		status := "found"
		if iss.Repaired {
			status = "repaired"
		}
		fmt.Printf("fsck: %s %s %s", status, iss.Kind, iss.Path)
		if iss.Detail != "" {
			fmt.Printf(" (%s)", iss.Detail)
		}
		fmt.Println()
	}
	fmt.Printf("fsck: %d issues (%d repaired)\n", len(rep.Issues), rep.Repaired)
	if len(rep.Issues) > rep.Repaired {
		return 1
	}
	return 0
}

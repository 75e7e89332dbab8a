// Command vsmooth regenerates the tables and figures of "Voltage
// Smoothing: Characterizing and Mitigating Voltage Noise in Production
// Processors via Software-Guided Thread Scheduling" (MICRO 2010) on the
// simulated Core 2 Duo platform.
//
// Usage:
//
//	vsmooth list                 # show available experiments
//	vsmooth run fig8             # regenerate one figure
//	vsmooth run fig8 fig10 tab1  # several (shared measurements are cached)
//	vsmooth run all              # everything
//	vsmooth -scale full run all  # full-fidelity sweep (slow)
//
// Long campaigns are supervised: experiments run under a batch runner
// with per-attempt deadlines, retry with backoff, and a stall watchdog
// (see internal/runner). Ctrl-C (or SIGTERM, or -timeout) shuts the
// campaign down gracefully — in-flight simulations stop at their next
// run boundary, the journal is flushed, and every figure that completed
// is still rendered. With -journal the campaign checkpoints each
// completed measurement, and -resume continues an interrupted one from
// its last completed unit with bit-identical output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"voltsmooth/internal/experiments"
	"voltsmooth/internal/journal"
	"voltsmooth/internal/runner"
	"voltsmooth/internal/sigctx"
	"voltsmooth/internal/telemetry"
)

func main() {
	scaleName := flag.String("scale", "quick", "experiment scale: tiny|quick|full")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"measurement-sweep fan-out (sweep steps at a time); results are identical at any width")
	inject := flag.String("inject", "",
		"fault classes for figx-recovery, comma-separated: spikes,dropout,counters (empty = all)")
	injectSeed := flag.Uint64("inject-seed", 1, "seed driving every injected fault stream")
	timeout := flag.Duration("timeout", 0, "whole-campaign wall-clock budget (0 = none); on expiry the run shuts down like Ctrl-C")
	expTimeout := flag.Duration("exp-timeout", 0, "per-experiment attempt deadline (0 = none)")
	stall := flag.Duration("stall", 0, "stall watchdog window: cancel and retry an experiment reporting no progress for this long (0 = off); must exceed every experiment's longest stretch without progress (ext1 reports none until it ends: up to 2.6s at -scale quick on 2 vCPUs)")
	retries := flag.Int("retries", runner.DefaultMaxAttempts, "attempts per experiment (first run + retries)")
	journalPath := flag.String("journal", "", "checkpoint completed measurements to this file (JSONL)")
	resume := flag.Bool("resume", false, "continue an existing -journal file; it must match the current scale and fault config")
	metricsAddr := flag.String("metrics-addr", "", "serve live campaign metrics (JSON at /metrics) and pprof (/debug/pprof/) on this address (e.g. 127.0.0.1:6060)")
	tracePath := flag.String("trace", "", "export the campaign event trace to this file (JSONL) at exit")
	status := flag.Duration("status", 0, "print a one-line campaign status to stderr at this interval (0 = off)")
	chaosSoak := flag.Int("chaos-soak", 0,
		"run N kill–resume soak loops under fault injection instead of a normal campaign (0 = off)")
	chaosSeed := flag.Int64("chaos-seed", 1, "base seed for -chaos-soak; loop i replays as -chaos-soak 1 -chaos-seed seed+i")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	// Config errors fail before any simulation starts: a campaign that
	// would run for hours must not discover a bad flag at the end.
	if *resume && *journalPath == "" {
		fatalUsage("-resume requires -journal (there is no file to resume from)")
	}
	if *retries < 1 {
		fatalUsage("-retries must be at least 1 (the first attempt counts)")
	}
	if *status < 0 {
		fatalUsage("-status must be a non-negative interval")
	}

	switch args[0] {
	case "list":
		list()
	case "run":
		if len(args) < 2 {
			fmt.Fprintln(os.Stderr, "vsmooth: run needs at least one experiment id (or `all`)")
			os.Exit(2)
		}
		cfg := runConfig{
			scaleName:   *scaleName,
			workers:     *workers,
			inject:      *inject,
			injectSeed:  *injectSeed,
			timeout:     *timeout,
			expTimeout:  *expTimeout,
			stall:       *stall,
			retries:     *retries,
			journalPath: *journalPath,
			resume:      *resume,
			metricsAddr: *metricsAddr,
			tracePath:   *tracePath,
			status:      *status,
		}
		if *chaosSoak > 0 {
			ctx, caught, release := signalContext(context.Background())
			err := runChaosSoak(ctx, cfg, *chaosSoak, *chaosSeed, args[1:])
			release()
			if err != nil {
				fmt.Fprintln(os.Stderr, "vsmooth:", err)
			}
			os.Exit(exitCode(caught(), err))
		}
		// Telemetry resources (metrics listener, trace file) are claimed
		// before any simulation: an unopenable address or path is a config
		// error, reported like one.
		tel, err := startTelemetry(cfg)
		if err != nil {
			fatalUsage(err.Error())
		}
		// The signal context is installed before the campaign so that a
		// SIGINT/SIGTERM at any point — even mid-telemetry-flush — maps to
		// the shell-convention exit code 128+signum (130, 143).
		ctx, caught, release := signalContext(context.Background())
		err = run(ctx, cfg, args[1:], tel)
		release()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vsmooth:", err)
		}
		os.Exit(exitCode(caught(), err))
	default:
		fmt.Fprintf(os.Stderr, "vsmooth: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}
}

// signalContext and exitCode are the shared CLI signal contract
// (internal/sigctx), common to vsmooth and vsmoothd: graceful unwind on
// SIGINT/SIGTERM, exit 128+signum.
func signalContext(parent context.Context) (context.Context, func() os.Signal, func()) {
	return sigctx.WithSignals(parent)
}

func exitCode(sig os.Signal, err error) int { return sigctx.ExitCode(sig, err) }

// fatalUsage reports a configuration error the way flag parsing does:
// message and usage to stderr, exit code 2.
func fatalUsage(msg string) {
	fmt.Fprintln(os.Stderr, "vsmooth:", msg)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: vsmooth [flags] <command>

commands:
  list                list all experiments
  run <id>... | all   regenerate the given figures/tables

-workers N fans the pre-run measurement sweeps (corpus, oracle pair
table, random batches) out over N workers; every run is seeded and
independent, so output is identical at any N. -workers 1 takes one
sweep step at a time, though a lockstep group's chips still run ahead
of its networks on a goroutine of their own.

-inject selects the fault classes the figx-recovery experiment drives
(spikes,dropout,counters; empty = all) and -inject-seed seeds them, so a
degraded-sensor run is reproducible bit-for-bit.

Campaign supervision: -timeout bounds the whole run, -exp-timeout each
attempt, -retries the attempts per experiment, and -stall arms a
watchdog that cancels and retries experiments making no progress.
Progress comes only from the corpus runs, the oracle table's single-core
references and figx-recovery's schedules; ext1, ext2, fig1, fig2, fig4,
fig6, fig11-fig14 and fig16 report none until they end. The -stall
window must exceed each experiment's longest stretch without progress
(at -scale quick, ext1's whole run: up to 2.6s on 2 vCPUs).
Ctrl-C / SIGTERM stop gracefully: completed figures still render, the
telemetry trace is flushed, and the process exits 128+signum (130 for
SIGINT, 143 for SIGTERM).

-journal FILE checkpoints every completed measurement; after an
interrupt, -resume continues from the last completed unit and produces
bit-identical output. A journal recorded under a different scale or
fault config is rejected.

Telemetry (observes only; figures are bit-identical with it on or off):
-metrics-addr ADDR serves live campaign metrics as JSON at /metrics
plus the pprof profiler family at /debug/pprof/; -trace FILE exports the
campaign event trace (emergencies, recoveries, scheduler swaps, retries,
journal appends) as JSONL at exit; -status DUR prints a one-line
progress summary to stderr at that interval. All telemetry output goes
to stderr, the trace file, or the HTTP endpoint — never stdout.

Chaos soak: -chaos-soak N runs N seeded kill–resume loops of the given
experiments under fault injection (torn writes, ENOSPC, failed fsyncs,
read bit-flips) and asserts the resumed output is bit-identical to an
undisturbed run. Violations print the seed that replays them:
-chaos-soak 1 -chaos-seed SEED reruns exactly that loop.
`)
}

func list() {
	for _, e := range experiments.All() {
		fmt.Printf("%-7s %s\n", e.ID, e.Title)
	}
}

type runConfig struct {
	scaleName   string
	workers     int
	inject      string
	injectSeed  uint64
	timeout     time.Duration
	expTimeout  time.Duration
	stall       time.Duration
	retries     int
	journalPath string
	resume      bool
	metricsAddr string
	tracePath   string
	status      time.Duration
}

func run(ctx context.Context, cfg runConfig, ids []string, tel *campaignTelemetry) error {
	// The telemetry surface outlives the campaign by one step: the summary
	// table and trace export happen after every figure has rendered.
	defer func() {
		if err := tel.close(); err != nil {
			fmt.Fprintln(os.Stderr, "vsmooth:", err)
		}
	}()

	scale, err := experiments.ScaleByName(cfg.scaleName)
	if err != nil {
		return err
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = ids[:0]
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	entries := make([]experiments.Entry, 0, len(ids))
	for _, id := range ids {
		e, err := experiments.Lookup(id)
		if err != nil {
			return err
		}
		entries = append(entries, e)
	}

	session := experiments.NewSession(scale)
	session.Workers = cfg.workers
	session.FaultSeed = cfg.injectSeed
	if cfg.inject != "" {
		session.FaultClasses = strings.Split(cfg.inject, ",")
	}

	if cfg.journalPath != "" {
		j, err := journal.Open(cfg.journalPath, session.ConfigFingerprint(), journal.Options{Resume: cfg.resume})
		if err != nil {
			return err
		}
		// Close flushes and syncs whatever was recorded, however the
		// campaign ends.
		defer j.Close()
		session.Journal = j
		if n := j.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "vsmooth: resuming from %s (%d completed units)\n", j.Path(), n)
		}
	}

	// Graceful shutdown: the caller's signal context (and -timeout) cancel
	// the root context; simulations unwind at their next run boundary, the
	// journal keeps every unit completed so far, and completed figures
	// render.
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	results, runErr := runner.RunBatch(ctx, session, entries, runner.Config{
		Timeout:      cfg.expTimeout,
		MaxAttempts:  cfg.retries,
		StallTimeout: cfg.stall,
		OnEvent:      printEvent,
	})

	var failed []string
	for _, r := range results {
		fmt.Printf("### %s — %s  (scale=%s, %.1fs, %d attempt(s))\n\n",
			r.ID, r.Title, scale.Name, r.Elapsed.Seconds(), r.Attempts)
		if r.Err != nil {
			failed = append(failed, r.ID)
			fmt.Printf("FAILED: %v\n\n", r.Err)
			continue
		}
		fmt.Println(r.Renderer.Render())
	}

	if runErr != nil {
		hint := ""
		if cfg.journalPath != "" {
			hint = fmt.Sprintf("; rerun with -journal %s -resume to continue", cfg.journalPath)
		}
		return fmt.Errorf("campaign interrupted (%v)%s", runErr, hint)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d experiment(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return nil
}

// printEvent narrates the batch on stderr: attempts, retries, failures.
// Per-unit progress events are deliberately not printed — a full campaign
// completes tens of thousands of units.
func printEvent(ev runner.Event) {
	switch ev.Kind {
	case runner.EventStart:
		if ev.Attempt > 1 {
			fmt.Fprintf(os.Stderr, "vsmooth: %s: attempt %d\n", ev.ID, ev.Attempt)
		}
	case runner.EventRetry:
		fmt.Fprintf(os.Stderr, "vsmooth: %s: attempt %d failed (%v), retrying in %s\n",
			ev.ID, ev.Attempt, telemetry.FirstLine(ev.Err), ev.Backoff.Round(time.Millisecond))
	case runner.EventDone:
		if ev.Err != nil && !errors.Is(ev.Err, runner.ErrAborted) {
			fmt.Fprintf(os.Stderr, "vsmooth: %s: failed after %d attempt(s)\n", ev.ID, ev.Attempt)
		}
	}
}

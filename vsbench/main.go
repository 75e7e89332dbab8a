// Command vsbench is the repository benchmark. It boots the real vsmoothd
// binary with its default flags, drives one seeded workload against it
// from a single load-generator process, checks every returned render
// against committed digests, and prints each metric by name, unit and
// sample count. The last line of standard output is one JSON object.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash vsbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// workload runs twice, untraced and traced, and the metrics are the
// per-layer ones, including the tracing overhead. README.md explains the
// workloads and how to read the output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

var workloads = map[string]func(*pass) error{
	"campaign": (*pass).campaign,
	"cached":   (*pass).cached,
	"tenants":  (*pass).tenants,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(argv []string) int {
	fs := flag.NewFlagSet("vsbench", flag.ContinueOnError)
	var (
		workload   = fs.String("workload", "", "workload to run: campaign|cached|tenants")
		seed       = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds    = fs.Int("seconds", 30, "length of the measured windows of cached and tenants, 1 to 60")
		trace      = fs.Int("trace", 0, "1: run untraced and traced and print the per-layer metrics")
		build      = fs.String("build", ".bench_build", "directory holding the built binaries and scratch stores")
		genDigests = fs.String("gen-digests", "", "render every spec the workloads can submit, write the digest book to this file, and exit")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	ctx := context.Background()
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if *genDigests != "" {
		if err := generateDigests(ctx, *genDigests, nproc); err != nil {
			fmt.Fprintf(os.Stderr, "vsbench: %v\n", err)
			return 1
		}
		return 0
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "vsbench: need --workload campaign|cached|tenants, --seconds 1..60 and --trace 0|1\n")
		return 2
	}
	b, err := newBench(*build, *workload, *seed, *seconds, nproc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(b.dir)
	// Start from a quiet disk: what earlier runs left to write back must
	// not land in this run's fsyncs.
	syscall.Sync()

	for _, line := range b.conditions() {
		fmt.Println(line)
	}
	if *trace == 0 {
		p := b.newPass(false)
		if err := run(p); err != nil {
			fmt.Fprintf(os.Stderr, "vsbench: %s: %v\n", *workload, err)
			return 1
		}
		p.report()
		return emit(endToEndDefs, p.correct(), p.attempted.Load(), p.failed.Load(), p.endToEnd())
	}

	base := b.newPass(false)
	if err := run(base); err != nil {
		fmt.Fprintf(os.Stderr, "vsbench: %s untraced: %v\n", *workload, err)
		return 1
	}
	base.report()
	traced := b.newPass(true)
	if err := run(traced); err != nil {
		fmt.Fprintf(os.Stderr, "vsbench: %s traced: %v\n", *workload, err)
		return 1
	}
	traced.report()
	if err := traced.layerProbes(); err != nil {
		fmt.Fprintf(os.Stderr, "vsbench: layer probes: %v\n", err)
		return 1
	}
	metrics := traced.perLayer(base)
	tracePath := filepath.Join(b.build, "traces", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
	if err := traced.tr.writeJSONL(tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "vsbench: write trace: %v\n", err)
		return 1
	}
	fmt.Printf("trace spans written to %s\n", tracePath)
	for _, d := range perLayerDefs {
		m := metrics[d.name]
		fmt.Printf("layer %-40s %14.6g %-9s n=%d%s\n", d.name, m.value, d.unit, m.n, m.note)
	}
	return emit(perLayerDefs, base.correct() && traced.correct(),
		base.attempted.Load()+traced.attempted.Load(),
		base.failed.Load()+traced.failed.Load(), metrics)
}

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// measured is one reported value with its sample count.
type measured struct {
	value float64
	n     int
	note  string
}

// emit prints the final JSON result line (correct, attempted, failed and
// the metrics of defs) and returns the exit code.
func emit(defs []metricDef, correct bool, attempted, failed int64, metrics map[string]measured) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, max(attempted, 1), failed, map[string]value{}}
	for _, d := range defs {
		m, ok := metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "vsbench: metric %s was not measured\n", d.name)
			return 1
		}
		out.Metrics[d.name] = value{m.value, d.unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vsbench: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// bench is one invocation: the workload, its seed and the binaries.
type bench struct {
	build    string
	workload string
	seed     int64
	seconds  int
	conns    int // load-generator connections and goroutines: nproc
	vsmoothd string
	dir      string // this invocation's scratch directory, removed at exit
	digests  *digestBook
}

func newBench(build, workload string, seed int64, seconds, nproc int) (*bench, error) {
	build, err := filepath.Abs(build)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(build, "bin", "vsmoothd")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("vsmoothd binary: %w (build it with vsbench/run.sh)", err)
	}
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(build, "runs"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(build, "runs"), workload+"-")
	if err != nil {
		return nil, err
	}
	return &bench{build: build, workload: workload, seed: seed, seconds: seconds,
		conns: nproc, vsmoothd: bin, dir: dir, digests: digests}, nil
}

// conditions describes the machine and toolchain a result was taken on.
func (b *bench) conditions() []string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	return []string{
		fmt.Sprintf("vsbench workload=%s seed=%d seconds=%d", b.workload, b.seed, b.seconds),
		fmt.Sprintf("condition nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("condition gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("condition cpu_model=%q", cpu),
		fmt.Sprintf("condition go_version=%s", runtime.Version()),
		fmt.Sprintf("condition kernel=%s", kernel),
		fmt.Sprintf("condition store_fs=%s", fsType(b.dir)),
		fmt.Sprintf("condition seed=%d", b.seed),
	}
}

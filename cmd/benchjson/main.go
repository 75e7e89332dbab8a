// Command benchjson turns `go test -bench` text output into the
// machine-readable BENCH_<n>.json benchmark baseline this repo commits per
// PR, and compares two such baselines to gate CI on performance
// regressions — the "machine-class workload checks" pattern: every speed
// claim gets a recorded trajectory, and the hot-path benchmarks cannot
// silently regress past budget.
//
// Convert (default mode; reads stdin when no file is given):
//
//	go test -run=NONE -bench 'ChipCycle|PDNStep' -benchmem -count 5 . \
//	    | benchjson -label BENCH_6 -o BENCH_6.json
//
// Repeated -count runs of one benchmark are aggregated: ns/op keeps the
// minimum (the least-interference estimate of the true cost), allocs/op
// and B/op keep the maximum (they are deterministic on a healthy hot path,
// so any spread is itself suspicious and the gate should see the worst).
//
// The file also records the conditions the numbers were measured under:
// the GOMAXPROCS every result line ran at (the `-N` suffix go test
// appends to benchmark names, absent when it is 1), the CPU count of the
// converting host and the Go version benchjson was built with — the
// toolchain that ran the benchmarks when both run from one `go` command,
// as in CI. Input whose lines ran at different GOMAXPROCS values is
// rejected: one file describes one set of conditions.
//
// Compare (exit 1 on regression, 0 otherwise):
//
//	benchjson -compare -budget 0.10 -hot 'ChipCycle|PDNStep|StepCycle|CorpusBuild' \
//	    BENCH_6.json BENCH_new.json
//
// A hot-path benchmark regresses when its ns/op exceeds the baseline by
// more than the budget fraction, when a zero-alloc baseline gains any
// allocation at all (the zero-alloc contract is exact), when an allocating
// baseline's allocs/op grows past the same budget fraction (parallel
// builders jitter by a few allocs run to run from goroutine scheduling, so
// an exact gate there would flake), or when the benchmark disappears from
// the new run (a renamed benchmark silently un-gates itself otherwise).
// A hot benchmark the baseline lacks is reported as NEW and ungated until
// a baseline records it. Cold benchmarks are reported but never fail the
// gate. The report
// prints both files' conditions and flags a GOMAXPROCS or CPU-count
// mismatch, which makes ns/op, above all for the parallel builders, not
// comparable; the flag never changes the verdict. When the baseline file
// does not exist — the first gated run —
// the comparison is skipped gracefully with exit 0. The literal baseline
// name "auto" picks the highest-numbered BENCH_*.json in the current
// directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's aggregated measurement.
type Result struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// MemReported records whether -benchmem columns were present; without
	// it a zero AllocsPerOp is "unknown", not "allocation-free".
	MemReported bool `json:"mem_reported"`
}

// File is the BENCH_<n>.json schema.
type File struct {
	Schema string `json:"schema"`
	Label  string `json:"label,omitempty"`
	GoOS   string `json:"goos"`
	GoArch string `json:"goarch"`
	CPU    string `json:"cpu,omitempty"`
	// GOMAXPROCS, NumCPU and GoVersion are the measurement conditions;
	// v1 files lack them, and they load as zero values.
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	GoVersion  string   `json:"go_version,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

const (
	schemaID = "vsmooth-bench/v2"
	// schemaV1 files (BENCH_6, BENCH_8, BENCH_10) predate the recorded
	// conditions; load still accepts them as baselines.
	schemaV1 = "vsmooth-bench/v1"
)

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkChipCycle-8   4047680   294.8 ns/op   0 B/op   0 allocs/op
//	BenchmarkCorpusBuild/workers=2-8   33   35018003 ns/op
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+\d+\s+([0-9.e+]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parse reads `go test -bench` text output and returns aggregated results,
// the goos/goarch/cpu header values it saw, the GOMAXPROCS the lines ran
// at, and this process's CPU count and Go version.
func parse(r io.Reader) (*File, error) {
	f := &File{Schema: schemaID, GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	byName := map[string]*Result{}
	var order []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.GoOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			f.GoArch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		procs := 1 // go test omits the suffix at GOMAXPROCS=1
		if m[2] != "" {
			procs, _ = strconv.Atoi(m[2]) // the pattern matched digits
		}
		if f.GOMAXPROCS == 0 {
			f.GOMAXPROCS = procs
		} else if procs != f.GOMAXPROCS {
			return nil, fmt.Errorf("benchjson: %q ran at GOMAXPROCS %d, earlier lines at %d; convert one GOMAXPROCS per file",
				line, procs, f.GOMAXPROCS)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: bad ns/op in %q: %v", line, err)
		}
		res, ok := byName[name]
		if !ok {
			res = &Result{Name: name, NsPerOp: ns}
			byName[name] = res
			order = append(order, name)
		}
		res.Runs++
		if ns < res.NsPerOp {
			res.NsPerOp = ns
		}
		if m[4] != "" {
			b, _ := strconv.ParseInt(m[4], 10, 64)
			if b > res.BytesPerOp {
				res.BytesPerOp = b
			}
			res.MemReported = true
		}
		if m[5] != "" {
			a, _ := strconv.ParseInt(m[5], 10, 64)
			if a > res.AllocsPerOp {
				res.AllocsPerOp = a
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		f.Benchmarks = append(f.Benchmarks, *byName[name])
	}
	return f, nil
}

// load reads a BENCH_<n>.json file.
func load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %v", path, err)
	}
	if f.Schema != schemaID && f.Schema != schemaV1 {
		return nil, fmt.Errorf("benchjson: %s: unknown schema %q (want %q or %q)", path, f.Schema, schemaID, schemaV1)
	}
	return &f, nil
}

// latestBaseline returns the highest-numbered BENCH_*.json in dir, or ""
// when none exists.
func latestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, m := range matches {
		base := strings.TrimSuffix(filepath.Base(m), ".json")
		n, err := strconv.Atoi(strings.TrimPrefix(base, "BENCH_"))
		if err != nil {
			continue
		}
		if n > bestN {
			best, bestN = m, n
		}
	}
	return best, nil
}

// regression describes one gate violation.
type regression struct {
	name   string
	reason string
}

// conditions renders a file's measurement conditions for the report.
func (f *File) conditions() string {
	known := func(n int) string {
		if n == 0 {
			return "unrecorded"
		}
		return strconv.Itoa(n)
	}
	goVersion := f.GoVersion
	if goVersion == "" {
		goVersion = "unrecorded"
	}
	return fmt.Sprintf("gomaxprocs=%s num_cpu=%s go=%s cpu=%q (%s)",
		known(f.GOMAXPROCS), known(f.NumCPU), goVersion, f.CPU, f.Schema)
}

// compare applies the gate: hot benchmarks (name matches hot) fail on
// ns/op past budget, allocs/op regression (exact when the baseline is
// zero, budget-relative otherwise), or disappearance. It returns the
// violations and a human-readable report: both files' conditions, a flag
// when their GOMAXPROCS or CPU counts differ, every benchmark present in
// both files, and every hot benchmark only the new file has, marked NEW
// and ungated.
func compare(base, next *File, hot *regexp.Regexp, budget float64) ([]regression, string) {
	nextBy := map[string]Result{}
	for _, b := range next.Benchmarks {
		nextBy[b.Name] = b
	}
	var regs []regression
	var report strings.Builder
	fmt.Fprintf(&report, "base conditions: %s\nnew  conditions: %s\n", base.conditions(), next.conditions())
	mismatch := func(what string, a, b int) {
		if a != 0 && b != 0 && a != b {
			fmt.Fprintf(&report, "MISMATCH %s: base %d, new %d — ns/op are not measured under the same conditions\n", what, a, b)
		}
	}
	mismatch("gomaxprocs", base.GOMAXPROCS, next.GOMAXPROCS)
	mismatch("num_cpu", base.NumCPU, next.NumCPU)
	for _, old := range base.Benchmarks {
		isHot := hot.MatchString(old.Name)
		nu, ok := nextBy[old.Name]
		if !ok {
			if isHot {
				regs = append(regs, regression{old.Name, "missing from new run (renamed or deleted hot benchmark un-gates itself)"})
			}
			continue
		}
		delta := (nu.NsPerOp - old.NsPerOp) / old.NsPerOp
		tag := "    "
		if isHot {
			tag = "HOT "
		}
		fmt.Fprintf(&report, "%s%-46s %12.1f -> %12.1f ns/op (%+.1f%%)  allocs %d -> %d\n",
			tag, old.Name, old.NsPerOp, nu.NsPerOp, 100*delta, old.AllocsPerOp, nu.AllocsPerOp)
		if !isHot {
			continue
		}
		if delta > budget {
			regs = append(regs, regression{old.Name,
				fmt.Sprintf("ns/op %.1f -> %.1f (%+.1f%%, budget %+.1f%%)", old.NsPerOp, nu.NsPerOp, 100*delta, 100*budget)})
		}
		if old.MemReported && nu.MemReported {
			switch {
			case old.AllocsPerOp == 0 && nu.AllocsPerOp > 0:
				regs = append(regs, regression{old.Name,
					fmt.Sprintf("allocs/op 0 -> %d (zero-alloc contract is exact)", nu.AllocsPerOp)})
			case old.AllocsPerOp > 0 && float64(nu.AllocsPerOp) > float64(old.AllocsPerOp)*(1+budget):
				regs = append(regs, regression{old.Name,
					fmt.Sprintf("allocs/op %d -> %d (budget %+.1f%%)", old.AllocsPerOp, nu.AllocsPerOp, 100*budget)})
			}
		}
	}
	// A hot benchmark only the new run has cannot be gated yet; list it so
	// the report shows every hot number the run produced.
	inBase := map[string]bool{}
	for _, old := range base.Benchmarks {
		inBase[old.Name] = true
	}
	for _, nu := range next.Benchmarks {
		if hot.MatchString(nu.Name) && !inBase[nu.Name] {
			fmt.Fprintf(&report, "NEW %-46s %12s -> %12.1f ns/op (no baseline: ungated)  allocs %d\n",
				nu.Name, "", nu.NsPerOp, nu.AllocsPerOp)
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].name < regs[j].name })
	return regs, report.String()
}

func main() {
	var (
		compareMode = flag.Bool("compare", false, "compare baseline.json new.json instead of converting")
		budget      = flag.Float64("budget", 0.10, "ns/op regression budget as a fraction (compare mode)")
		hotExpr     = flag.String("hot", "ChipCycle|PDNStep|StepCycle|CorpusBuild", "regexp of hot-path benchmarks the gate fails on (compare mode)")
		label       = flag.String("label", "", "label recorded in the output (convert mode)")
		out         = flag.String("o", "", "output file (convert mode; default stdout)")
	)
	flag.Parse()

	if *compareMode {
		os.Exit(runCompare(flag.Args(), *hotExpr, *budget))
	}
	if err := runConvert(flag.Args(), *label, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

func runConvert(args []string, label, out string) error {
	in := io.Reader(os.Stdin)
	if len(args) > 1 {
		return fmt.Errorf("benchjson: convert mode takes at most one input file, got %d", len(args))
	}
	if len(args) == 1 {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	file, err := parse(in)
	if err != nil {
		return err
	}
	if len(file.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines found in input")
	}
	file.Label = label
	enc, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

func runCompare(args []string, hotExpr string, budget float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two arguments: baseline.json new.json (baseline may be \"auto\")")
		return 2
	}
	hot, err := regexp.Compile(hotExpr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: bad -hot regexp: %v\n", err)
		return 2
	}
	basePath := args[0]
	if basePath == "auto" {
		basePath, err = latestBaseline(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 2
		}
		if basePath == "" {
			fmt.Println("benchjson: no BENCH_*.json baseline found — first gated run, skipping comparison")
			return 0
		}
	}
	base, err := load(basePath)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("benchjson: baseline %s does not exist — skipping comparison\n", basePath)
			return 0
		}
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	next, err := load(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	regs, report := compare(base, next, hot, budget)
	fmt.Printf("benchjson: %s vs %s (budget %+.0f%% ns/op on /%s/)\n", basePath, args[1], 100*budget, hotExpr)
	fmt.Print(report)
	if len(regs) > 0 {
		fmt.Printf("\nFAIL: %d hot-path regression(s):\n", len(regs))
		for _, r := range regs {
			fmt.Printf("  %s: %s\n", r.name, r.reason)
		}
		return 1
	}
	fmt.Println("PASS: no hot-path regressions")
	return 0
}

package main

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: voltsmooth
cpu: AMD EPYC 7B13
BenchmarkChipCycle-8             4047680               294.8 ns/op             0 B/op          0 allocs/op
BenchmarkChipCycle-8             4100000               289.9 ns/op             0 B/op          0 allocs/op
BenchmarkChipCycle-8             3900000               301.2 ns/op             0 B/op          0 allocs/op
BenchmarkPDNStep-8              33000000                35.01 ns/op            0 B/op          0 allocs/op
BenchmarkPDNStep-8              34000000                34.62 ns/op            0 B/op          0 allocs/op
BenchmarkCorpusBuild/workers=2-8              33          35018003 ns/op
PASS
ok      voltsmooth      12.3s
`

func TestParseAggregatesRuns(t *testing.T) {
	f, err := parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.GoOS != "linux" || f.GoArch != "amd64" || f.CPU != "AMD EPYC 7B13" {
		t.Errorf("header = %s/%s/%q", f.GoOS, f.GoArch, f.CPU)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	cc := f.Benchmarks[0]
	if cc.Name != "BenchmarkChipCycle" {
		t.Errorf("first benchmark = %q, want BenchmarkChipCycle (procs suffix must be stripped)", cc.Name)
	}
	if cc.Runs != 3 {
		t.Errorf("ChipCycle runs = %d, want 3", cc.Runs)
	}
	if cc.NsPerOp != 289.9 {
		t.Errorf("ChipCycle ns/op = %g, want min across runs 289.9", cc.NsPerOp)
	}
	if !cc.MemReported || cc.AllocsPerOp != 0 {
		t.Errorf("ChipCycle mem = reported:%v allocs:%d, want reported 0 allocs", cc.MemReported, cc.AllocsPerOp)
	}
	cb := f.Benchmarks[2]
	if cb.Name != "BenchmarkCorpusBuild/workers=2" {
		t.Errorf("sub-benchmark name = %q", cb.Name)
	}
	if cb.MemReported {
		t.Error("CorpusBuild had no -benchmem columns but MemReported is true")
	}
	if cb.NsPerOp != 35018003 {
		t.Errorf("CorpusBuild ns/op = %g", cb.NsPerOp)
	}
}

func TestParseKeepsMaxAllocs(t *testing.T) {
	// A benchmark whose runs disagree on allocs must record the worst run,
	// not whichever happened to be fastest.
	in := `BenchmarkX-4   100   50.0 ns/op   16 B/op   1 allocs/op
BenchmarkX-4   100   40.0 ns/op   0 B/op   0 allocs/op
`
	f, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	x := f.Benchmarks[0]
	if x.NsPerOp != 40.0 || x.AllocsPerOp != 1 || x.BytesPerOp != 16 {
		t.Errorf("got ns=%g allocs=%d bytes=%d, want min-ns/max-allocs 40/1/16", x.NsPerOp, x.AllocsPerOp, x.BytesPerOp)
	}
}

func TestParseRecordsConditions(t *testing.T) {
	f, err := parse(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != schemaID || f.GOMAXPROCS != 8 {
		t.Errorf("schema %q gomaxprocs %d, want %q and 8 from the -8 suffix", f.Schema, f.GOMAXPROCS, schemaID)
	}
	if f.NumCPU != runtime.NumCPU() || f.GoVersion != runtime.Version() {
		t.Errorf("num_cpu %d go_version %q, want %d and %q", f.NumCPU, f.GoVersion, runtime.NumCPU(), runtime.Version())
	}

	// go test omits the suffix when GOMAXPROCS is 1.
	f, err = parse(strings.NewReader("BenchmarkCorpusBuild/workers=2   1   1100000000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if f.GOMAXPROCS != 1 || f.Benchmarks[0].Name != "BenchmarkCorpusBuild/workers=2" {
		t.Errorf("unsuffixed line: gomaxprocs %d name %q, want 1 and the full name", f.GOMAXPROCS, f.Benchmarks[0].Name)
	}
}

func TestParseRejectsDisagreeingGOMAXPROCS(t *testing.T) {
	for _, in := range []string{
		"BenchmarkX-2   100   50.0 ns/op\nBenchmarkY-4   100   50.0 ns/op\n",
		"BenchmarkX   100   50.0 ns/op\nBenchmarkX-2   100   50.0 ns/op\n",
	} {
		if _, err := parse(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
			t.Errorf("parse(%q) = %v, want a GOMAXPROCS disagreement error", in, err)
		}
	}
}

func TestLoadAcceptsV1Baselines(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) == 0 {
		t.Fatal("no committed BENCH_*.json baselines found")
	}
	for _, path := range committed {
		f, err := load(path)
		if err != nil {
			t.Errorf("load(%s): %v", path, err)
			continue
		}
		if f.Schema == schemaV1 && (f.GOMAXPROCS != 0 || f.NumCPU != 0 || f.GoVersion != "") {
			t.Errorf("%s: v1 file loaded with conditions %+v", path, f)
		}
	}

	bad := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := os.WriteFile(bad, []byte(`{"schema":"vsmooth-bench/v0","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(bad); err == nil {
		t.Error("load accepted an unknown schema")
	}
}

func TestCompareFlagsConditionMismatch(t *testing.T) {
	base := &File{Schema: schemaID, GOMAXPROCS: 2, NumCPU: 2, GoVersion: "go1.24.0",
		Benchmarks: []Result{bench("BenchmarkCorpusBuild/workers=2", 1e9, 1400)}}
	next := &File{Schema: schemaID, GOMAXPROCS: 8, NumCPU: 16, GoVersion: "go1.24.0",
		Benchmarks: []Result{bench("BenchmarkCorpusBuild/workers=2", 1e9, 1400)}}
	regs, report := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 0 {
		t.Errorf("a condition mismatch changed the verdict: %+v", regs)
	}
	for _, want := range []string{"gomaxprocs=2 num_cpu=2", "gomaxprocs=8 num_cpu=16",
		"MISMATCH gomaxprocs: base 2, new 8", "MISMATCH num_cpu: base 2, new 16"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}

	// A v1 baseline recorded no conditions: reported as such, not flagged.
	v1 := &File{Schema: schemaV1, Benchmarks: base.Benchmarks}
	_, report = compare(v1, next, hotRE(t), 0.10)
	if !strings.Contains(report, "gomaxprocs=unrecorded") || strings.Contains(report, "MISMATCH") {
		t.Errorf("v1 baseline report:\n%s", report)
	}
}

func hotRE(t *testing.T) *regexp.Regexp {
	t.Helper()
	return regexp.MustCompile("ChipCycle|PDNStep|StepCycle|CorpusBuild")
}

func bench(name string, ns float64, allocs int64) Result {
	return Result{Name: name, Runs: 1, NsPerOp: ns, AllocsPerOp: allocs, MemReported: true}
}

func TestCompareWithinBudgetPasses(t *testing.T) {
	base := &File{Schema: schemaID, Benchmarks: []Result{
		bench("BenchmarkChipCycle", 300, 0),
		bench("BenchmarkFig01ProjectedSwings", 1000, 5),
	}}
	next := &File{Schema: schemaID, Benchmarks: []Result{
		bench("BenchmarkChipCycle", 325, 0),             // +8.3% < 10% budget
		bench("BenchmarkFig01ProjectedSwings", 5000, 9), // cold: never gates
	}}
	regs, report := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v\n%s", regs, report)
	}
	if !strings.Contains(report, "HOT BenchmarkChipCycle") {
		t.Errorf("report missing HOT tag:\n%s", report)
	}
}

func TestCompareFailsOnNsRegression(t *testing.T) {
	base := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkPDNStep", 35, 0)}}
	next := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkPDNStep", 42, 0)}} // +20%
	regs, _ := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0].reason, "ns/op") {
		t.Fatalf("want one ns/op regression, got %+v", regs)
	}
}

func TestCompareFailsOnZeroAllocContractBreak(t *testing.T) {
	// A zero-alloc baseline gaining even one allocation fails: the contract
	// is exact.
	base := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkChipCycle", 300, 0)}}
	next := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkChipCycle", 300, 1)}}
	regs, _ := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0].reason, "allocs/op") {
		t.Fatalf("want one allocs/op regression, got %+v", regs)
	}
}

func TestCompareAllocBudgetOnAllocatingBaseline(t *testing.T) {
	// Allocating benchmarks (parallel builders) jitter by a few allocs from
	// goroutine scheduling — small drift passes, growth past budget fails.
	base := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkCorpusBuild/workers=2", 1e9, 1450)}}
	next := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkCorpusBuild/workers=2", 1e9, 1456)}}
	regs, _ := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 0 {
		t.Fatalf("+0.4%% alloc jitter should pass, got %+v", regs)
	}
	next.Benchmarks[0].AllocsPerOp = 1700 // +17%
	regs, _ = compare(base, next, hotRE(t), 0.10)
	if len(regs) != 1 || !strings.Contains(regs[0].reason, "allocs/op") {
		t.Fatalf("want one allocs/op regression at +17%%, got %+v", regs)
	}
}

func TestCompareFailsOnMissingHotBenchmark(t *testing.T) {
	base := &File{Schema: schemaID, Benchmarks: []Result{
		bench("BenchmarkStepCycle", 230, 0),
		bench("BenchmarkFig02MarginFrequency", 900, 3),
	}}
	next := &File{Schema: schemaID, Benchmarks: []Result{}}
	regs, _ := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 1 || regs[0].name != "BenchmarkStepCycle" {
		t.Fatalf("want exactly the missing hot benchmark flagged, got %+v", regs)
	}
}

func TestCompareReportsNewHotBenchmark(t *testing.T) {
	// A hot benchmark the baseline lacks is listed, ungated; a new cold
	// one is not, and neither changes the verdict.
	base := &File{Schema: schemaID, Benchmarks: []Result{bench("BenchmarkStepCycle", 230, 0)}}
	next := &File{Schema: schemaID, Benchmarks: []Result{
		bench("BenchmarkStepCycle", 231, 0),
		bench("BenchmarkStepCycleLanes/lanes=3", 420, 0),
		bench("BenchmarkFig02MarginFrequency", 900, 3),
	}}
	regs, report := compare(base, next, hotRE(t), 0.10)
	if len(regs) != 0 {
		t.Fatalf("a new benchmark changed the verdict: %+v", regs)
	}
	if !strings.Contains(report, "NEW BenchmarkStepCycleLanes/lanes=3") ||
		!strings.Contains(report, "420.0 ns/op (no baseline: ungated)") {
		t.Errorf("report does not list the new hot benchmark:\n%s", report)
	}
	if strings.Contains(report, "Fig02") {
		t.Errorf("report lists a new cold benchmark:\n%s", report)
	}
}

func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_6.json", "BENCH_10.json", "BENCH_x.json", "notes.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_10.json" {
		t.Errorf("latestBaseline = %q, want BENCH_10.json (numeric, not lexical, ordering)", got)
	}

	empty := t.TempDir()
	got, err = latestBaseline(empty)
	if err != nil || got != "" {
		t.Errorf("latestBaseline(empty) = %q, %v; want \"\", nil", got, err)
	}
}

func TestRunCompareSkipsWithoutBaseline(t *testing.T) {
	dir := t.TempDir()
	newFile := filepath.Join(dir, "new.json")
	if err := os.WriteFile(newFile, []byte(`{"schema":"vsmooth-bench/v1","goos":"linux","goarch":"amd64","benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Nonexistent explicit baseline: skip with success.
	if code := runCompare([]string{filepath.Join(dir, "BENCH_99.json"), newFile}, "ChipCycle", 0.10); code != 0 {
		t.Errorf("missing baseline exit = %d, want 0 (graceful skip)", code)
	}
	// "auto" in a directory with no BENCH_*.json: also a skip.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if code := runCompare([]string{"auto", newFile}, "ChipCycle", 0.10); code != 0 {
		t.Errorf("auto with no baselines exit = %d, want 0 (graceful skip)", code)
	}
}

func TestRunCompareUsageErrors(t *testing.T) {
	if code := runCompare([]string{"only-one.json"}, "ChipCycle", 0.10); code != 2 {
		t.Errorf("one-arg exit = %d, want 2", code)
	}
	if code := runCompare([]string{"a.json", "b.json"}, "(", 0.10); code != 2 {
		t.Errorf("bad regexp exit = %d, want 2", code)
	}
}

func TestRoundTripConvertCompare(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "BENCH_1.json")
	if err := runConvertString(t, sampleBenchOutput, "BENCH_1", base); err != nil {
		t.Fatal(err)
	}
	loaded, err := load(base)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Label != "BENCH_1" || len(loaded.Benchmarks) != 3 {
		t.Fatalf("round-trip lost data: %+v", loaded)
	}
	// Comparing a file against itself is the identity gate: must pass.
	if code := runCompare([]string{base, base}, "ChipCycle|PDNStep|CorpusBuild", 0.10); code != 0 {
		t.Errorf("self-compare exit = %d, want 0", code)
	}
}

// runConvertString drives runConvert through a temp input file so the test
// does not have to fake stdin.
func runConvertString(t *testing.T, input, label, out string) error {
	t.Helper()
	in := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(in, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	return runConvert([]string{in}, label, out)
}

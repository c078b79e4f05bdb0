// Command benchgate compares two `go test -bench` outputs and fails
// when the new run has regressed beyond a threshold. It is the CI
// bench-gate's pass/fail decision: benchstat renders the human-readable
// delta table, benchgate turns the same data into an exit code.
//
//	benchgate -old bench/baseline.txt -new bench_new.txt            # default 15%
//	benchgate -old old.txt -new new.txt -threshold 1.10             # 10%
//
// The verdict is the geometric mean of per-benchmark ns/op ratios
// (new/old) over the benchmarks present in BOTH files: a single noisy
// micro-benchmark cannot fail the build on its own, but a broad
// slowdown — or a large regression in any one hot path — moves the
// geomean past the threshold. Benchmarks present in only one file are
// reported and skipped, so adding or removing a benchmark does not
// require regenerating the baseline in the same commit. When the two
// files' `cpu:` header lines differ, a "machine mismatch" line precedes
// the verdict: ratios across processors measure the machines too, and
// `make bench-baseline` on the comparing machine gives a like-for-like
// baseline. The verdict itself does not change.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkC8_ContendedAccess/cow/one_proxy/goroutines=4-8   123456   987.6 ns/op   0 B/op ...
//
// Capture 1 is the benchmark name (with the -GOMAXPROCS suffix), 2 the
// ns/op value.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.]+) ns/op`)

// cpuSuffix strips the trailing -N GOMAXPROCS marker so runs at equal
// parallelism but different suffix formatting still pair up.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// cpuHeader matches the `cpu:` line go test -bench prints before the
// results; capture 1 is the processor model.
var cpuHeader = regexp.MustCompile(`^cpu:\s*(.*?)\s*$`)

// bench is one parsed `go test -bench` output: ns/op samples per
// benchmark and the machine's processor model ("" when absent).
type bench struct {
	results map[string][]float64
	cpu     string
}

func parse(r io.Reader) (bench, error) {
	out := bench{results: make(map[string][]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := cpuHeader.FindStringSubmatch(line); m != nil && out.cpu == "" {
			out.cpu = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := cpuSuffix.ReplaceAllString(m[1], "")
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil || v <= 0 {
			continue
		}
		out.results[name] = append(out.results[name], v)
	}
	return out, sc.Err()
}

func cpuOrUnknown(cpu string) string {
	if cpu == "" {
		return "(no cpu: line)"
	}
	return cpu
}

func parseFile(path string) (bench, error) {
	f, err := os.Open(path)
	if err != nil {
		return bench{}, err
	}
	defer f.Close()
	return parse(f)
}

// center reduces repeated measurements of one benchmark (from -count=N)
// to their median, which resists a single outlier run.
func center(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func main() {
	oldPath := flag.String("old", "", "baseline `file` of go test -bench output")
	newPath := flag.String("new", "", "candidate `file` of go test -bench output")
	threshold := flag.Float64("threshold", 1.15, "maximum allowed geomean ratio new/old")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		os.Exit(2)
	}
	oldBench, err := parseFile(*oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	newBench, err := parseFile(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	oldRes, newRes := oldBench.results, newBench.results

	var names []string
	for name := range oldRes {
		if _, ok := newRes[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmarks in common between old and new")
		os.Exit(2)
	}
	for name := range oldRes {
		if _, ok := newRes[name]; !ok {
			fmt.Printf("only in baseline (skipped): %s\n", name)
		}
	}
	for name := range newRes {
		if _, ok := oldRes[name]; !ok {
			fmt.Printf("only in candidate (skipped): %s\n", name)
		}
	}

	var logSum float64
	fmt.Printf("%-72s %12s %12s %8s\n", "benchmark", "old ns/op", "new ns/op", "ratio")
	for _, name := range names {
		o, n := center(oldRes[name]), center(newRes[name])
		ratio := n / o
		logSum += math.Log(ratio)
		fmt.Printf("%-72s %12.1f %12.1f %8.3f\n", name, o, n, ratio)
	}
	geomean := math.Exp(logSum / float64(len(names)))
	fmt.Printf("\ngeomean ratio over %d benchmarks: %.3f (threshold %.3f)\n",
		len(names), geomean, *threshold)
	// Ratios across different processors measure the machines as much
	// as the change; say so before the verdict, which stands as is.
	if oldBench.cpu != newBench.cpu {
		fmt.Printf("machine mismatch: baseline %s vs new %s\n", cpuOrUnknown(oldBench.cpu), cpuOrUnknown(newBench.cpu))
	}
	if geomean > *threshold {
		fmt.Printf("FAIL: candidate is %.1f%% slower than baseline (limit %.1f%%)\n",
			(geomean-1)*100, (*threshold-1)*100)
		os.Exit(1)
	}
	fmt.Println("PASS")
}

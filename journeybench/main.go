// Command journeybench runs a named workload of complete agent journeys
// (credential issue, launch, transfers, admission, visits with resource
// binding and invocation, settlement, homecoming) against fresh
// in-process platforms, checks every output against the workload's
// seeded plan, and prints its metrics as one JSON line.
//
//	bash journeybench/run.sh --workload tour --seed 1 --seconds 30 --trace 0
//
// Load is closed-loop: two clients, each launching a journey and waiting
// for its homecoming before launching the next. A run repeats rounds of
// a fixed journey count, each on a fresh platform; --seconds sets how
// many (one per 2.5 s), so every run of a workload does the same work.
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer in its middle round,
// times each layer's public calls on their own, and prints the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStart approximates the process start: package variables are
// initialised before main runs.
var procStart = time.Now()

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: tour, access or mailbox")
		seed    = flag.Int64("seed", 1, "seed for owners and routes")
		seconds = flag.Int("seconds", 20, "run length on the reference machine; sets the round count")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "journeybench:", err)
		os.Exit(2)
	}
	res, tf, err := run(w, *seed, roundsFor(*seconds), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "journeybench:", err)
		os.Exit(1)
	}
	prov := currentProvenance(*seed)
	fmt.Println("provenance:", prov)
	if tf != nil {
		tf.Provenance = prov
		path := filepath.Join("journeybench", "out", fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := writeTrace(path, *tf); err != nil {
			fmt.Fprintln(os.Stderr, "journeybench: write trace:", err)
			os.Exit(1)
		}
		fmt.Println("trace:", path)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "journeybench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// roundSeconds is the nominal length of one round on the reference
// machine (2 cores): a run of --seconds s makes seconds/roundSeconds
// rounds, a fixed count, so every run of a workload does the same work.
const roundSeconds = 2.5

// roundsFor is the number of rounds a run of the given length makes.
func roundsFor(seconds int) int { return max(1, int(float64(seconds)/roundSeconds+0.5)) }

// run executes n rounds of the workload's plan, each on a fresh
// platform, and folds them into one result: the end-to-end metrics of
// all rounds, or the per-layer metrics of the traced middle round.
func run(w workload, seed int64, n int, traced bool) (result, *traceFile, error) {
	plan := makePlan(w, seed, w.warmup+w.journeys)
	var rounds []*round
	for len(rounds) < n {
		// A traced run traces its middle round, the one whose position
		// matches the median the end-to-end metrics take; the other
		// rounds run as in an untraced run, so the traced round sees
		// the same process history.
		r, err := runRound(w, plan, traced && len(rounds) == n/2)
		if err != nil {
			return result{}, nil, err
		}
		rounds = append(rounds, r)
		fmt.Fprintf(os.Stderr, "journeybench: %s round %d: %.1f journeys/s, p50 %v, p99 %v, late p50 %v, cpu %.3f ms/journey, steal %v, %d failed\n",
			w.name, len(rounds), float64(len(r.latencies))/r.window.Seconds(), quantile(r.latencies, 0.5),
			quantile(r.latencies, 0.99), quantile(lastTenth(r.latencies), 0.5),
			float64(r.cpu)/1e6/float64(w.journeys), r.steal, r.failed)
		for _, m := range r.mismatches {
			fmt.Fprintf(os.Stderr, "journeybench: round %d: %s\n", len(rounds), m)
		}
	}
	res := result{Correct: true}
	for _, r := range rounds {
		res.Attempted += len(plan)
		res.Failed += r.failed
		res.Correct = res.Correct && len(r.mismatches) == 0
	}
	if !traced {
		res.Metrics = endToEnd(w, rounds)
		return res, nil, nil
	}
	tr := rounds[n/2]
	res.Metrics = perLayer(tr)
	tf := &traceFile{Workload: w.name, PerLayer: res.Metrics,
		SelfTime: tr.tracer.summarize(), Spans: tr.tracer.spans}
	return res, tf, nil
}

// round is one fixed-count run of the plan on a fresh platform.
type round struct {
	setupEnd   time.Time
	window     time.Duration
	cpu        time.Duration   // process CPU time over the window
	steal      time.Duration   // machine-wide steal time over the window
	latencies  []time.Duration // measured journeys, in launch order
	failed     int
	mismatches []string

	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
	// liveHeap is the live heap after the round less the live heap
	// before its platform was built: what this platform keeps.
	liveHeap int64

	tracer *tracer
	layers map[string]float64 // traced rounds only
}

func runRound(w workload, plan []journeyPlan, traced bool) (*round, error) {
	var base, m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	c, err := newCluster(w)
	if err != nil {
		return nil, err
	}
	defer c.stop()
	r := &round{}
	warm := c.runJourneys("w", plan[:w.warmup], nil)
	r.setupEnd = time.Now()
	if traced {
		r.tracer = newTracer()
	}
	before := c.window()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0, steal0 := cpuTime(), stealTime()
	windowStart := time.Now()
	measured := c.runJourneys("j", plan[w.warmup:], r.tracer)
	r.window = time.Since(windowStart)
	r.cpu, r.steal = cpuTime()-cpu0, stealTime()-steal0
	runtime.ReadMemStats(&m1)
	r.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	after := c.window()

	all := append(warm, measured...)
	for _, o := range all {
		if o.err != nil {
			r.failed++
			if len(r.mismatches) < maxMismatches {
				r.mismatches = append(r.mismatches, o.err.Error())
			}
		}
	}
	for _, o := range measured {
		if o.err == nil {
			r.latencies = append(r.latencies, o.latency)
		}
	}
	obs, err := c.observe(all)
	if err != nil {
		return nil, err
	}
	r.mismatches = append(r.mismatches, check(w, plan, obs)...)
	last := measured[len(measured)-1]
	// The outcomes are dead from here on: the live heap grew by what
	// the platform keeps plus, when traced, the spans.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r.liveHeap = int64(m1.HeapAlloc) - int64(base.HeapAlloc)

	if traced && r.failed == 0 {
		// The standalone timings launch agents of their own, so every
		// counter of the round was read above, before them.
		if r.layers, err = layerTimings(c, r.tracer, plan[len(plan)-1], last.launched, last.back); err != nil {
			return nil, err
		}
		n := float64(w.journeys)
		for k, v := range obs.layerCounters {
			r.layers[k] = v
		}
		r.layers["netsim.bytes_per_journey"] = float64(after.netBytes-before.netBytes) / n
		r.layers["netsim.messages_per_journey"] = float64(after.netMessages-before.netMessages) / n
		r.layers["policy.epoch_bumps"] = float64(after.policyEpochs - before.policyEpochs)
		r.layers["runtime.gc_cycles"] = float64(r.gcCycles)
		r.layers["runtime.gc_pause_ms"] = float64(r.gcPause) / 1e6
		r.layers["cred.issue_us"] = float64(medianDuration(r.tracer.durations("cred.issue"))) / 1e3
		// LaunchAndWait is one call on the journey's path; the wait is
		// its median less the standalone Platform.Launch timing.
		r.layers["journey.await_ms"] = float64(medianDuration(r.tracer.durations("core.launch_and_wait")))/1e6 -
			r.layers["core.launch_us"]/1e3
		r.layers["journey.traced_p50_ms"] = float64(medianDuration(r.latencies)) / 1e6
		r.layers["journey.traced_p99_ms"] = float64(quantile(r.latencies, 0.99)) / 1e6
		r.layers["journey.attributed_share"] = attributedShare(w, r.layers)
	}
	return r, nil
}

// endToEnd folds the rounds into the end-to-end metrics: each is the
// median over rounds of that round's figure, so a round disturbed from
// outside the process moves no metric.
func endToEnd(w workload, rounds []*round) map[string]metric {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	perRound := func(f func(r *round) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return median(xs)
	}
	perSecond := func(r *round) float64 { return float64(len(r.latencies)) / r.window.Seconds() }
	return map[string]metric{
		"setup_s":        {rounds[0].setupEnd.Sub(procStart).Seconds(), "s"},
		"journeys_per_s": {perRound(perSecond), "1/s"},
		"journey_p50_ms": {perRound(func(r *round) float64 { return ms(quantile(r.latencies, 0.50)) }), "ms"},
		"late_journey_p50_ms": {perRound(func(r *round) float64 {
			return ms(quantile(lastTenth(r.latencies), 0.50))
		}), "ms"},
		"invokes_per_s": {perRound(func(r *round) float64 {
			return perSecond(r) * float64(w.invokesPerJourney())
		}), "1/s"},
		"alloc_bytes_per_journey": {perRound(func(r *round) float64 {
			return float64(r.allocBytes) / float64(w.journeys)
		}), "B"},
		"allocs_per_journey": {perRound(func(r *round) float64 {
			return float64(r.mallocs) / float64(w.journeys)
		}), "count"},
		"live_heap_mb": {perRound(func(r *round) float64 { return float64(r.liveHeap) / 1e6 }), "MB"},
		"cpu_ms_per_journey": {perRound(func(r *round) float64 {
			return float64(r.cpu) / 1e6 / float64(w.journeys)
		}), "ms"},
	}
}

// lastTenth is the last tenth of ds, at least one element if ds has any.
func lastTenth(ds []time.Duration) []time.Duration {
	return ds[len(ds)-min(max(len(ds)/10, 1), len(ds)):]
}

// quantile is the nearest-rank q-quantile of ds, 0 if ds is empty.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	ds = append([]time.Duration(nil), ds...)
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds))+0.5) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func medianDuration(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the time the machine's virtual CPUs were ready to run
// but held back by the hypervisor, from /proc/stat (0 where that is not
// available). It is printed beside each round, to tell a slow round on
// a busy host from a slow program.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100
}

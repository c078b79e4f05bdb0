package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/vm"
)

// small shrinks a workload to a test-sized round.
func small(w workload) workload {
	w.journeys, w.warmup = 24, 4
	return w
}

// TestWorkloadsComeHome runs every workload at a small size, untraced
// and traced, with every check on.
func TestWorkloadsComeHome(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		plan := makePlan(w, 7, w.warmup+w.journeys)
		for _, traced := range []bool{false, true} {
			r, err := runRound(w, plan, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.failed != 0 || len(r.mismatches) != 0 {
				t.Fatalf("%s traced=%v: %d failed, mismatches %q", w.name, traced, r.failed, r.mismatches)
			}
			if len(r.latencies) != w.journeys {
				t.Fatalf("%s: %d measured journeys, want %d", w.name, len(r.latencies), w.journeys)
			}
			if traced {
				for name := range layerUnits {
					if _, ok := r.layers[name]; !ok {
						t.Errorf("%s: traced round lacks %s", w.name, name)
					}
				}
				for name := range r.layers {
					if _, ok := layerUnits[name]; !ok {
						t.Errorf("%s: traced round has undeclared %s", w.name, name)
					}
				}
				if n := len(r.tracer.durations("journey")); n != w.journeys {
					t.Errorf("%s: %d journey spans, want %d", w.name, n, w.journeys)
				}
				if n := len(r.tracer.durations("core.launch_and_wait")); n != w.journeys {
					t.Errorf("%s: %d core.launch_and_wait spans, want %d", w.name, n, w.journeys)
				}
				if n := len(r.tracer.durations("layer.core.launch_us")); n != launchSamples {
					t.Errorf("%s: %d standalone launch spans, want %d", w.name, n, launchSamples)
				}
				// Counters are read before the standalone launches add
				// journeys of their own.
				if got, want := r.layers["server.arrivals"], float64(len(plan)*(w.hops+2)); got != want {
					t.Errorf("%s: server.arrivals %v, want the round's %v", w.name, got, want)
				}
			}
		}
	}
}

// observed runs a small plan on a fresh cluster and returns what the
// checks read, which must pass unaltered.
func observed(t *testing.T, w workload) ([]journeyPlan, observation) {
	t.Helper()
	c, err := newCluster(w)
	if err != nil {
		t.Fatal(err)
	}
	defer c.stop()
	plan := makePlan(w, 11, 12)
	obs, err := c.observe(c.runJourneys("j", plan, nil))
	if err != nil {
		t.Fatal(err)
	}
	if bad := check(w, plan, obs); len(bad) != 0 {
		t.Fatalf("%s: unaltered outputs reported incorrect: %q", w.name, bad)
	}
	return plan, obs
}

// clone deep-copies an observation so each alteration starts clean.
func clone(o observation) observation {
	c := o
	c.reports = make([][]vm.Value, len(o.reports))
	for i, r := range o.reports {
		c.reports[i] = make([]vm.Value, len(r))
		for k, v := range r {
			c.reports[i][k] = v.Clone()
		}
	}
	c.counters = append([]int64(nil), o.counters...)
	c.charges = append([]uint64(nil), o.charges...)
	return c
}

// TestChecksCatchAlteredOutputs feeds each check an altered output and
// expects it to be reported.
func TestChecksCatchAlteredOutputs(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		plan, obs := observed(t, w)
		alterations := map[string]func(o *observation){
			"report dropped": func(o *observation) { o.reports[3] = o.reports[3][:len(o.reports[3])-1] },
			"counter +1":     func(o *observation) { o.counters[1]++ },
			"charges +1":     func(o *observation) { o.charges[plan[0].owner]++ },
			"arrivals +1":    func(o *observation) { o.arrivals++ },
			"dispatches -1":  func(o *observation) { o.dispatches-- },
			"delivered -1":   func(o *observation) { o.delivered-- },
			"wrong server": func(o *observation) {
				o.reports[2][0].List[0] = vm.S(serverName((plan[2].route[0] + 1) % workers))
			},
		}
		if w.mailbox {
			alterations["received +1"] = func(o *observation) { o.reports[5][1].List[2].Int++ }
		}
		for name, alter := range alterations {
			o := clone(obs)
			alter(&o)
			if bad := check(w, plan, o); len(bad) == 0 {
				t.Errorf("%s: %s not reported", w.name, name)
			}
		}
	}
}

func TestPlanFromSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := makePlan(w, 3, 200), makePlan(w, 3, 200)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed, different plans", w.name)
		}
		if reflect.DeepEqual(a, makePlan(w, 4, 200)) {
			t.Fatalf("%s: seeds 3 and 4 gave the same plan", w.name)
		}
		for _, jp := range a {
			if len(jp.route) != w.hops || jp.owner < 0 || jp.owner >= owners {
				t.Fatalf("%s: bad journey %+v", w.name, jp)
			}
			for k := 1; k < len(jp.route); k++ {
				if jp.route[k] == jp.route[k-1] {
					t.Fatalf("%s: route %v repeats a worker", w.name, jp.route)
				}
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "journey", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // runs past the parent
	}}
	got := tr.summarize()
	// Children cover 10..60 and 90..100: 60 of the journey's 100 ns.
	if s := got["journey"]; s.Count != 1 || s.SelfMs != 40e-6 {
		t.Fatalf("journey summary %+v, want self 40ns", s)
	}
	if s := got["c"]; s.SelfMs != 30e-6 {
		t.Fatalf("leaf self time %+v, want its whole 30ns", s)
	}
}

func TestWorkloadLookupAndRounds(t *testing.T) {
	if _, err := workloadByName("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown workload accepted: %v", err)
	}
	if roundsFor(1) != 1 || roundsFor(20) != 8 {
		t.Fatalf("roundsFor(1)=%d roundsFor(20)=%d", roundsFor(1), roundsFor(20))
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the printed metrics
// in step: every workload, end-to-end and per-layer metric it declares
// is one the benchmark prints, with the same unit, and the reverse.
func TestBenchmarkFileMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	e2e := endToEnd(workloads[0], []*round{{latencies: []time.Duration{time.Millisecond}, window: time.Second}})
	compare := func(kind string, declared []decl, printed map[string]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: %d declared, %d printed", kind, len(declared), len(printed))
		}
		for _, d := range declared {
			if unit, ok := printed[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s: %s declared in %s, printed in %q", kind, d.Name, d.Unit, unit)
			}
		}
	}
	units := make(map[string]string)
	for name, m := range e2e {
		units[name] = m.Unit
	}
	compare("end_to_end", b.EndToEnd, units)
	compare("per_layer", b.PerLayer, layerUnits)
}

// TestFoldingWithoutLatencies folds a round in which every measured
// journey failed: the metrics must still be finite numbers.
func TestFoldingWithoutLatencies(t *testing.T) {
	if got := lastTenth(nil); len(got) != 0 {
		t.Fatalf("lastTenth(nil) = %v", got)
	}
	if got := lastTenth(make([]time.Duration, 25)); len(got) != 2 {
		t.Fatalf("last tenth of 25 has %d elements, want 2", len(got))
	}
	m := endToEnd(workloads[0], []*round{{window: time.Second}})
	if _, err := json.Marshal(m); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"fmt"

	"repro/internal/vm"
)

// observation is everything a round's checks look at, read from the
// program after the round: one report list per journey in plan order,
// each worker's counter value, each owner's charges summed over all
// servers, and the servers' arrival, dispatch and delivery totals.
// layerCounters holds the other public counters read in the same pass,
// for the per-layer table; the checks do not read them.
type observation struct {
	reports    [][]vm.Value
	counters   []int64
	charges    []uint64
	arrivals   uint64
	dispatches uint64
	delivered  uint64

	layerCounters map[string]float64
}

// maxMismatches caps how many mismatches a check lists.
const maxMismatches = 10

// check compares a round's observation with what the plan implies and
// returns the mismatches; none means the outputs are correct. The
// expected values come from the plan alone:
//   - each homecoming carries one report per planned stop, naming the
//     planned servers in order; on mailbox each stop received the value
//     it sent, and on access the closing get saw at least the journey's
//     own adds;
//   - each worker's counter equals the sum of the adds the plan sent
//     there (the counter starts at 0 on a fresh platform);
//   - each owner's charges equal the plan's invocations for that owner's
//     journeys times the costs the benchmark set;
//   - summed arrivals are journeys × (hops + 2), dispatches journeys ×
//     (hops + 1), and the home server delivered every journey.
func check(w workload, plan []journeyPlan, obs observation) []string {
	var bad []string
	fail := func(format string, args ...any) {
		if len(bad) < maxMismatches {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	if len(obs.reports) != len(plan) {
		fail("%d homecomings for %d planned journeys", len(obs.reports), len(plan))
	}
	counters := make([]int64, workers)
	charges := make([]uint64, owners)
	for j, jp := range plan {
		charges[jp.owner] += w.chargePerJourney()
		for k, wi := range jp.route {
			counters[wi] += int64(w.adds) * w.addAmount(k+1)
		}
		if j < len(obs.reports) {
			checkReports(w, jp, obs.reports[j], func(format string, args ...any) {
				fail("journey %d: "+format, append([]any{j}, args...)...)
			})
		}
	}
	if len(obs.counters) != len(counters) {
		fail("%d counters read, %d workers", len(obs.counters), len(counters))
	} else {
		for i, want := range counters {
			if obs.counters[i] != want {
				fail("worker %d counter = %d, plan sent %d", i, obs.counters[i], want)
			}
		}
	}
	if len(obs.charges) != len(charges) {
		fail("%d owner charge totals, %d owners", len(obs.charges), len(charges))
	} else {
		for i, want := range charges {
			if obs.charges[i] != want {
				fail("owner %d charged %d, plan implies %d", i, obs.charges[i], want)
			}
		}
	}
	n := uint64(len(plan))
	if want := n * uint64(w.hops+2); obs.arrivals != want {
		fail("arrivals = %d, want %d", obs.arrivals, want)
	}
	if want := n * uint64(w.hops+1); obs.dispatches != want {
		fail("dispatches = %d, want %d", obs.dispatches, want)
	}
	if obs.delivered != n {
		fail("home delivered %d, want %d", obs.delivered, n)
	}
	return bad
}

// checkReports checks one homecoming's reports against its plan.
func checkReports(w workload, jp journeyPlan, reports []vm.Value, fail func(string, ...any)) {
	if len(reports) != len(jp.route) {
		fail("%d reports for %d stops", len(reports), len(jp.route))
		return
	}
	for k, r := range reports {
		stop := k + 1
		if r.Kind != vm.KindList || len(r.List) < 2 || r.List[0].Kind != vm.KindStr {
			fail("stop %d: malformed report %s", stop, r.Text())
			continue
		}
		if got, want := r.List[0].Str, serverName(jp.route[k]); got != want {
			fail("stop %d: reported from %s, planned %s", stop, got, want)
		}
		switch {
		case w.mailbox:
			want := vm.I(sentValue(stop))
			if len(r.List) != 3 || !r.List[1].Equal(want) || !r.List[2].Equal(want) {
				fail("stop %d: mailbox sent/received %s, want %d both", stop, r.Text(), want.Int)
			}
		case w.adds > 1:
			if v := r.List[1]; v.Kind != vm.KindInt || v.Int < int64(w.adds) {
				fail("stop %d: get returned %s, below the journey's own %d adds", stop, v.Text(), w.adds)
			}
		default:
			if v := r.List[1]; v.Kind != vm.KindInt || v.Int < int64(stop) {
				fail("stop %d: add returned %s, below the stop's own add of %d", stop, v.Text(), stop)
			}
		}
	}
}

package main

import (
	"fmt"
	"math/rand"
)

// authority is the administrative domain of every benchmark platform.
const authority = "bench.example.org"

// Accounting costs the benchmark sets on each worker's counter. They
// differ from resource.DefaultCost so a charge billed at the default
// rate shows as a mismatch. Mailbox methods cannot be priced by their
// creator and carry the documented default of 1.
const (
	addCost  = 2
	getCost  = 3
	sendCost = 1
)

// Every platform has a home server, where the owners launch, and
// workers that the itineraries visit, each with its own counter.
const (
	workers = 3
	owners  = 4
)

// workload is one named journey mix. Every journey of a workload runs
// the same compiled bundle; only the owner and the route vary, and both
// come from the seed.
type workload struct {
	name string
	hops int // itinerary stops per journey
	// adds is the number of counter adds per stop; access makes many,
	// the others one.
	adds      int
	mailbox   bool // each stop makes, binds and uses its own mailbox
	admission bool // manifest admission enforced on every server
	// journeys is the measured count per round; warmup journeys run
	// first on the same platform and count toward set-up.
	journeys int
	warmup   int
}

// The workloads stress different layers. tour is mobility-bound: every
// journey is a fresh agent on four transfers, so credentials, bundle
// checks, the codec and the per-ack name rebind do most of the work, and
// the naming state grows with every agent. access is invocation-bound:
// one hop and thousands of proxied adds put the proxy screen, the policy
// decision cache, accounting and the VM in front. mailbox writes where
// access reads: each stop registers, grants and binds its own mailbox,
// and departed agents' mailboxes stay behind.
var workloads = []workload{
	{name: "tour", hops: 4, adds: 1, admission: true, journeys: 1000, warmup: 40},
	{name: "access", hops: 1, adds: 2000, journeys: 1000, warmup: 20},
	{name: "mailbox", hops: 2, adds: 1, mailbox: true, journeys: 1000, warmup: 40},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// journeyPlan is everything random about one journey: which owner
// launches it and which worker each stop visits.
type journeyPlan struct {
	owner int
	route []int // worker index per stop
}

// makePlan draws n journeys from the seed. Consecutive stops never
// repeat a worker, so every stop is a network transfer.
func makePlan(w workload, seed int64, n int) []journeyPlan {
	rng := rand.New(rand.NewSource(seed))
	plan := make([]journeyPlan, n)
	for i := range plan {
		jp := journeyPlan{owner: rng.Intn(owners), route: make([]int, w.hops)}
		prev := -1
		for k := range jp.route {
			next := rng.Intn(workers)
			if next == prev {
				next = (next + 1 + rng.Intn(workers-1)) % workers
			}
			jp.route[k] = next
			prev = next
		}
		plan[i] = jp
	}
	return plan
}

// addAmount is what stop k (1-based) adds to the counter per add call.
func (w workload) addAmount(stop int) int64 {
	if w.adds > 1 {
		return 1
	}
	return int64(stop)
}

// sentValue is the value stop k (1-based) sends to its own mailbox.
func sentValue(stop int) int64 { return int64(stop)*7 + 3 }

// invokesPerJourney counts the proxied resource invocations one journey
// makes: the counter calls at every stop plus, on mailbox, one send.
func (w workload) invokesPerJourney() int {
	perStop := w.adds
	if w.adds > 1 {
		perStop++ // the closing get
	}
	if w.mailbox {
		perStop++
	}
	return perStop * w.hops
}

// chargePerJourney is the accounting charge one journey bills its owner.
func (w workload) chargePerJourney() uint64 {
	perStop := uint64(w.adds) * addCost
	if w.adds > 1 {
		perStop += getCost
	}
	if w.mailbox {
		perStop += sendCost
	}
	return perStop * uint64(w.hops)
}

// source renders the workload's agent. Every variant reports exactly
// once per stop, and the report starts with the stop's server name.
func (w workload) source() string {
	counter := fmt.Sprintf("ajanta:resource:%s/counter", authority)
	switch {
	case w.mailbox:
		return fmt.Sprintf(`module mailbox
var stop = 0
func short(n) {
  var parts = split(n, "/")
  return parts[len(parts) - 1]
}
func main() {
  stop = stop + 1
  var path = "mbox-" + short(agent_name()) + "-" + short(server_name())
  var rn = "ajanta:resource:%s/" + path
  make_mailbox(rn, path)
  var m = get_resource(rn)
  var sent = stop * 7 + 3
  invoke(m, "send", sent)
  var got = recv()
  var c = get_resource("%s")
  invoke(c, "add", stop)
  report([server_name(), sent, got])
}`, authority, counter)
	case w.adds > 1:
		return fmt.Sprintf(`module access
func main() {
  var c = get_resource("%s")
  var i = 0
  while i < %d {
    invoke(c, "add", 1)
    i = i + 1
  }
  report([server_name(), invoke(c, "get")])
}`, counter, w.adds)
	default:
		return fmt.Sprintf(`module tour
var stop = 0
func main() {
  stop = stop + 1
  var c = get_resource("%s")
  report([server_name(), invoke(c, "add", stop)])
}`, counter)
	}
}

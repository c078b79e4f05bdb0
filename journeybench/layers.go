package main

import (
	"fmt"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/names"
	"repro/internal/resource"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// minTiming is how long each standalone layer timing repeats its call.
const minTiming = 20 * time.Millisecond

// perOp times f, doubling the repetitions until one batch takes at
// least minTiming, records the batch as a layer.<name> span and returns
// the time per call.
func perOp(tr *tracer, name string, f func(i int) error) (time.Duration, error) {
	for reps := 1; ; reps *= 2 {
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := f(i); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		end := time.Now()
		if d := end.Sub(start); d >= minTiming {
			tr.record("layer."+name, "", 0, start, end)
			return d / time.Duration(reps), nil
		}
	}
}

// launchSamples is how many launches the standalone Platform.Launch
// timing takes the median of.
const launchSamples = 64

// layerTimings times each layer's public call on its own, after the
// measured window, on the run's own agents: launched is an agent as its
// owner built it, back the same journey's agent after homecoming, and
// jp that journey's plan. Name tables are filled to the sizes the run
// ended at.
func layerTimings(c *cluster, tr *tracer, jp journeyPlan, launched, back *agent.Agent) (map[string]float64, error) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ns := func(d time.Duration) float64 { return float64(d) }
	m := make(map[string]float64)
	var firstErr error
	timeIt := func(name string, scale func(time.Duration) float64, f func(i int) error) {
		if firstErr != nil {
			return
		}
		d, err := perOp(tr, name, f)
		if err != nil {
			firstErr = err
			return
		}
		m[name] = scale(d)
	}

	verifier := c.p.CA.Verifier()
	timeIt("cred.verify_us", us, func(int) error { return back.Credentials.Verify(verifier, time.Now()) })
	wire, err := back.Encode()
	if err != nil {
		return nil, err
	}
	m["agent.wire_bytes"] = float64(len(wire))
	timeIt("agent.encode_us", us, func(int) error { _, err := back.Encode(); return err })
	timeIt("agent.decode_us", us, func(int) error { _, err := agent.Decode(wire); return err })
	timeIt("agent.digest_us", us, func(int) error { _, err := agent.BundleDigest(back.Code); return err })
	timeIt("vm.verify_us", us, func(int) error { return vm.VerifyBundle(back.Code) })
	timeIt("analysis.manifest_us", us, func(int) error { _, err := analysis.ComputeManifest(back.Code); return err })

	pol := c.workers[0].Policy()
	gate := admission.NewGate(pol, nil)
	digest := launched.Credentials.Digest()
	timeIt("admission.admit_ns", ns, func(int) error {
		tk, err := gate.Admit(launched.Credentials.Owner, digest)
		tk.Release()
		return err
	})

	// Name tables: a fresh authority holding every name the run's
	// authority ended with, and a resolver observing all of them; then
	// rebind / re-observe those names at a new location, as the
	// ack-piggybacked rebind does for a migrating agent.
	bound := c.p.NS.Snapshot()
	all := make([]names.Name, 0, len(bound))
	svc := names.NewService()
	res := names.NewResolver(svc, names.ResolverConfig{})
	for n, loc := range bound {
		if err := svc.Bind(n, loc); err != nil {
			return nil, err
		}
		res.Observe(n, loc)
		all = append(all, n)
	}
	moved := names.Location{Address: "elsewhere:7000", ServerName: c.home.Name()}
	timeIt("names.bind_us", us, func(i int) error { return svc.Bind(all[i%len(all)], moved) })
	timeIt("names.observe_us", us, func(i int) error { res.Observe(all[i%len(all)], moved); return nil })

	// A counter proxy granted outside any server, invoked through the
	// metered path every server invocation takes.
	def := core.CounterResource(names.Resource(authority, "counter"), "counter")
	def.Costs = map[string]uint64{"add": addCost, "get": getCost}
	const caller = 2 // any agent protection domain
	proxy, err := def.GetProxy(resource.Request{Caller: caller, Creds: &launched.Credentials,
		Policy: pol, Now: time.Now()})
	if err != nil {
		return nil, err
	}
	one := []vm.Value{vm.I(1)}
	timeIt("resource.invoke_ns", ns, func(int) error { _, _, err := proxy.InvokeMetered(caller, "add", one); return err })
	methods := def.MethodNames()
	timeIt("policy.decide_ns", ns, func(int) error {
		if g := pol.Decide(&launched.Credentials, def.Path, methods); g.Empty() {
			return fmt.Errorf("counter access denied")
		}
		return nil
	})
	if firstErr != nil {
		return nil, firstErr
	}

	// Platform.Launch alone: fresh agents on the same plan, each timed
	// from the call to its return and then waited for, untimed, so one
	// journey runs at a time. These journeys come after every counter
	// of the round was read.
	launches := make([]time.Duration, launchSamples)
	for i := range launches {
		name := fmt.Sprintf("l%d", i)
		a, err := c.build(name, jp, nil, 0)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ch, err := c.p.Launch(c.home, a)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("core.launch_us: %w", err)
		}
		tr.record("layer.core.launch_us", name, 0, start, end)
		launches[i] = end.Sub(start)
		select {
		case <-ch:
		case <-time.After(journeyTimeout):
			return nil, fmt.Errorf("core.launch_us: agent %s did not return within %v", name, journeyTimeout)
		}
	}
	m["core.launch_us"] = us(medianDuration(launches))
	return m, nil
}

// attributedShare sums the layer times on a journey's blocking path and
// divides them by the traced run's median journey: credential issue and
// launch once, and per transfer (hops + 1, the homecoming included) the
// encode, decode, credential verify, bundle verify and digest, the
// manifest check where admission is enforced, and the ack's name rebind
// and resolver observe.
func attributedShare(w workload, l map[string]float64) float64 {
	perTransfer := l["agent.encode_us"] + l["agent.decode_us"] + l["cred.verify_us"] +
		l["vm.verify_us"] + l["agent.digest_us"] + l["names.bind_us"] + l["names.observe_us"]
	if w.admission {
		perTransfer += l["analysis.manifest_us"]
	}
	totalUs := l["cred.issue_us"] + l["core.launch_us"] + float64(w.hops+1)*perTransfer
	return totalUs / 1e3 / l["journey.traced_p50_ms"]
}

// perLayer is the traced round's per-layer table; a round that had a
// failed journey has none.
func perLayer(r *round) map[string]metric {
	out := make(map[string]metric)
	for name, v := range r.layers {
		out[name] = metric{v, layerUnits[name]}
	}
	return out
}

// layerUnits names every per-layer metric with its unit.
var layerUnits = map[string]string{
	"cred.issue_us":               "us",
	"cred.verify_us":              "us",
	"agent.encode_us":             "us",
	"agent.decode_us":             "us",
	"agent.wire_bytes":            "B",
	"agent.digest_us":             "us",
	"vm.verify_us":                "us",
	"analysis.manifest_us":        "us",
	"admission.admit_ns":          "ns",
	"core.launch_us":              "us",
	"journey.await_ms":            "ms",
	"journey.traced_p50_ms":       "ms",
	"journey.traced_p99_ms":       "ms",
	"names.bind_us":               "us",
	"names.observe_us":            "us",
	"names.authority_entries":     "count",
	"names.resolver_hits":         "count",
	"names.resolver_misses":       "count",
	"names.resolver_stale":        "count",
	"transfer.pool_dials":         "count",
	"transfer.pool_reuse_ratio":   "ratio",
	"netsim.bytes_per_journey":    "B",
	"netsim.messages_per_journey": "count",
	"resource.invoke_ns":          "ns",
	"policy.decide_ns":            "ns",
	"policy.epoch_bumps":          "count",
	"policy.cache_hit_ratio":      "ratio",
	"registry.entries":            "count",
	"server.arrivals":             "count",
	"server.dispatches":           "count",
	"server.retries":              "count",
	"server.sheds":                "count",
	"server.parked":               "count",
	"domain.charges":              "count",
	"runtime.gc_cycles":           "count",
	"runtime.gc_pause_ms":         "ms",
	"journey.attributed_share":    "ratio",
}

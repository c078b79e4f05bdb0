package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/asl"
	"repro/internal/core"
	"repro/internal/cred"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/server"
	"repro/internal/vm"
	"repro/internal/vm/analysis"
)

// clients is the number of closed-loop clients: each launches a journey
// and waits for its homecoming before launching the next one.
const clients = 2

// journeyTimeout bounds one journey; a journey that does not come home
// in time counts as failed.
const journeyTimeout = 30 * time.Second

// cluster is one fresh platform: a home server, the workers with their
// counters, the owners, and the workload's bundle compiled once.
type cluster struct {
	w        workload
	p        *core.Platform
	home     *server.Server
	workers  []*server.Server
	counters []*resource.Def
	owners   []keys.Identity

	mainModule string
	bundle     []vm.Module
	digest     []byte
	manifest   *analysis.Manifest
}

// counterRules lets every principal use the counter's methods.
var counterRules = []policy.Rule{{AnyPrincipal: true, Resource: "counter", Methods: []string{"*"}}}

func newCluster(w workload) (*cluster, error) {
	p, err := core.NewPlatform(authority)
	if err != nil {
		return nil, err
	}
	c := &cluster{w: w, p: p}
	mode := server.AdmissionOff
	if w.admission {
		mode = server.AdmissionEnforce
	}
	cfg := core.ServerConfig{Rules: counterRules, Admission: mode}
	if c.home, err = p.StartServer("home", "home:7000", cfg); err != nil {
		c.stop()
		return nil, fmt.Errorf("start home: %w", err)
	}
	for i := 0; i < workers; i++ {
		s, err := p.StartServer(fmt.Sprintf("w%d", i), fmt.Sprintf("w%d:7000", i), cfg)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("start worker %d: %w", i, err)
		}
		def := core.CounterResource(names.Resource(authority, "counter"), "counter")
		def.Costs = map[string]uint64{"add": addCost, "get": getCost}
		if err := core.InstallResource(s, def); err != nil {
			c.stop()
			return nil, fmt.Errorf("install counter on worker %d: %w", i, err)
		}
		c.workers = append(c.workers, s)
		c.counters = append(c.counters, def)
	}
	for i := 0; i < owners; i++ {
		id, err := p.NewOwner(fmt.Sprintf("owner%d", i))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.owners = append(c.owners, id)
	}
	main, err := asl.Compile(w.source())
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("compile %s agent: %w", w.name, err)
	}
	c.mainModule = main.Name
	c.bundle = []vm.Module{*main}
	if c.digest, err = agent.BundleDigest(c.bundle); err != nil {
		c.stop()
		return nil, err
	}
	if c.manifest, err = analysis.ComputeManifest(c.bundle); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) stop() { c.p.StopAll() }

// servers lists the home server first, then the workers.
func (c *cluster) servers() []*server.Server {
	return append([]*server.Server{c.home}, c.workers...)
}

// outcome is what one journey brought home.
type outcome struct {
	latency time.Duration
	results []vm.Value
	err     error
	// launched and back are the agent as built and as it came home,
	// kept for the last journey of a traced round only, for the
	// standalone layer timings.
	launched, back *agent.Agent
}

// build issues the journey's credentials and assembles its agent, the
// way an owner's application does before launching.
func (c *cluster) build(name string, jp journeyPlan, tr *tracer, root int) (*agent.Agent, error) {
	owner := c.owners[jp.owner]
	an := names.Agent(authority, name)
	t0 := time.Now()
	creds, err := cred.IssueForCode(owner, an, owner.Name, cred.NewRightSet(cred.All),
		core.DefaultTTL, c.home.Address(), c.digest)
	t1 := time.Now()
	tr.record("cred.issue", name, root, t0, t1)
	if err != nil {
		return nil, err
	}
	stops := make([]names.Name, len(jp.route))
	for k, wi := range jp.route {
		stops[k] = c.workers[wi].Name()
	}
	a, err := agent.New(creds, c.mainModule, c.bundle, agent.Sequence("main", stops...))
	tr.record("agent.new", name, root, t1, time.Now())
	if err != nil {
		return nil, err
	}
	a.Manifest = c.manifest
	return a, nil
}

// journey runs one agent from credential issue to homecoming through
// Platform.LaunchAndWait, the call an owner's application makes; a
// traced journey records that call as one span. keep retains the agent
// as built and as it came home.
func (c *cluster) journey(name string, jp journeyPlan, tr *tracer, keep bool) outcome {
	root := tr.newID()
	start := time.Now()
	a, err := c.build(name, jp, tr, root)
	if err != nil {
		return outcome{err: err}
	}
	launched := time.Now()
	back, err := c.p.LaunchAndWait(c.home, a, journeyTimeout)
	end := time.Now()
	tr.record("core.launch_and_wait", name, root, launched, end)
	tr.recordID(root, "journey", name, 0, start, end)
	if err != nil {
		return outcome{err: err}
	}
	o := outcome{latency: end.Sub(start), results: back.Results}
	if keep {
		o.launched, o.back = a, back
	}
	return o
}

// runJourneys runs the plan's journeys with the closed-loop clients, which
// take journeys in plan order from a shared cursor. Outcomes are
// indexed like the plan slice.
func (c *cluster) runJourneys(prefix string, plan []journeyPlan, tr *tracer) []outcome {
	out := make([]outcome, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(plan) {
					return
				}
				keep := tr != nil && j == len(plan)-1
				out[j] = c.journey(fmt.Sprintf("%s%d", prefix, j), plan[j], tr, keep)
			}
		}()
	}
	wg.Wait()
	return out
}

// settleTimeout bounds the wait for counters that lag a homecoming.
const settleTimeout = 5 * time.Second

// settle waits until the summed dispatch count and the home server's
// delivery count reach what n finished journeys imply, or settleTimeout
// passes. Both lag the homecoming the owner sees: a sender counts a
// dispatch only after the receiver's ack returns, and the home server
// counts a delivery after handing the agent over, so right after the
// last journey comes home either can still be one short. The checks
// then compare exact totals.
func (c *cluster) settle(n int) {
	wantDispatches := uint64(n * (c.w.hops + 1))
	for deadline := time.Now().Add(settleTimeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var dispatches uint64
		for _, s := range c.servers() {
			dispatches += s.Stats().Dispatches
		}
		if dispatches >= wantDispatches && c.home.Stats().Delivered >= uint64(n) {
			return
		}
	}
}

// observe reads the outputs the checks compare against the plan: each
// worker's counter through its get method, every owner's charges over
// all servers, and the servers' arrival, dispatch and delivery totals.
// The same pass over the servers reads each layer's other public
// counters for the per-layer table.
func (c *cluster) observe(outcomes []outcome) (observation, error) {
	c.settle(len(outcomes))
	obs := observation{charges: make([]uint64, len(c.owners))}
	for _, o := range outcomes {
		obs.reports = append(obs.reports, o.results)
	}
	for i, def := range c.counters {
		v, err := def.Methods["get"](nil)
		if err != nil || v.Kind != vm.KindInt {
			return obs, fmt.Errorf("read counter on worker %d: %v", i, err)
		}
		obs.counters = append(obs.counters, v.Int)
	}
	var (
		resolverHits, resolverMisses, resolverStale uint64
		dials, reuses, cacheHits, cacheMisses       uint64
		regEntries, charges                         uint64
		retries, sheds, parked                      uint64
	)
	for _, s := range c.servers() {
		for i, o := range c.owners {
			ch := s.Charges(o.Name)
			obs.charges[i] += ch
			charges += ch
		}
		st := s.Stats()
		obs.arrivals += st.Arrivals
		obs.dispatches += st.Dispatches
		retries += st.Retries
		sheds += st.ShedRateLimit + st.ShedConcurrency
		parked += st.Parked
		rs := s.ResolverStats()
		resolverHits += rs.Hits + rs.HintServes
		resolverMisses += rs.Misses
		resolverStale += rs.StaleServes
		ps := s.ChannelPoolStats()
		dials += ps.Dials
		reuses += ps.Reuses
		h, m := s.DecisionCacheStats()
		cacheHits += h
		cacheMisses += m
		regEntries += uint64(s.Registry().Len())
	}
	obs.delivered = c.home.Stats().Delivered
	obs.layerCounters = map[string]float64{
		"names.authority_entries":   float64(c.p.NS.Len()),
		"names.resolver_hits":       float64(resolverHits),
		"names.resolver_misses":     float64(resolverMisses),
		"names.resolver_stale":      float64(resolverStale),
		"transfer.pool_dials":       float64(dials),
		"transfer.pool_reuse_ratio": ratio(reuses, dials),
		"policy.cache_hit_ratio":    ratio(cacheHits, cacheMisses),
		"registry.entries":          float64(regEntries),
		"server.arrivals":           float64(obs.arrivals),
		"server.dispatches":         float64(obs.dispatches),
		"server.retries":            float64(retries),
		"server.sheds":              float64(sheds),
		"server.parked":             float64(parked),
		"domain.charges":            float64(charges),
	}
	return obs, nil
}

// serverName is the global name string of worker i, as the agent
// reports it.
func serverName(i int) string {
	return names.Server(authority, fmt.Sprintf("w%d", i)).String()
}

// windowCounters are the program counters read on both sides of the
// measured window.
type windowCounters struct {
	netBytes, netMessages, policyEpochs uint64
}

func (c *cluster) window() windowCounters {
	wc := windowCounters{netBytes: c.p.Net.BytesSent(), netMessages: c.p.Net.Messages()}
	for _, s := range c.servers() {
		wc.policyEpochs += s.Policy().Epoch()
	}
	return wc
}

// ratio is good / (good + bad), 0 when both are 0.
func ratio(good, bad uint64) float64 {
	if good+bad == 0 {
		return 0
	}
	return float64(good) / float64(good+bad)
}

// Benchmarks regenerating the paper's quantitative claims (experiments
// C1–C15 and figure F6 in DESIGN.md / EXPERIMENTS.md, with C14 in
// bench_vm_test.go), plus the ablation benches DESIGN.md calls out.
// They are the only definition of each experiment. Run with:
//
//	go test -bench=. -benchmem .
package ajanta_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/asl"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cred"
	"repro/internal/domain"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/netsim"
	"repro/internal/policy"
	"repro/internal/registry"
	"repro/internal/resource"
	"repro/internal/rpcbase"
	"repro/internal/server"
	"repro/internal/transfer"
	"repro/internal/vm"
)

// --- shared fixtures -----------------------------------------------------

const benchAgentDom = domain.ID(2)

func benchCreds(b *testing.B) (*cred.Credentials, keys.Identity, *keys.Registry) {
	b.Helper()
	reg, err := keys.NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		b.Fatal(err)
	}
	owner, err := keys.NewIdentity(reg, names.Principal("umn.edu", "alice"), time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cred.Issue(owner, names.Agent("umn.edu", "bench"),
		names.Principal("umn.edu", "app"), cred.NewRightSet(cred.All), time.Hour, "home")
	if err != nil {
		b.Fatal(err)
	}
	return &c, owner, reg
}

func benchCounterDef() *resource.Def {
	var (
		mu  sync.Mutex
		val int64
	)
	return &resource.Def{
		ResourceImpl: resource.NewImpl(names.Resource("umn.edu", "counter"),
			names.Principal("umn.edu", "admin"), ""),
		Path: "counter",
		Methods: map[string]resource.Method{
			"get": func([]vm.Value) (vm.Value, error) {
				mu.Lock()
				defer mu.Unlock()
				return vm.I(val), nil
			},
			"add": func(args []vm.Value) (vm.Value, error) {
				mu.Lock()
				defer mu.Unlock()
				val += args[0].Int
				return vm.I(val), nil
			},
		},
	}
}

func openPolicy(paths ...string) *policy.Engine {
	eng := policy.NewEngine()
	for _, p := range paths {
		eng.AddRule(policy.Rule{AnyPrincipal: true, Resource: p, Methods: []string{"*"}})
	}
	return eng
}

// --- F6: the resource binding protocol, step by step ----------------------

func BenchmarkF6_BindingSteps(b *testing.B) {
	creds, _, _ := benchCreds(b)
	def := benchCounterDef()
	eng := openPolicy("counter")
	reg := registry.New()
	if err := reg.Register(registry.Entry{
		Name: def.Name, Resource: def, AP: def, OwnerDomain: domain.ServerID,
	}); err != nil {
		b.Fatal(err)
	}

	b.Run("step3_registry_lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := reg.Lookup(def.Name); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("step4_getProxy_upcall", func(b *testing.B) {
		req := resource.Request{Caller: benchAgentDom, Creds: creds, Policy: eng}
		for i := 0; i < b.N; i++ {
			if _, err := def.GetProxy(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	proxy, err := def.GetProxy(resource.Request{Caller: benchAgentDom, Creds: creds, Policy: eng})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("step6_proxy_invoke", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := proxy.Invoke(benchAgentDom, "get", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full_bind_once_then_invoke", func(b *testing.B) {
		e, _ := reg.Lookup(def.Name)
		p, err := e.AP.GetProxy(resource.Request{Caller: benchAgentDom, Creds: creds, Policy: eng})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Invoke(benchAgentDom, "get", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- C1: per-invocation cost of the four access-control designs ----------

func benchDesigns(b *testing.B) []baseline.Design {
	b.Helper()
	eng := openPolicy("counter")
	dual := baseline.NewDualEnvDesign(benchCounterDef(), eng)
	b.Cleanup(dual.Close)
	return []baseline.Design{
		baseline.NewProxyDesign(benchCounterDef(), eng),
		baseline.NewFig5Design(benchCounterDef(), eng),
		baseline.NewWrapperDesign(benchCounterDef(), eng),
		baseline.NewSecMgrDesign(benchCounterDef(), eng),
		dual,
	}
}

func BenchmarkC1_AccessDesigns(b *testing.B) {
	creds, _, _ := benchCreds(b)
	for _, d := range benchDesigns(b) {
		b.Run(d.Name(), func(b *testing.B) {
			acc, err := d.Bind(benchAgentDom, creds)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := acc.Invoke(benchAgentDom, "get", nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- C2: setup-vs-steady-state crossover ----------------------------------

func BenchmarkC2_SetupCrossover(b *testing.B) {
	creds, _, _ := benchCreds(b)
	for _, calls := range []int{1, 10, 100, 1000} {
		for _, d := range benchDesigns(b) {
			b.Run(fmt.Sprintf("%s/calls=%d", d.Name(), calls), func(b *testing.B) {
				var dom uint64 = 100 // fresh domain per iteration = fresh binding
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dom++
					acc, err := d.Bind(domain.ID(dom), creds)
					if err != nil {
						b.Fatal(err)
					}
					for k := 0; k < calls; k++ {
						if _, err := acc.Invoke(domain.ID(dom), "get", nil); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// --- C3: RPC vs REV bytes and time over the simulated network -------------

func BenchmarkC3_RPCvsREVvsAgent(b *testing.B) {
	const (
		servers = 3
		records = 500
		payload = 128
	)
	start := func(b *testing.B) (*netsim.Network, []string) {
		nw := netsim.NewNetwork()
		addrs := make([]string, servers)
		for i := range addrs {
			addr := fmt.Sprintf("store%d:1", i)
			l, err := nw.Listen(addr)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { _ = l.Close() })
			go (&rpcbase.Server{Store: rpcbase.NewStore(records, payload)}).Serve(l)
			addrs[i] = addr
		}
		return nw, addrs
	}
	for _, sel := range []struct {
		name      string
		threshold int64
	}{{"sel=1pct", 98}, {"sel=10pct", 89}, {"sel=50pct", 49}, {"sel=100pct", -1}} {
		b.Run("rpc/"+sel.name, func(b *testing.B) {
			nw, addrs := start(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rpcbase.RPCClient(nw.Dial, addrs, sel.threshold); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nw.BytesSent())/float64(b.N), "wire-bytes/op")
		})
		b.Run("rev/"+sel.name, func(b *testing.B) {
			nw, addrs := start(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rpcbase.REVClient(nw.Dial, addrs, sel.threshold); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nw.BytesSent())/float64(b.N), "wire-bytes/op")
		})
	}
}

// BenchmarkC3_AgentLive measures the REAL bytes a mobile agent puts on
// the (simulated) wire for the same filter workload the RPC/REV benches
// run: 3 servers x 500 records x 128 B payload. One op = one full tour
// including secure transfers and homecoming. Compare the
// wire-bytes/op metric with the rpc/rev benches above.
func BenchmarkC3_AgentLive(b *testing.B) {
	const (
		servers = 3
		records = 500
		payload = 128
	)
	for _, sel := range []struct {
		name      string
		threshold int64
	}{{"sel=10pct", 89}, {"sel=100pct", -1}} {
		b.Run("agent/"+sel.name, func(b *testing.B) {
			p, err := core.NewPlatform("bench.org")
			if err != nil {
				b.Fatal(err)
			}
			defer p.StopAll()
			open := []policy.Rule{{AnyPrincipal: true, Resource: "store", Methods: []string{"*"}}}
			var tour []names.Name
			scores := make([]int64, records)
			for i := range scores {
				scores[i] = int64(i % 100)
			}
			pay := string(make([]byte, payload))
			for i := 0; i < servers; i++ {
				short := fmt.Sprintf("s%d", i)
				srv, err := p.StartServer(short, short+":7000",
					core.ServerConfig{Rules: open, Fuel: 500_000_000})
				if err != nil {
					b.Fatal(err)
				}
				if err := core.InstallResource(srv, core.RecordStoreResource(
					names.Resource("bench.org", "store-"+short), "store", scores, pay)); err != nil {
					b.Fatal(err)
				}
				tour = append(tour, srv.Name())
			}
			home, err := p.StartServer("home", "home:7000", core.ServerConfig{})
			if err != nil {
				b.Fatal(err)
			}
			owner, err := p.NewOwner("bench")
			if err != nil {
				b.Fatal(err)
			}
			src := fmt.Sprintf(`module c3
var results = []
func visit() {
  var parts = split(server_name(), "/")
  var short = parts[len(parts) - 1]
  var st = get_resource("ajanta:resource:bench.org/store-" + short)
  var hits = invoke(st, "scan", %d)
  var k = 0
  while k < len(hits) {
    results = append(results, invoke(st, "fetch", hits[k]))
    k = k + 1
  }
}`, sel.threshold)
			p.Net.ResetCounters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := p.BuildAgent(core.AgentSpec{
					Owner:     owner,
					Name:      fmt.Sprintf("c3-%d-%d", sel.threshold+1, i),
					Source:    src,
					Itinerary: agentTour("visit", tour),
					Home:      home,
				})
				if err != nil {
					b.Fatal(err)
				}
				back, err := p.LaunchAndWait(home, a, 60*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				if len(back.Log) > 0 {
					b.Fatalf("agent logged errors: %v", back.Log)
				}
			}
			b.ReportMetric(float64(p.Net.BytesSent())/float64(b.N), "wire-bytes/op")
		})
	}
}

// agentTour builds an itinerary without importing agent in two places.
func agentTour(entry string, servers []names.Name) agent.Itinerary {
	return agent.Sequence(entry, servers...)
}

// --- C4: accounting overhead ----------------------------------------------

func BenchmarkC4_Accounting(b *testing.B) {
	creds, _, _ := benchCreds(b)
	eng := openPolicy("counter")

	b.Run("plain_proxy", func(b *testing.B) {
		def := benchCounterDef()
		p, err := def.GetProxy(resource.Request{Caller: benchAgentDom, Creds: creds, Policy: eng})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = p.Invoke(benchAgentDom, "get", nil)
		}
	})
	b.Run("elapsed_metering", func(b *testing.B) {
		def := benchCounterDef()
		def.MeterElapsed = true
		p, err := def.GetProxy(resource.Request{Caller: benchAgentDom, Creds: creds, Policy: eng})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = p.Invoke(benchAgentDom, "get", nil)
		}
	})
	b.Run("usage_hook", func(b *testing.B) {
		def := benchCounterDef()
		var uses uint64
		def.OnUse = func(domain.ID, string, uint64) { uses++ }
		p, err := def.GetProxy(resource.Request{Caller: benchAgentDom, Creds: creds, Policy: eng})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = p.Invoke(benchAgentDom, "get", nil)
		}
	})
	b.Run("direct_call_no_protection", func(b *testing.B) {
		def := benchCounterDef()
		fn := def.Methods["get"]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, _ = fn(nil)
		}
	})
}

// --- C5: identity-based capability check ----------------------------------

func BenchmarkC5_IdentityCheck(b *testing.B) {
	creds, _, _ := benchCreds(b)
	eng := openPolicy("counter")
	def := benchCounterDef()
	p, err := def.GetProxy(resource.Request{Caller: benchAgentDom, Creds: creds, Policy: eng})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("holder_passes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Invoke(benchAgentDom, "get", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("thief_rejected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Invoke(domain.ID(99), "get", nil); err == nil {
				b.Fatal("stolen proxy worked")
			}
		}
	})
	// Ablation: identify the caller through a shared mutex-guarded
	// goroutine→domain map instead of the env-carried token.
	b.Run("ablation_domain_map", func(b *testing.B) {
		var mu sync.RWMutex
		m := map[int64]domain.ID{1: benchAgentDom}
		lookup := func(gid int64) domain.ID {
			mu.RLock()
			defer mu.RUnlock()
			return m[gid]
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			caller := lookup(1)
			if _, err := p.Invoke(caller, "get", nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- C6: revocation --------------------------------------------------------

func BenchmarkC6_Revocation(b *testing.B) {
	creds, _, _ := benchCreds(b)
	eng := openPolicy("counter")
	def := benchCounterDef()

	b.Run("revoke_one_proxy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := def.GetProxy(resource.Request{Caller: benchAgentDom, Creds: creds, Policy: eng})
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Revoke(domain.ServerID); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("post_revocation_denial", func(b *testing.B) {
		p, _ := def.GetProxy(resource.Request{Caller: benchAgentDom, Creds: creds, Policy: eng})
		_ = p.Revoke(domain.ServerID)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Invoke(benchAgentDom, "get", nil); err == nil {
				b.Fatal("revoked proxy worked")
			}
		}
	})
	b.Run("selective_disable_enable", func(b *testing.B) {
		p, _ := def.GetProxy(resource.Request{Caller: benchAgentDom, Creds: creds, Policy: eng})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.DisableMethod(domain.ServerID, "get"); err != nil {
				b.Fatal(err)
			}
			if err := p.EnableMethod(domain.ServerID, "get"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- C7: transfer security cost ---------------------------------------------

func benchTransferAgent(b *testing.B, reg *keys.Registry, owner keys.Identity, stateBytes int) *agent.Agent {
	b.Helper()
	c, err := cred.Issue(owner, names.Agent("umn.edu", "wire"),
		names.Principal("umn.edu", "app"), cred.NewRightSet(cred.All), time.Hour, "home")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := asl.Compile("module wire\nfunc main() { return 1 }")
	if err != nil {
		b.Fatal(err)
	}
	a, err := agent.New(c, "wire", []vm.Module{*mod}, agent.Itinerary{})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, stateBytes)
	a.State["blob"] = vm.S(string(payload))
	return a
}

func BenchmarkC7_TransferSecurity(b *testing.B) {
	_, owner, reg := benchCreds(b)
	mkEndpoints := func(b *testing.B, plaintext bool) (*transfer.Endpoint, *transfer.Endpoint) {
		idA, err := keys.NewIdentity(reg, names.Server("umn.edu", "bench-a"+fmt.Sprint(plaintext)), time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		idB, err := keys.NewIdentity(reg, names.Server("umn.edu", "bench-b"+fmt.Sprint(plaintext)), time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		v := reg.Verifier()
		return &transfer.Endpoint{Identity: idA, Verifier: v, Plaintext: plaintext},
			&transfer.Endpoint{Identity: idB, Verifier: v, Plaintext: plaintext}
	}
	for _, mode := range []struct {
		name      string
		plaintext bool
	}{{"secure", false}, {"plaintext_baseline", true}} {
		for _, size := range []int{1 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/state=%dKiB", mode.name, size>>10), func(b *testing.B) {
				sender, receiver := mkEndpoints(b, mode.plaintext)
				nw := netsim.NewNetwork()
				l, err := nw.Listen("b:1")
				if err != nil {
					b.Fatal(err)
				}
				defer l.Close()
				go func() {
					for {
						conn, err := l.Accept()
						if err != nil {
							return
						}
						_ = receiver.ServeConn(conn, nil, nil)
						conn.Close()
					}
				}()
				// Reset after every Send closes the session, so each op
				// pays dial + handshake + one exchange.
				pool := transfer.NewPool(sender, transfer.PoolConfig{Dial: nw.Dial})
				defer pool.Close()
				a := benchTransferAgent(b, reg, owner, size)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := pool.Send("b:1", a); err != nil {
						b.Fatal(err)
					}
					pool.Reset()
				}
				b.ReportMetric(float64(nw.BytesSent())/float64(b.N), "wire-bytes/op")
			})
		}
	}
}

// BenchmarkC7_Pooled re-runs the secure-transfer benchmark over a warm
// channel pool: the session is dialed and authenticated once, then every
// transfer rides it, so steady state pays the agent codec + AES-GCM only
// — no per-transfer key exchange, certificate verification or
// signatures. Compare with BenchmarkC7_TransferSecurity/secure, which
// dials and handshakes per transfer.
func BenchmarkC7_Pooled(b *testing.B) {
	_, owner, reg := benchCreds(b)
	for _, size := range []int{1 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("state=%dKiB", size>>10), func(b *testing.B) {
			idA, err := keys.NewIdentity(reg, names.Server("umn.edu", fmt.Sprintf("pool-a%d", size)), time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			idB, err := keys.NewIdentity(reg, names.Server("umn.edu", fmt.Sprintf("pool-b%d", size)), time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			v := reg.Verifier()
			sender := &transfer.Endpoint{Identity: idA, Verifier: v}
			receiver := &transfer.Endpoint{Identity: idB, Verifier: v}
			nw := netsim.NewNetwork()
			l, err := nw.Listen("b:1")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go func() {
				for {
					conn, err := l.Accept()
					if err != nil {
						return
					}
					go func() {
						defer conn.Close()
						_ = receiver.ServeConn(conn, nil, func(*agent.Agent) {})
					}()
				}
			}()
			pool := transfer.NewPool(sender, transfer.PoolConfig{Dial: nw.Dial})
			defer pool.Close()
			a := benchTransferAgent(b, reg, owner, size)
			// Warm the channel so the timed loop measures steady state.
			if err := pool.Send("b:1", a); err != nil {
				b.Fatal(err)
			}
			nw.ResetCounters()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pool.Send("b:1", a); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nw.BytesSent())/float64(b.N), "wire-bytes/op")
		})
	}
}

// --- C8: contended access ----------------------------------------------------

// benchUncontendedDef is a counter whose methods use atomics, so the
// resource itself never serializes callers: any contention measured in
// C8 is contention in the *access-control path*, not in the resource.
func benchUncontendedDef() *resource.Def {
	var val int64
	return &resource.Def{
		ResourceImpl: resource.NewImpl(names.Resource("umn.edu", "counter"),
			names.Principal("umn.edu", "admin"), ""),
		Path: "counter",
		Methods: map[string]resource.Method{
			"get": func([]vm.Value) (vm.Value, error) {
				return vm.I(atomic.LoadInt64(&val)), nil
			},
			"add": func(args []vm.Value) (vm.Value, error) {
				return vm.I(atomic.AddInt64(&val, args[0].Int)), nil
			},
		},
	}
}

// runContended splits b.N invocations across g goroutines, each calling
// its own accessor (which may be shared between workers).
func runContended(b *testing.B, g int, call func(worker int) error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / g
	for w := 0; w < g; w++ {
		n := per
		if w == 0 {
			n += b.N % g
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := call(w); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
}

// BenchmarkC8_ContendedAccess measures the §5.5 "little overhead" claim
// under concurrency: G goroutines hammering one shared proxy (worst
// case: one agent's activities, or a leaked-to-threads proxy) and G
// goroutines each owning their own proxy to the same resource (the
// common case: many co-hosted agents). Before the copy-on-write
// refactor every invocation serialized on a per-proxy mutex; the
// numbers for that design are preserved by the mutex_baseline variant
// (internal/baseline.MutexProxyDesign) and in EXPERIMENTS.md C8.
func BenchmarkC8_ContendedAccess(b *testing.B) {
	creds, _, _ := benchCreds(b)
	eng := openPolicy("counter")
	impls := []struct {
		name string
		bind func(caller domain.ID) (baseline.Accessor, error)
	}{
		{"cow", func(caller domain.ID) (baseline.Accessor, error) {
			return benchUncontendedDef().GetProxy(resource.Request{Caller: caller, Creds: creds, Policy: eng})
		}},
		{"mutex_baseline", func(caller domain.ID) (baseline.Accessor, error) {
			return baseline.NewMutexProxyDesign(benchUncontendedDef(), eng).Bind(caller, creds)
		}},
	}
	for _, impl := range impls {
		for _, g := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/one_proxy/goroutines=%d", impl.name, g), func(b *testing.B) {
				acc, err := impl.bind(benchAgentDom)
				if err != nil {
					b.Fatal(err)
				}
				runContended(b, g, func(int) error {
					_, err := acc.Invoke(benchAgentDom, "get", nil)
					return err
				})
			})
			b.Run(fmt.Sprintf("%s/proxy_per_goroutine/goroutines=%d", impl.name, g), func(b *testing.B) {
				accs := make([]baseline.Accessor, g)
				doms := make([]domain.ID, g)
				for i := range accs {
					doms[i] = domain.ID(100 + i)
					var err error
					if accs[i], err = impl.bind(doms[i]); err != nil {
						b.Fatal(err)
					}
				}
				runContended(b, g, func(w int) error {
					_, err := accs[w].Invoke(doms[w], "get", nil)
					return err
				})
			})
		}
	}
}

// --- C12: visit throughput through the domain database -----------------------

// visitDB is the subset of the domain database a hosted visit exercises:
// admission, binding registration, usage accounting, teardown. Both the
// real sharded database and the preserved pre-shard baseline
// (baseline.CoarseDomainDB) satisfy it.
type visitDB interface {
	Admit(caller domain.ID, c *cred.Credentials) (domain.ID, error)
	AddBinding(caller, id domain.ID, b *domain.Binding) error
	RecordUse(caller, id domain.ID, resourcePath string, charge uint64) error
	FlushUsage(caller, id domain.ID, batch []domain.Usage) (uint64, error)
	Remove(caller, id domain.ID) error
}

// BenchmarkC12_VisitThroughput measures whole-visit throughput against
// the domain database: one op is Admit → AddBinding → visitCalls
// metered invocations → usage settlement → Remove, run by G concurrent
// visits (G co-hosted agents arriving, working and departing).
//
// sharded_batched is the production design: the database is sharded by
// domain ID and each invocation's accounting is a visit-local atomic
// append, flushed into the database once at departure. coarse_perinvoke
// preserves the pre-shard design — one RWMutex over the whole table,
// one locked RecordUse per invocation — so the pair quantifies what the
// refactor bought. Run with -cpu 1,2,4,8 for the scaling curve
// (EXPERIMENTS.md C12).
func BenchmarkC12_VisitThroughput(b *testing.B) {
	const visitCalls = 64
	creds, _, _ := benchCreds(b)
	impls := []struct {
		name    string
		mk      func() visitDB
		batched bool
	}{
		{"sharded_batched", func() visitDB { return domain.NewDatabase() }, true},
		{"coarse_perinvoke", func() visitDB { return baseline.NewCoarseDomainDB() }, false},
	}
	for _, impl := range impls {
		for _, g := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", impl.name, g), func(b *testing.B) {
				db := impl.mk()
				visit := func() error {
					dom, err := db.Admit(domain.ServerID, creds)
					if err != nil {
						return err
					}
					if err := db.AddBinding(domain.ServerID, dom, &domain.Binding{ResourcePath: "counter"}); err != nil {
						return err
					}
					if impl.batched {
						// Visit-local accounting, one database write at
						// departure — mirrors (*visit).usageBatch + FlushUsage.
						var inv, charge atomic.Uint64
						for k := 0; k < visitCalls; k++ {
							inv.Add(1)
							charge.Add(1)
						}
						if _, err := db.FlushUsage(domain.ServerID, dom, []domain.Usage{{
							ResourcePath: "counter",
							Invocations:  inv.Load(),
							Charge:       charge.Load(),
						}}); err != nil {
							return err
						}
					} else {
						// Pre-shard accounting: the database lock per call.
						for k := 0; k < visitCalls; k++ {
							if err := db.RecordUse(domain.ServerID, dom, "counter", 1); err != nil {
								return err
							}
						}
					}
					return db.Remove(domain.ServerID, dom)
				}
				runContended(b, g, func(int) error { return visit() })
			})
		}
	}
}

// --- VM throughput and metering ablation -------------------------------------

func benchVMModule(b *testing.B) *vm.Module {
	b.Helper()
	mod, err := asl.Compile(`module bench
func work(n) {
  var acc = 0
  var i = 0
  while i < n {
    acc = acc + i * 3 % 7
    i = i + 1
  }
  return acc
}`)
	if err != nil {
		b.Fatal(err)
	}
	return mod
}

func BenchmarkVM_Throughput(b *testing.B) {
	mod := benchVMModule(b)
	env := vm.NewEnv()
	env.Meter = vm.NewMeter(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Run(env, mod, "work", vm.I(1000)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(env.Meter.Used())/float64(b.N), "instrs/op")
}

func BenchmarkAblation_Metering(b *testing.B) {
	mod := benchVMModule(b)
	b.Run("unlimited_meter", func(b *testing.B) {
		env := vm.NewEnv()
		env.Meter = vm.NewMeter(0)
		for i := 0; i < b.N; i++ {
			if _, err := vm.Run(env, mod, "work", vm.I(1000)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bounded_meter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env := vm.NewEnv()
			env.Meter = vm.NewMeter(1 << 30)
			if _, err := vm.Run(env, mod, "work", vm.I(1000)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- ablation: enable-set representation -------------------------------------

func BenchmarkAblation_EnableSet(b *testing.B) {
	methods := []string{"get", "put", "len", "reset", "scan", "fetch", "add", "sub"}
	b.Run("string_map", func(b *testing.B) {
		enabled := map[string]bool{"get": true, "add": true}
		hits := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if enabled[methods[i%len(methods)]] {
				hits++
			}
		}
	})
	b.Run("bitmask", func(b *testing.B) {
		idx := map[string]uint{"get": 0, "put": 1, "len": 2, "reset": 3,
			"scan": 4, "fetch": 5, "add": 6, "sub": 7}
		var mask uint64 = 1<<0 | 1<<6
		hits := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if mask&(1<<idx[methods[i%len(methods)]]) != 0 {
				hits++
			}
		}
	})
}

// --- ablation: agent wire encoding -------------------------------------------

// BenchmarkAblation_Encoding compares agent encodings on one transfer
// agent (8 KiB of state): the hand-written agent codec the transfer path
// uses (agent.Encode/Decode), a fresh gob encoder or decoder per agent
// (the previous wire encoding, which re-sends and re-compiles its type
// descriptors each time), and JSON. Run with -benchmem.
func BenchmarkAblation_Encoding(b *testing.B) {
	_, owner, reg := benchCreds(b)
	a := benchTransferAgent(b, reg, owner, 8<<10)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := a.Encode()
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
		}
	})
	b.Run("gob", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(a); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := json.Marshal(a)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
		}
	})
	codecWire, err := a.Encode()
	if err != nil {
		b.Fatal(err)
	}
	var gobWire bytes.Buffer
	if err := gob.NewEncoder(&gobWire).Encode(a); err != nil {
		b.Fatal(err)
	}
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(codecWire)))
		for i := 0; i < b.N; i++ {
			if _, err := agent.Decode(codecWire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/gob", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(gobWire.Len()))
		for i := 0; i < b.N; i++ {
			var got agent.Agent
			if err := gob.NewDecoder(bytes.NewReader(gobWire.Bytes())).Decode(&got); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- admission control: reject at the gate vs. run-then-deny -----------------

// BenchmarkAdmission compares the two places an over-privileged agent
// can be stopped. "reject-at-admission" statically analyzes the bundle
// at arrival and turns the agent away before any VM starts; the cost is
// one verification + analysis pass. "run-then-deny" (admission off, the
// pre-manifest behaviour) hosts the agent, spins up its namespace,
// domain and VM, executes it until get_resource hits the policy denial,
// and ships the failed agent home — the expensive failure the manifest
// check replaces.
func BenchmarkAdmission(b *testing.B) {
	const src = `module greedy
func main() {
  var c = get_resource("ajanta:resource:bench.org/vault")
  report(invoke(c, "get", 0))
}`
	setup := func(b *testing.B, mode server.AdmissionMode) (*core.Platform, *server.Server, *server.Server, keys.Identity) {
		b.Helper()
		p, err := core.NewPlatform("bench.org")
		if err != nil {
			b.Fatal(err)
		}
		// Default-deny policy: the vault is registered, nobody may
		// touch it.
		site, err := p.StartServer("site", "site:7000", core.ServerConfig{Admission: mode})
		if err != nil {
			b.Fatal(err)
		}
		if err := core.InstallResource(site, core.CounterResource(
			names.Resource("bench.org", "vault"), "vault")); err != nil {
			b.Fatal(err)
		}
		home, err := p.StartServer("home", "home:7000", core.ServerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		owner, err := p.NewOwner("bench")
		if err != nil {
			b.Fatal(err)
		}
		return p, site, home, owner
	}
	build := func(b *testing.B, p *core.Platform, owner keys.Identity, home *server.Server, site *server.Server, i int) *agent.Agent {
		b.Helper()
		a, err := p.BuildAgent(core.AgentSpec{
			Owner:     owner,
			Name:      fmt.Sprintf("greedy-%d", i),
			Source:    src,
			Itinerary: agentTour("main", []names.Name{site.Name()}),
			Home:      home,
		})
		if err != nil {
			b.Fatal(err)
		}
		return a
	}

	b.Run("reject-at-admission", func(b *testing.B) {
		p, site, home, owner := setup(b, server.AdmissionEnforce)
		defer p.StopAll()
		agents := make([]*agent.Agent, b.N)
		for i := range agents {
			agents[i] = build(b, p, owner, home, site, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := site.LaunchLocal(agents[i]); err == nil {
				b.Fatal("over-privileged agent admitted")
			}
		}
		b.StopTimer()
		if got := site.Stats().AdmissionRejects; got != uint64(b.N) {
			b.Fatalf("admission rejects = %d, want %d", got, b.N)
		}
	})
	b.Run("run-then-deny", func(b *testing.B) {
		p, site, home, owner := setup(b, server.AdmissionOff)
		defer p.StopAll()
		agents := make([]*agent.Agent, b.N)
		for i := range agents {
			agents[i] = build(b, p, owner, home, site, i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			back, err := p.LaunchAndWait(home, agents[i], 30*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			if len(back.Results) != 0 {
				b.Fatal("denied agent reported results")
			}
		}
	})
}

// BenchmarkC13_AdmissionStorm measures the tier admission gate under a
// 16-goroutine arrival storm (experiment C13, EXPERIMENTS.md): the
// untiered fast path (one snapshot load, no bucket), the tiered
// under-limit path (bucket op that conforms), and an over-limit storm
// where most arrivals shed. The shed/op metric is the observed shed
// rate; p50-ns and p99-ns are the percentiles of individually timed
// decisions, whose two clock reads are included in ns/op.
func BenchmarkC13_AdmissionStorm(b *testing.B) {
	owner := names.Principal("bench.org", "storm")
	mkGate := func(tiers ...policy.Tier) *admission.Gate {
		eng := policy.NewEngine()
		var assigns []policy.TierAssignment
		if len(tiers) > 0 {
			assigns = []policy.TierAssignment{{AnyPrincipal: true, Tier: tiers[0].Name}}
		}
		eng.SetTierConfig(tiers, assigns)
		return admission.NewGate(eng, nil)
	}
	// storm fans b.N admits over 16 goroutines spread across nKeys
	// principal buckets and reports the shed rate and decision-latency
	// percentiles. Each worker keeps the timings of its last 64Ki
	// decisions, which bounds memory at any b.N.
	storm := func(b *testing.B, g *admission.Gate, nKeys int) {
		const (
			workers = 16
			window  = 1 << 16
		)
		// One record per worker, padded so the workers' counters do not
		// share a cache line.
		type worker struct {
			key cred.Digest
			lat []time.Duration
			n   int
			_   [64]byte
		}
		ws := make([]worker, workers)
		for w := range ws {
			ws[w].key[0] = byte(w % nKeys)
			ws[w].lat = make([]time.Duration, window)
		}
		var shed atomic.Uint64
		runContended(b, workers, func(w int) error {
			rec := &ws[w]
			t0 := time.Now()
			tk, err := g.Admit(owner, rec.key)
			rec.lat[rec.n%window] = time.Since(t0)
			rec.n++
			if err != nil {
				shed.Add(1)
				return nil
			}
			tk.Release()
			return nil
		})
		b.StopTimer()
		var all []time.Duration
		for _, rec := range ws {
			all = append(all, rec.lat[:min(rec.n, window)]...)
		}
		slices.Sort(all)
		pct := func(p float64) float64 { return float64(all[int(p*float64(len(all)-1))]) }
		b.ReportMetric(float64(shed.Load())/float64(b.N), "shed/op")
		b.ReportMetric(pct(0.50), "p50-ns")
		b.ReportMetric(pct(0.99), "p99-ns")
	}
	b.Run("untiered-fast-path", func(b *testing.B) {
		storm(b, mkGate(), 16)
	})
	b.Run("tiered-under-limit", func(b *testing.B) {
		storm(b, mkGate(policy.Tier{Name: "fast", Rate: 1e12, Burst: 1e9, MaxConcurrent: 64}), 16)
	})
	b.Run("storm-mostly-shed", func(b *testing.B) {
		// One shared bucket, 1k/s: past the initial burst nearly every
		// arrival sheds — the decision must stay O(one bucket op).
		storm(b, mkGate(policy.Tier{Name: "slow", Rate: 1000, Burst: 16}), 1)
	})
}

// --- C15: federated name resolution ------------------------------------------

// c15Bind populates a directory with n server bindings named
// srv0000..srvNNNN.
func c15Bind(b *testing.B, d names.Directory, n int) []names.Name {
	b.Helper()
	nms := make([]names.Name, n)
	for i := range nms {
		nms[i] = names.Server("umn.edu", fmt.Sprintf("srv%04d", i))
		if err := d.Bind(nms[i], names.Location{
			Address: fmt.Sprintf("srv%04d:7000", i), ServerName: nms[i],
		}); err != nil {
			b.Fatal(err)
		}
	}
	return nms
}

// c15ChurnNames is the rotating set of agent names the churn writer
// rebinds (precomputed so the writer itself allocates as little as
// possible).
var c15ChurnNames = func() []names.Name {
	nms := make([]names.Name, 64)
	for i := range nms {
		nms[i] = names.Agent("umn.edu", fmt.Sprintf("churn%02d", i))
	}
	return nms
}()

// c15Churn continuously rebinds a rotating set of agent names into d:
// the steady-state directory write load of a busy fleet, where every
// accepted transfer rebinds the migrated agent at its new host. Four
// writers model four peer servers acking transfers concurrently. The
// returned func stops them.
func c15Churn(d names.Directory) func() {
	const writers = 4
	stop := make(chan struct{})
	var done sync.WaitGroup
	for w := 0; w < writers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			loc := names.Location{Address: "churn:7000"}
			for j := w; ; j += writers {
				select {
				case <-stop:
					return
				default:
					_ = d.Bind(c15ChurnNames[j%len(c15ChurnNames)], loc)
				}
			}
		}(w)
	}
	return func() { close(stop); done.Wait() }
}

// c15LookupResp is the wire response of the remote-directory rows.
type c15LookupResp struct {
	Loc names.Location
	Err string
}

// c15ServeDirectory answers Lookup RPCs over gob: the flat name service
// as the out-of-process directory any multi-machine deployment makes it
// — federation's baseline cost when nothing caches.
func c15ServeDirectory(l net.Listener, flat *baseline.FlatNameService) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			defer conn.Close()
			dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
			for {
				var n names.Name
				if dec.Decode(&n) != nil {
					return
				}
				var resp c15LookupResp
				if loc, err := flat.Lookup(n); err != nil {
					resp.Err = err.Error()
				} else {
					resp.Loc = loc
				}
				if enc.Encode(resp) != nil {
					return
				}
			}
		}(conn)
	}
}

// BenchmarkC15_Resolution measures the dispatch path's name resolution
// across the three designs (EXPERIMENTS.md C15):
//
//   - flat: the seed's single RWMutex map (baseline.FlatNameService) —
//     every Lookup takes the read lock.
//   - authority: the sharded copy-on-write authoritative store
//     (names.Service) resolved directly — lock-free reads, but in a
//     federated deployment this is the store the authority round-trip
//     would hit.
//   - cached: the per-server lease-caching names.Resolver over that
//     store, pre-warmed — the production dispatch path. A lease-valid
//     hit must be a couple of atomic loads and map reads: zero locks,
//     zero allocations.
//
// The quiet rows measure the read path alone. The _churn rows add the
// production steady state — writers rebinding agent names into the
// same directory, exactly what every accepted transfer does — and
// separate the lock disciplines: the flat store's write lock stalls
// readers, while COW readers never block. Reported allocs on _churn
// rows are the background writers', not the resolve path's.
//
// flat_remote is the comparison the federated deployment is actually
// about: the flat design has no cache, so once the directory is not
// in-process — the norm under federation, and the deployment the
// paper's name registry describes — every dispatch resolution is a
// round-trip to the authority (measured here as a live gob RPC over a
// netsim connection). The lease cache turns that round-trip into a
// couple of atomic loads.
//
// ranked_replicas adds the location-aware flavor: ResolveAll over a
// 3-replica binding with a proximity estimate, the co-location path.
func BenchmarkC15_Resolution(b *testing.B) {
	const nNames = 1024
	coarse := func() int64 { return resource.CoarseTime().UnixNano() }
	impls := []struct {
		name string
		mk   func(b *testing.B) (func(w int) error, names.Directory)
	}{
		{"flat", func(b *testing.B) (func(int) error, names.Directory) {
			flat := baseline.NewFlatNameService()
			nms := c15Bind(b, flat, nNames)
			return func(w int) error {
				_, err := flat.Lookup(nms[w%nNames])
				return err
			}, flat
		}},
		{"authority", func(b *testing.B) (func(int) error, names.Directory) {
			svc := names.NewService()
			nms := c15Bind(b, svc, nNames)
			return func(w int) error {
				_, err := svc.Resolve(nms[w%nNames])
				return err
			}, svc
		}},
		{"cached", func(b *testing.B) (func(int) error, names.Directory) {
			svc := names.NewServiceWithLease(time.Hour)
			nms := c15Bind(b, svc, nNames)
			// The server injects the process-wide coarse clock; the
			// bench measures the same wiring.
			res := names.NewResolver(svc, names.ResolverConfig{
				Self: "bench:7000",
				Now:  coarse,
			})
			for _, n := range nms { // warm: every name lease-valid
				if _, err := res.Resolve(n); err != nil {
					b.Fatal(err)
				}
			}
			return func(w int) error {
				_, err := res.Resolve(nms[w%nNames])
				return err
			}, svc
		}},
	}
	for _, churn := range []bool{false, true} {
		for _, g := range []int{1, 16} {
			if churn && g == 1 {
				continue // churn rows target the concurrent dispatch path
			}
			for _, impl := range impls {
				tag := impl.name
				if churn {
					tag += "_churn"
				}
				b.Run(fmt.Sprintf("%s/goroutines=%d", tag, g), func(b *testing.B) {
					call, dir := impl.mk(b)
					stopChurn := func() {}
					if churn {
						stopChurn = c15Churn(dir)
					}
					runContended(b, g, call)
					stopChurn()
				})
			}
		}
	}
	for _, g := range []int{1, 16} {
		b.Run(fmt.Sprintf("flat_remote/goroutines=%d", g), func(b *testing.B) {
			nw := netsim.NewNetwork()
			flat := baseline.NewFlatNameService()
			nms := c15Bind(b, flat, nNames)
			l, err := nw.Listen("dir:7000")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			go c15ServeDirectory(l, flat)
			// One warm connection per goroutine, as a server's channel
			// pool would hold to its authority.
			type cli struct {
				enc *gob.Encoder
				dec *gob.Decoder
			}
			clis := make([]cli, g)
			for i := range clis {
				conn, err := nw.Dial("dir:7000")
				if err != nil {
					b.Fatal(err)
				}
				defer conn.Close()
				clis[i] = cli{gob.NewEncoder(conn), gob.NewDecoder(conn)}
			}
			runContended(b, g, func(w int) error {
				if err := clis[w].enc.Encode(nms[w%nNames]); err != nil {
					return err
				}
				var resp c15LookupResp
				if err := clis[w].dec.Decode(&resp); err != nil {
					return err
				}
				if resp.Err != "" {
					return fmt.Errorf("remote lookup: %s", resp.Err)
				}
				return nil
			})
		})
	}
	b.Run("cached/ranked_replicas", func(b *testing.B) {
		svc := names.NewServiceWithLease(time.Hour)
		rn := names.Resource("umn.edu", "data")
		for i := 0; i < 3; i++ {
			if err := svc.BindReplica(rn, names.Location{
				Address:    fmt.Sprintf("rep%d:7000", i),
				ServerName: names.Server("umn.edu", fmt.Sprintf("rep%d", i)),
			}); err != nil {
				b.Fatal(err)
			}
		}
		prox := func(from, to string) time.Duration {
			return time.Duration(len(to)) * time.Millisecond
		}
		res := names.NewResolver(svc, names.ResolverConfig{
			Self:      "bench:7000",
			Proximity: prox,
			Now:       func() int64 { return resource.CoarseTime().UnixNano() },
		})
		if _, err := res.ResolveAll(rn); err != nil {
			b.Fatal(err)
		}
		runContended(b, 16, func(int) error {
			locs, err := res.ResolveAll(rn)
			if err == nil && len(locs) != 3 {
				return fmt.Errorf("got %d replicas", len(locs))
			}
			return err
		})
	})
}

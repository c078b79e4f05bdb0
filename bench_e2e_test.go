// End-to-end and component benchmarks complementing the per-experiment
// benches in bench_test.go: full-stack agent tours, concurrent hosting
// throughput, compiler and verifier speed, and credential-chain
// verification cost.
package ajanta_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/asl"
	"repro/internal/core"
	"repro/internal/cred"
	"repro/internal/keys"
	"repro/internal/names"
	"repro/internal/policy"
	"repro/internal/vm"
)

// benchPlatform assembles a two-server platform with a counter resource.
func benchPlatform(b *testing.B) (*core.Platform, *coreServer, *coreServer) {
	b.Helper()
	p, err := core.NewPlatform("bench.org")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.StopAll)
	open := []policy.Rule{{AnyPrincipal: true, Resource: "counter", Methods: []string{"*"}}}
	srv, err := p.StartServer("s1", "s1:7000", core.ServerConfig{Rules: open})
	if err != nil {
		b.Fatal(err)
	}
	if err := core.InstallResource(srv, core.CounterResource(
		names.Resource("bench.org", "counter"), "counter")); err != nil {
		b.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", core.ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return p, &coreServer{srv}, &coreServer{home}
}

// coreServer is a thin wrapper keeping the import surface tidy.
type coreServer struct {
	S interface{ Name() names.Name }
}

func BenchmarkE2E_AgentRoundTrip(b *testing.B) {
	p, srv, home := benchPlatform(b)
	owner, err := p.NewOwner("bench")
	if err != nil {
		b.Fatal(err)
	}
	homeSrv, _ := p.Server(home.S.Name())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := p.BuildAgent(core.AgentSpec{
			Owner: owner,
			Name:  fmt.Sprintf("bench-%d", i),
			Source: `module bench
func main() {
  var c = get_resource("ajanta:resource:bench.org/counter")
  report(invoke(c, "add", 1))
}`,
			Itinerary: agent.Sequence("main", srv.S.Name()),
			Home:      homeSrv,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.LaunchAndWait(homeSrv, a, 30*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2E_ConcurrentAgents runs full tours from many goroutines at
// once over the servers' channel pools, which keep warm authenticated
// channels between the two servers (multiple connections per peer under
// concurrency). The per-transfer handshake cost is BenchmarkC7's; the
// one sub-benchmark keeps the row name earlier results were recorded
// under.
func BenchmarkE2E_ConcurrentAgents(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		p, srv, home := benchPlatform(b)
		owner, err := p.NewOwner("bench")
		if err != nil {
			b.Fatal(err)
		}
		homeSrv, _ := p.Server(home.S.Name())
		var ctr atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				n := ctr.Add(1)
				a, err := p.BuildAgent(core.AgentSpec{
					Owner: owner,
					Name:  fmt.Sprintf("par-pooled-%d", n),
					Source: `module bench
func main() {
  var c = get_resource("ajanta:resource:bench.org/counter")
  invoke(c, "add", 1)
}`,
					Itinerary: agent.Sequence("main", srv.S.Name()),
					Home:      homeSrv,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := p.LaunchAndWait(homeSrv, a, 30*time.Second); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkASL_Compile(b *testing.B) {
	src := `module shopper
var best = 999999
var seen = []
func visit() {
  var parts = split(server_name(), "/")
  var short = parts[len(parts) - 1]
  var q = get_resource("ajanta:resource:x/" + short)
  var price = invoke(q, "quote", "widget")
  if price != nil && price < best { best = price }
  seen = append(seen, short)
}
func helper(a, b) {
  if a > b { return a }
  return b
}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := asl.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVM_Verify(b *testing.B) {
	mod, err := asl.Compile(`module big
func f0(x) { var a = 0 var i = 0 while i < x { a = a + i i = i + 1 } return a }
func f1(x) { if x > 0 { return f0(x) } return 0 - f0(0 - x) }
func f2(x, y) { return f1(x) + f1(y) }
func main() { return f2(10, 20) }`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := vm.Verify(mod); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCred_VerifyChain(b *testing.B) {
	reg, err := keys.NewRegistry(names.Principal("umn.edu", "ca"))
	if err != nil {
		b.Fatal(err)
	}
	owner, err := keys.NewIdentity(reg, names.Principal("umn.edu", "alice"), time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	v := reg.Verifier()
	for _, hops := range []int{0, 1, 3} {
		c, err := cred.Issue(owner, names.Agent("umn.edu", "a1"),
			owner.Name, cred.NewRightSet(cred.All), time.Hour, "home")
		if err != nil {
			b.Fatal(err)
		}
		rights := cred.NewRightSet("a.*", "b.*", "c.*")
		for h := 0; h < hops; h++ {
			srv, err := keys.NewIdentity(reg, names.Server("umn.edu", fmt.Sprintf("s%d-%d", hops, h)), time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Delegate(srv, rights, time.Time{}); err != nil {
				b.Fatal(err)
			}
			rights = cred.NewRightSet("a.*", "b.*")
		}
		b.Run(fmt.Sprintf("delegations=%d", hops), func(b *testing.B) {
			now := time.Now()
			for i := 0; i < b.N; i++ {
				if err := c.Verify(v, now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

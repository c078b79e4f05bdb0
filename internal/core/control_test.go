package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/domain"
	"repro/internal/vm"
)

// TestAgentMonitorsAndKillsSibling: one of a user's agents observes and
// stops another agent of the same owner via the §4 control primitives.
func TestAgentMonitorsAndKillsSibling(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{Fuel: 1 << 40}) // never runs out before the kill
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := p.NewOwner("alice")

	runaway, err := p.BuildAgent(AgentSpec{
		Owner: owner, Name: "runaway",
		Source:    "module r\nfunc main() { while true { } }",
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	runCh, err := p.Launch(home, runaway)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitTime)
	for {
		if st, ok := srv.AgentStatus(runaway.Name); ok && st == domain.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("runaway never started")
		}
		time.Sleep(time.Millisecond)
	}

	guardian, err := p.BuildAgent(AgentSpec{
		Owner: owner, Name: "guardian",
		Source: `module g
func main() {
  report(agent_status("ajanta:agent:umn.edu/runaway"))
  report(kill_agent("ajanta:agent:umn.edu/runaway"))
  report(agent_status("ajanta:agent:umn.edu/nonexistent"))
}`,
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, guardian, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 3 {
		t.Fatalf("results = %v, log = %v", back.Results, back.Log)
	}
	if !back.Results[0].Equal(vm.S("running")) {
		t.Fatalf("status = %v", back.Results[0])
	}
	if !back.Results[1].Equal(vm.B(true)) {
		t.Fatalf("kill = %v", back.Results[1])
	}
	if back.Results[2].Kind != vm.KindNil {
		t.Fatalf("status of unknown agent = %v", back.Results[2])
	}
	select {
	case dead := <-runCh:
		if !strings.Contains(strings.Join(dead.Log, "\n"), "killed") {
			t.Fatalf("log = %v", dead.Log)
		}
	case <-time.After(waitTime):
		t.Fatal("killed runaway never came home")
	}
}

// TestAgentCannotKillForeignAgent: the ownership check blocks control of
// another user's agent.
func TestAgentCannotKillForeignAgent(t *testing.T) {
	p := mustPlatform(t)
	srv, err := p.StartServer("s1", "s1:7000", ServerConfig{Fuel: 0})
	if err != nil {
		t.Fatal(err)
	}
	home, err := p.StartServer("home", "home:7000", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := p.NewOwner("alice")
	mallory, _ := p.NewOwner("mallory")

	victim, err := p.BuildAgent(AgentSpec{
		Owner: alice, Name: "victim",
		Source:    "module v\nfunc main() { while true { } }",
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	vicCh, err := p.Launch(home, victim)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(waitTime)
	for {
		if st, ok := srv.AgentStatus(victim.Name); ok && st == domain.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never started")
		}
		time.Sleep(time.Millisecond)
	}

	assassin, err := p.BuildAgent(AgentSpec{
		Owner: mallory, Name: "assassin",
		Source: `module a
func main() {
  kill_agent("ajanta:agent:umn.edu/victim")
  report("should not get here")
}`,
		Itinerary: agent.Sequence("main", srv.Name()),
		Home:      home,
	})
	if err != nil {
		t.Fatal(err)
	}
	back, err := p.LaunchAndWait(home, assassin, waitTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 0 {
		t.Fatalf("assassin succeeded: %v", back.Results)
	}
	if !strings.Contains(strings.Join(back.Log, "\n"), "not the owner") {
		t.Fatalf("log = %v", back.Log)
	}
	// Victim still running; clean up via its owner.
	if st, _ := srv.AgentStatus(victim.Name); st != domain.StatusRunning {
		t.Fatalf("victim status = %v", st)
	}
	if err := srv.Kill(alice.Name, victim.Name); err != nil {
		t.Fatal(err)
	}
	<-vicCh
}

package rpcbase

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// startServers spins up n record-store servers on a fresh simulated
// network and returns the network and their addresses.
func startServers(t *testing.T, n, records, payload int) (*netsim.Network, []string) {
	t.Helper()
	nw := netsim.NewNetwork()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addr := "store" + string(rune('a'+i)) + ":1"
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = l.Close() })
		srv := &Server{Store: NewStore(records, payload)}
		go srv.Serve(l)
		addrs[i] = addr
	}
	return nw, addrs
}

func TestStoreSelectivityExact(t *testing.T) {
	st := NewStore(1000, 8)
	// Scores cycle 0..99; threshold 89 keeps scores 90..99 = 10%.
	if got := len(st.Matching(89)); got != 100 {
		t.Fatalf("matching = %d, want 100", got)
	}
	if got := len(st.Matching(-1)); got != 1000 {
		t.Fatalf("matching = %d, want all", got)
	}
	if got := len(st.Matching(99)); got != 0 {
		t.Fatalf("matching = %d, want none", got)
	}
}

func TestRPCClientFiltersCorrectly(t *testing.T) {
	nw, addrs := startServers(t, 2, 200, 16)
	recs, err := RPCClient(nw.Dial, addrs, 89)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*20 {
		t.Fatalf("got %d records, want 40", len(recs))
	}
	for _, r := range recs {
		if r.Score <= 89 {
			t.Fatalf("non-matching record leaked: %+v", r.Score)
		}
	}
}

func TestREVClientMatchesRPC(t *testing.T) {
	nw, addrs := startServers(t, 2, 200, 16)
	rpcRecs, err := RPCClient(nw.Dial, addrs, 50)
	if err != nil {
		t.Fatal(err)
	}
	revRecs, err := REVClient(nw.Dial, addrs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpcRecs) != len(revRecs) {
		t.Fatalf("rpc %d vs rev %d records", len(rpcRecs), len(revRecs))
	}
}

func TestREVRejectsBadPrograms(t *testing.T) {
	srv := &Server{Store: NewStore(10, 4)}
	if resp := srv.handle(request{Op: "rev", Source: "not a program"}); resp.Err == "" {
		t.Fatal("malformed REV program accepted")
	}
	if resp := srv.handle(request{Op: "rev", Source: "module m\nfunc other() { return 1 }"}); resp.Err == "" {
		t.Fatal("program without filter accepted")
	}
	// A REV program that loops forever is stopped by the meter.
	loop := "module m\nfunc filter(s, t) { while true { } }"
	if resp := srv.handle(request{Op: "rev", Source: loop, Threshold: 0}); resp.Err == "" {
		t.Fatal("runaway REV program not stopped")
	}
}

func TestUnknownOp(t *testing.T) {
	srv := &Server{Store: NewStore(1, 1)}
	if resp := srv.handle(request{Op: "drop_tables"}); resp.Err == "" {
		t.Fatal("unknown op accepted")
	}
}

// TestC3_BytesOrderingLowSelectivity: with few matches, REV and (by
// model) the agent move far fewer bytes than RPC — the paper's claim.
func TestC3_BytesOrderingLowSelectivity(t *testing.T) {
	nw, addrs := startServers(t, 3, 500, 64)

	nw.ResetCounters()
	if _, err := RPCClient(nw.Dial, addrs, 89); err != nil { // 10% match
		t.Fatal(err)
	}
	rpcBytes := nw.BytesSent()

	nw.ResetCounters()
	if _, err := REVClient(nw.Dial, addrs, 89); err != nil {
		t.Fatal(err)
	}
	revBytes := nw.BytesSent()

	if revBytes >= rpcBytes {
		t.Fatalf("REV moved %d bytes, RPC %d — expected REV < RPC at 10%% selectivity",
			revBytes, rpcBytes)
	}
	if revBytes*2 > rpcBytes {
		t.Logf("note: REV %d vs RPC %d (less than 2x win)", revBytes, rpcBytes)
	}
}

// TestC3_BytesOrderingFullSelectivity: when everything matches, shipping
// code buys nothing — RPC is no worse (the crossover's far side).
func TestC3_BytesOrderingFullSelectivity(t *testing.T) {
	nw, addrs := startServers(t, 2, 300, 64)

	nw.ResetCounters()
	if _, err := RPCClient(nw.Dial, addrs, -1); err != nil { // 100% match
		t.Fatal(err)
	}
	rpcBytes := nw.BytesSent()

	nw.ResetCounters()
	if _, err := REVClient(nw.Dial, addrs, -1); err != nil {
		t.Fatal(err)
	}
	revBytes := nw.BytesSent()

	if revBytes < rpcBytes {
		t.Fatalf("REV (%d) should not beat RPC (%d) at 100%% selectivity", revBytes, rpcBytes)
	}
}

func TestAnalyticModelsOrdering(t *testing.T) {
	m := netsim.Model{Latency: 20 * time.Millisecond, Bandwidth: 1 << 20}
	w := Workload{Servers: 5, Records: 1000, RecSize: 256,
		Selectivity: 0.05, CodeSize: 4096, HeaderSize: 64}
	rpc, rev, ag := RPCCost(w, m), REVCost(w, m), AgentCost(w, m)
	// The paper's claim is against RPC: both code-shipping paradigms
	// move far fewer bytes at low selectivity. (The agent does NOT
	// necessarily beat REV on bytes — it drags accumulated results
	// across every remaining hop; its edge over REV is asynchrony.)
	if !(ag.Bytes < rpc.Bytes && rev.Bytes < rpc.Bytes) {
		t.Fatalf("bytes ordering: agent=%d rev=%d rpc=%d", ag.Bytes, rev.Bytes, rpc.Bytes)
	}
	if !(ag.Time < rpc.Time) {
		t.Fatalf("time ordering: agent=%v rpc=%v", ag.Time, rpc.Time)
	}

	// High selectivity reverses the outcome: the agent drags all the
	// accumulated results across every remaining hop.
	w.Selectivity = 1.0
	rpc, ag = RPCCost(w, m), AgentCost(w, m)
	if ag.Bytes < rpc.Bytes {
		t.Fatalf("at 100%% selectivity agent (%d) should lose to rpc (%d)", ag.Bytes, rpc.Bytes)
	}
}

func TestAnalyticCrossoverExists(t *testing.T) {
	// Somewhere between 0 and 1 selectivity the winner flips; find it.
	m := netsim.Model{Latency: 10 * time.Millisecond, Bandwidth: 1 << 20}
	w := Workload{Servers: 4, Records: 2000, RecSize: 128, CodeSize: 4096, HeaderSize: 64}
	agentWinsAt0 := false
	rpcWinsAt1 := false
	w.Selectivity = 0.01
	if AgentCost(w, m).Bytes < RPCCost(w, m).Bytes {
		agentWinsAt0 = true
	}
	w.Selectivity = 1.0
	if RPCCost(w, m).Bytes < AgentCost(w, m).Bytes {
		rpcWinsAt1 = true
	}
	if !agentWinsAt0 || !rpcWinsAt1 {
		t.Fatalf("no crossover: agentWins@0.01=%v rpcWins@1=%v", agentWinsAt0, rpcWinsAt1)
	}
}

// TestC3bAnalyticSweepWinners pins the C3b table in EXPERIMENTS.md: the
// paradigm that moves the fewest bytes and the one that finishes first,
// for each selectivity and latency of the analytic sweep (5 servers x
// 1000 records x 256 B, code 4 KiB, header 64 B, 1 MiB/s). A tie goes
// to the paradigm listed first (rpc, rev, agent), as in the table.
func TestC3bAnalyticSweepWinners(t *testing.T) {
	cases := []struct {
		sel               float64
		lat               time.Duration
		bytesWin, timeWin string
	}{
		{0.01, time.Millisecond, "rev", "rev"},
		{0.01, 50 * time.Millisecond, "rev", "agent"},
		{0.05, time.Millisecond, "rev", "rev"},
		{0.05, 50 * time.Millisecond, "rev", "agent"},
		{0.25, time.Millisecond, "rev", "rev"},
		{0.25, 50 * time.Millisecond, "rev", "rev"},
		{0.5, time.Millisecond, "rev", "rev"},
		{0.5, 50 * time.Millisecond, "rev", "rev"},
		{1.0, time.Millisecond, "rpc", "rpc"},
		{1.0, 50 * time.Millisecond, "rpc", "rpc"},
	}
	for _, c := range cases {
		w := Workload{Servers: 5, Records: 1000, RecSize: 256,
			Selectivity: c.sel, CodeSize: 4096, HeaderSize: 64}
		m := netsim.Model{Latency: c.lat, Bandwidth: 1 << 20}
		costs := []Cost{RPCCost(w, m), REVCost(w, m), AgentCost(w, m)}
		byBytes, byTime := costs[0], costs[0]
		for _, cost := range costs[1:] {
			if cost.Bytes < byBytes.Bytes {
				byBytes = cost
			}
			if cost.Time < byTime.Time {
				byTime = cost
			}
		}
		if byBytes.Paradigm != c.bytesWin || byTime.Paradigm != c.timeWin {
			t.Errorf("sel=%.2f lat=%v: winners bytes=%s time=%s, want %s/%s",
				c.sel, c.lat, byBytes.Paradigm, byTime.Paradigm, c.bytesWin, c.timeWin)
		}
	}
}

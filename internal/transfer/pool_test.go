package transfer

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/names"
)

// servePool runs a streaming receiver at addr: every accepted
// connection is served with ServeConn until the listener closes.
// Returns a counter of accepted agents and a stop function.
func servePool(t *testing.T, w *world, addr string, accept func(*agent.Agent, names.Name) error) (*atomic.Int64, func()) {
	t.Helper()
	l, err := w.net.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	var hosted atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				_ = w.b.ServeConn(conn, accept, func(*agent.Agent) {
					hosted.Add(1)
				})
			}()
		}
	}()
	return &hosted, func() {
		l.Close()
		wg.Wait()
	}
}

// waitHosted waits until the receiver has handed off want agents. The
// receiver hands an agent off after acking it, so a sender's Send can
// return before the count moves.
func waitHosted(t *testing.T, hosted *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for hosted.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("hosted %d agents, want %d", hosted.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func newTestPool(w *world, cfg PoolConfig) *Pool {
	if cfg.Dial == nil {
		cfg.Dial = w.net.Dial
	}
	return NewPool(w.a, cfg)
}

func TestPoolReusesSession(t *testing.T) {
	w := newWorld(t)
	hosted, stop := servePool(t, w, "b:7000", nil)
	defer stop()
	p := newTestPool(w, PoolConfig{})
	defer p.Close()
	a := testAgent(t, w.reg)
	for i := 0; i < 10; i++ {
		if err := p.Send("b:7000", a); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	st := p.Stats()
	if st.Dials != 1 {
		t.Fatalf("Dials = %d, want 1 (session not reused)", st.Dials)
	}
	if st.Reuses != 9 {
		t.Fatalf("Reuses = %d, want 9", st.Reuses)
	}
	waitHosted(t, hosted, 10)
}

func TestPoolIdleEviction(t *testing.T) {
	w := newWorld(t)
	_, stop := servePool(t, w, "b:7000", nil)
	defer stop()
	p := newTestPool(w, PoolConfig{IdleTimeout: 20 * time.Millisecond})
	defer p.Close()
	a := testAgent(t, w.reg)
	if err := p.Send("b:7000", a); err != nil {
		t.Fatal(err)
	}
	// Sit past the idle timeout; the background sweep (or the next
	// checkout) must evict the parked session and dial fresh.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Idle != 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := p.Send("b:7000", a); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Dials != 2 {
		t.Fatalf("Dials = %d, want 2 (evicted session reused?)", st.Dials)
	}
	if st.Evictions == 0 {
		t.Fatal("eviction not counted")
	}
}

func TestPoolMaxPerPeerCap(t *testing.T) {
	w := newWorld(t)
	// An accept gate lets the test hold transfers open so checked-out
	// sessions stay checked out.
	gate := make(chan struct{})
	accept := func(*agent.Agent, names.Name) error {
		<-gate
		return nil
	}
	_, stop := servePool(t, w, "b:7000", accept)
	defer stop()
	p := newTestPool(w, PoolConfig{MaxPerPeer: 2})
	defer p.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		a := testAgent(t, w.reg) // one agent per sender; Send mutates it
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.Send("b:7000", a)
		}(i)
	}
	// With MaxPerPeer=2, at most two sessions may be live at once; the
	// third sender must wait for a checkin rather than dial.
	deadline := time.Now().Add(time.Second)
	for p.Stats().Active < 2 {
		if time.Now().After(deadline) {
			t.Fatal("senders never checked out sessions")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // give the third sender a chance to (wrongly) dial
	if st := p.Stats(); st.Active > 2 || st.Dials > 2 {
		t.Fatalf("cap exceeded: %+v", st)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if st := p.Stats(); st.Dials > 2 {
		t.Fatalf("Dials = %d, want <= 2", st.Dials)
	}
}

func TestPoolStaleSessionRedial(t *testing.T) {
	w := newWorld(t)
	hosted, stop := servePool(t, w, "b:7000", nil)
	defer stop()
	p := NewPool(w.a, PoolConfig{Dial: func(addr string) (net.Conn, error) {
		return w.net.DialFrom("a:7000", addr)
	}})
	defer p.Close()
	a := testAgent(t, w.reg)
	if err := p.Send("b:7000", a); err != nil {
		t.Fatal(err)
	}
	// Kill the warm session behind the pool's back — the silent death
	// of a parked connection.
	if n := w.net.ResetConns("a:7000", "b:7000"); n == 0 {
		t.Fatal("no connection to reset")
	}
	// The next Send finds the pooled session dead and must redial
	// transparently: the caller sees success, not a transient error.
	if err := p.Send("b:7000", a); err != nil {
		t.Fatalf("send on stale session not recovered: %v", err)
	}
	st := p.Stats()
	if st.StaleRedials != 1 {
		t.Fatalf("StaleRedials = %d, want 1", st.StaleRedials)
	}
	if st.Dials != 2 {
		t.Fatalf("Dials = %d, want 2", st.Dials)
	}
	waitHosted(t, hosted, 2) // exactly one delivery per send
}

func TestPoolConcurrentCheckout(t *testing.T) {
	w := newWorld(t)
	hosted, stop := servePool(t, w, "b:7000", nil)
	defer stop()
	p := newTestPool(w, PoolConfig{MaxPerPeer: 4})
	defer p.Close()
	const senders, each = 8, 20
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < senders; i++ {
		// Each sender owns its agent: sending one agent from multiple
		// goroutines at once is not a supported pattern (Sanitize
		// mutates state), but the pool underneath is shared.
		a := testAgent(t, w.reg)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if err := p.Send("b:7000", a); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d sends failed", n)
	}
	st := p.Stats()
	if st.Dials > 4 {
		t.Fatalf("Dials = %d, want <= MaxPerPeer (4)", st.Dials)
	}
	waitHosted(t, hosted, senders*each)
}

func TestPoolClose(t *testing.T) {
	w := newWorld(t)
	_, stop := servePool(t, w, "b:7000", nil)
	defer stop()
	p := newTestPool(w, PoolConfig{})
	a := testAgent(t, w.reg)
	if err := p.Send("b:7000", a); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if st := p.Stats(); st.Idle != 0 || st.Active != 0 {
		t.Fatalf("sessions survive Close: %+v", st)
	}
	if err := p.Send("b:7000", a); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("send after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestPoolCloseWaitsForReaper(t *testing.T) {
	// Close must not return while the reap goroutine is still running:
	// a caller that tears down the netsim (or process) right after
	// Close would otherwise race the sweep. This fails if Close stops
	// waiting on reapDone.
	w := newWorld(t)
	p := newTestPool(w, PoolConfig{IdleTimeout: 2 * time.Millisecond})
	p.Close()
	select {
	case <-p.reapDone:
		// reaper already exited — the ordering Close promises.
	default:
		t.Fatal("Close returned while the reap goroutine was still running")
	}
}

func TestPoolConcurrentCloseWaitsForReaper(t *testing.T) {
	// Every concurrent Close — not just the first — must observe the
	// reaper's exit before returning. The pre-fix code let the loser of
	// the closed-flag race return immediately.
	w := newWorld(t)
	p := newTestPool(w, PoolConfig{IdleTimeout: 2 * time.Millisecond})
	const closers = 8
	var wg sync.WaitGroup
	fail := make(chan struct{}, closers)
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Close()
			select {
			case <-p.reapDone:
			default:
				fail <- struct{}{}
			}
		}()
	}
	wg.Wait()
	if len(fail) > 0 {
		t.Fatalf("%d Close call(s) returned before the reap goroutine exited", len(fail))
	}
}

func TestPoolShedKeepsSession(t *testing.T) {
	// A load-shed, like an ordinary rejection, travels over a healthy
	// channel: the session must be checked back in, not discarded, so
	// the retry a moment later reuses the warm channel.
	w := newWorld(t)
	var n atomic.Int64
	accept := func(*agent.Agent, names.Name) error {
		if n.Add(1) == 2 {
			return &admission.ShedError{Cause: "rate", RetryAfter: 5 * time.Millisecond}
		}
		return nil
	}
	_, stop := servePool(t, w, "b:7000", accept)
	defer stop()
	p := newTestPool(w, PoolConfig{})
	defer p.Close()
	a := testAgent(t, w.reg)
	if err := p.Send("b:7000", a); err != nil {
		t.Fatal(err)
	}
	if err := p.Send("b:7000", a); !errors.Is(err, admission.ErrShed) {
		t.Fatalf("got %v, want ErrShed", err)
	}
	if err := p.Send("b:7000", a); err != nil {
		t.Fatalf("session poisoned by shed: %v", err)
	}
	if st := p.Stats(); st.Dials != 1 {
		t.Fatalf("Dials = %d, want 1 (shed cost the warm session)", st.Dials)
	}
}

func TestPoolReset(t *testing.T) {
	w := newWorld(t)
	_, stop := servePool(t, w, "b:7000", nil)
	defer stop()
	p := newTestPool(w, PoolConfig{})
	defer p.Close()
	a := testAgent(t, w.reg)
	if err := p.Send("b:7000", a); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if st := p.Stats(); st.Idle != 0 {
		t.Fatalf("idle sessions survive Reset: %+v", st)
	}
	// The pool still works after a reset — it just dials fresh.
	if err := p.Send("b:7000", a); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Dials != 2 {
		t.Fatalf("Dials = %d, want 2", st.Dials)
	}
}

func TestPoolRejectionKeepsSession(t *testing.T) {
	w := newWorld(t)
	var n atomic.Int64
	accept := func(*agent.Agent, names.Name) error {
		if n.Add(1) == 2 {
			return errors.New("no capacity")
		}
		return nil
	}
	_, stop := servePool(t, w, "b:7000", accept)
	defer stop()
	p := newTestPool(w, PoolConfig{})
	defer p.Close()
	a := testAgent(t, w.reg)
	if err := p.Send("b:7000", a); err != nil {
		t.Fatal(err)
	}
	// A receiver-side rejection travels over a healthy channel: it must
	// surface as ErrRejected and must NOT cost the session.
	if err := p.Send("b:7000", a); !errors.Is(err, ErrRejected) {
		t.Fatalf("got %v, want ErrRejected", err)
	}
	if err := p.Send("b:7000", a); err != nil {
		t.Fatalf("session poisoned by rejection: %v", err)
	}
	st := p.Stats()
	if st.Dials != 1 {
		t.Fatalf("Dials = %d, want 1", st.Dials)
	}
}

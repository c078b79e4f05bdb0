package transfer

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/agent"
	"repro/internal/resource"
)

// ErrPoolClosed is returned by Pool.Send after Close; it is permanent —
// the owning server is shutting down, not the network failing.
var ErrPoolClosed = errors.New("transfer: channel pool closed")

// PoolConfig tunes the per-destination channel pool.
type PoolConfig struct {
	// Dial opens a transport connection to an address. Required.
	Dial func(addr string) (net.Conn, error)
	// MaxPerPeer caps live (idle + checked-out) sessions per
	// destination; further senders wait for a checkin. Default 4.
	MaxPerPeer int
	// IdleTimeout evicts a pooled session that has sat unused this
	// long; eviction happens lazily at checkout and in a background
	// sweep. Default 30s.
	IdleTimeout time.Duration
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.MaxPerPeer <= 0 {
		c.MaxPerPeer = 4
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	return c
}

// PoolStats is a snapshot of a pool's lifetime counters and current
// occupancy.
type PoolStats struct {
	Dials        uint64 // connections dialed + handshaked
	Reuses       uint64 // transfers carried by an already-open session
	Evictions    uint64 // idle sessions closed (timeout, cap, reset)
	StaleRedials uint64 // reused sessions found dead, replaced transparently
	Idle         int    // idle sessions right now, all peers
	Active       int    // checked-out sessions right now, all peers
}

// pooledSession is an idle-list entry: the session plus when it was
// checked in (for idle eviction) and whether it has carried a transfer
// before (a reused session that fails gets one transparent redial; a
// fresh one does not — its failure is the network's answer).
type pooledSession struct {
	s       *session
	idledAt time.Time
	reused  bool
}

// peerPool holds one destination's sessions.
type peerPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	idle   []*pooledSession // LIFO: most recently used first
	active int
	gen    uint64 // bumped by Reset; stale checkins are closed
}

// Pool is a per-destination pool of persistent, already-handshaked
// transfer sessions. One session carries many agents sequentially;
// concurrency toward one peer comes from multiple pooled sessions (up
// to MaxPerPeer). Dead pooled sessions are replaced transparently: a
// transfer that fails on a reused channel is retried once on a freshly
// dialed one before the error is surfaced to the caller's retry policy.
type Pool struct {
	ep  *Endpoint
	cfg PoolConfig

	mu     sync.Mutex
	peers  map[string]*peerPool
	closed bool

	dials        atomic.Uint64
	reuses       atomic.Uint64
	evictions    atomic.Uint64
	staleRedials atomic.Uint64

	reapDone chan struct{}
	reapStop chan struct{}
	stopReap sync.Once // guards close(reapStop) across concurrent Closes
}

// NewPool builds a channel pool over ep. Close it when the owning
// server stops.
func NewPool(ep *Endpoint, cfg PoolConfig) *Pool {
	p := &Pool{
		ep:       ep,
		cfg:      cfg.withDefaults(),
		peers:    make(map[string]*peerPool),
		reapDone: make(chan struct{}),
		reapStop: make(chan struct{}),
	}
	go p.reapLoop()
	return p
}

func (p *Pool) peer(addr string) *peerPool {
	p.mu.Lock()
	defer p.mu.Unlock()
	pp := p.peers[addr]
	if pp == nil {
		pp = &peerPool{}
		pp.cond = sync.NewCond(&pp.mu)
		p.peers[addr] = pp
	}
	return pp
}

// checkout returns an idle session for addr or dials a new one,
// blocking while the peer is at its session cap. reused reports whether
// the session has carried a transfer before (and so deserves a
// transparent redial if it turns out dead). skipIdle forces a fresh
// dial — used for the redial after a stale session — evicting an idle
// session if the peer is at cap.
func (p *Pool) checkout(addr string, skipIdle bool) (s *session, reused bool, gen uint64, err error) {
	pp := p.peer(addr)
	pp.mu.Lock()
	for {
		if p.isClosed() {
			pp.mu.Unlock()
			return nil, false, 0, ErrPoolClosed
		}
		// Evict expired idles first: they count against the cap and
		// would otherwise hold a slot a live session could use. Idle
		// stamps and timeouts are seconds-scale, so the shared coarse
		// clock is accurate enough.
		now := resource.CoarseTime()
		kept := pp.idle[:0]
		for _, ps := range pp.idle {
			if now.Sub(ps.idledAt) > p.cfg.IdleTimeout {
				p.evictions.Add(1)
				_ = ps.s.conn.Close()
				ps.s.release()
				continue
			}
			kept = append(kept, ps)
		}
		pp.idle = kept
		if !skipIdle && len(pp.idle) > 0 {
			ps := pp.idle[len(pp.idle)-1]
			pp.idle = pp.idle[:len(pp.idle)-1]
			pp.active++
			gen = pp.gen
			pp.mu.Unlock()
			p.reuses.Add(1)
			return ps.s, ps.reused, gen, nil
		}
		if pp.active+len(pp.idle) < p.cfg.MaxPerPeer {
			break
		}
		if skipIdle && len(pp.idle) > 0 {
			// At cap but we must not reuse: sacrifice an idle session
			// to make room for the fresh dial.
			ps := pp.idle[len(pp.idle)-1]
			pp.idle = pp.idle[:len(pp.idle)-1]
			p.evictions.Add(1)
			_ = ps.s.conn.Close()
			ps.s.release()
			break
		}
		pp.cond.Wait()
	}
	pp.active++
	gen = pp.gen
	pp.mu.Unlock()

	conn, err := p.cfg.Dial(addr)
	if err != nil {
		p.checkinFailed(pp)
		return nil, false, 0, err
	}
	s, err = p.ep.connect(conn)
	if err != nil {
		_ = conn.Close()
		p.checkinFailed(pp)
		return nil, false, 0, err
	}
	p.dials.Add(1)
	return s, false, gen, nil
}

// checkin returns a healthy session to the idle list. Sessions from a
// stale generation (Reset ran meanwhile) and checkins after Close are
// closed instead.
func (p *Pool) checkin(addr string, s *session, gen uint64) {
	pp := p.peer(addr)
	pp.mu.Lock()
	pp.active--
	if p.isClosed() || gen != pp.gen {
		pp.mu.Unlock()
		pp.cond.Broadcast()
		_ = s.conn.Close()
		s.release()
		return
	}
	pp.idle = append(pp.idle, &pooledSession{s: s, idledAt: resource.CoarseTime(), reused: true})
	pp.mu.Unlock()
	pp.cond.Broadcast()
}

// checkinFailed releases the slot of a session that died or never came
// up.
func (p *Pool) checkinFailed(pp *peerPool) {
	pp.mu.Lock()
	pp.active--
	pp.mu.Unlock()
	pp.cond.Broadcast()
}

func (p *Pool) discard(addr string, s *session) {
	_ = s.conn.Close()
	s.release()
	p.checkinFailed(p.peer(addr))
}

// Send transfers one agent to addr over a pooled session. A transfer
// that fails on a *reused* session is transparently retried once on a
// freshly dialed one — the stale channel was the pool's guess, not the
// network's verdict, so its death must not consume a caller retry
// attempt. Rejections (ErrRejected) and load sheds (admission.ErrShed)
// are the receiver speaking over a healthy channel: the session goes
// back to the pool and the verdict is returned as-is — a shed agent's
// retries in particular must not burn the warm channel they will soon
// travel over.
func (p *Pool) Send(addr string, a *agent.Agent) error {
	s, reused, gen, err := p.checkout(addr, false)
	if err != nil {
		return err
	}
	err = p.exchange(addr, s, gen, a)
	if err == nil || !reused || receiverSpoke(err) {
		return err
	}
	// The pooled session was stale (peer restarted, idle timeout raced,
	// connection reset while parked). Dial fresh and try once more.
	p.staleRedials.Add(1)
	s, _, gen, err = p.checkout(addr, true)
	if err != nil {
		return err
	}
	return p.exchange(addr, s, gen, a)
}

// exchange runs one transfer on a checked-out session, then checks the
// session back in if the receiver answered and discards it otherwise.
func (p *Pool) exchange(addr string, s *session, gen uint64, a *agent.Agent) error {
	err := p.ep.exchange(s, a)
	if err == nil || receiverSpoke(err) {
		p.checkin(addr, s, gen)
	} else {
		p.discard(addr, s)
	}
	return err
}

// receiverSpoke reports whether err is the receiver's verdict on an
// agent (a reject or a shed) rather than a failure of the channel.
func receiverSpoke(err error) bool {
	return errors.Is(err, ErrRejected) || errors.Is(err, admission.ErrShed)
}

// Reset closes every idle session and invalidates checked-out ones (they
// are closed at checkin). Used by Server.Crash: a crashed machine's
// warm channels do not survive into its afterlife.
func (p *Pool) Reset() {
	p.mu.Lock()
	peers := make([]*peerPool, 0, len(p.peers))
	for _, pp := range p.peers {
		peers = append(peers, pp)
	}
	p.mu.Unlock()
	for _, pp := range peers {
		pp.mu.Lock()
		pp.gen++
		idle := pp.idle
		pp.idle = nil
		pp.mu.Unlock()
		pp.cond.Broadcast()
		for _, ps := range idle {
			p.evictions.Add(1)
			_ = ps.s.conn.Close()
			ps.s.release()
		}
	}
}

// Close drains the pool: idle sessions are closed now, checked-out ones
// at checkin, and all future Sends fail with ErrPoolClosed. The reap
// goroutine has exited by the time Close returns — for every caller,
// including concurrent ones — so no sweep can race the final Reset or
// touch pool state after the owner has torn it down.
func (p *Pool) Close() {
	p.mu.Lock()
	already := p.closed
	p.closed = true
	p.mu.Unlock()
	p.stopReap.Do(func() { close(p.reapStop) })
	<-p.reapDone
	if already {
		return
	}
	p.Reset()
}

func (p *Pool) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// Stats returns a snapshot of the pool's counters and occupancy.
func (p *Pool) Stats() PoolStats {
	st := PoolStats{
		Dials:        p.dials.Load(),
		Reuses:       p.reuses.Load(),
		Evictions:    p.evictions.Load(),
		StaleRedials: p.staleRedials.Load(),
	}
	p.mu.Lock()
	peers := make([]*peerPool, 0, len(p.peers))
	for _, pp := range p.peers {
		peers = append(peers, pp)
	}
	p.mu.Unlock()
	for _, pp := range peers {
		pp.mu.Lock()
		st.Idle += len(pp.idle)
		st.Active += pp.active
		pp.mu.Unlock()
	}
	return st
}

// reapLoop sweeps idle sessions past their timeout, so channels to a
// peer the server stopped talking to do not linger until the next
// checkout.
func (p *Pool) reapLoop() {
	defer close(p.reapDone)
	// Sweep on the process-wide coarse clock instead of a per-pool
	// time.Ticker: the half-idle-timeout period is seconds-scale, so the
	// shared millisecond wheel is exact enough, and a process full of
	// servers runs one ticker instead of one per pool.
	for {
		if canceled := resource.CoarseSleep(p.cfg.IdleTimeout/2, p.reapStop); canceled {
			return
		}
		p.mu.Lock()
		peers := make([]*peerPool, 0, len(p.peers))
		for _, pp := range p.peers {
			peers = append(peers, pp)
		}
		p.mu.Unlock()
		now := resource.CoarseTime()
		for _, pp := range peers {
			var dead []*pooledSession
			pp.mu.Lock()
			kept := pp.idle[:0]
			for _, ps := range pp.idle {
				if now.Sub(ps.idledAt) > p.cfg.IdleTimeout {
					dead = append(dead, ps)
					continue
				}
				kept = append(kept, ps)
			}
			pp.idle = kept
			pp.mu.Unlock()
			if len(dead) > 0 {
				pp.cond.Broadcast()
			}
			for _, ps := range dead {
				p.evictions.Add(1)
				_ = ps.s.conn.Close()
				ps.s.release()
			}
		}
	}
}

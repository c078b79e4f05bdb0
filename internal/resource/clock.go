package resource

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"
)

// The expiry screen runs on every proxy invocation, and a precise
// time.Now() costs more than the rest of the lock-free screen combined
// (a vDSO clock read is ~65ns on the benchmark machine; the snapshot
// load plus method lookup is ~30ns). Proxies usually expire hours away,
// so the screen only needs a precise clock *near* the deadline: far
// from it, a millisecond-coarse clock answers "not expired yet" just as
// correctly.
//
// coarseNow is that clock: Unix nanoseconds, refreshed every
// millisecond by a single package daemon started on first proxy
// creation. pastDeadline decides from the coarse value alone while the
// deadline is at least clockSlack away, and falls back to time.Now()
// inside the window — so expiry semantics stay exact as long as the
// daemon is not starved for longer than clockSlack, and degrade only to
// "expiry observed up to the starvation lag late" if it is. Revocation,
// not expiry, is the mechanism with a hard cutoff guarantee (§5.5); see
// docs/PROTOCOLS.md §8.
var coarseNow atomic.Int64

var clockOnce sync.Once

// clockSlack is how close to a deadline the screen switches from the
// coarse clock to a precise one. It bounds the staleness the daemon may
// accumulate before expiry checks could pass a dead proxy.
const clockSlack = int64(250 * time.Millisecond)

// clockTick is the coarse clock's refresh period.
const clockTick = time.Millisecond

// startClock launches the coarse-clock daemon once per process. The
// goroutine is deliberately never stopped: it is one timer for the
// process lifetime, shared by every proxy of every server — and, since
// the coarse-clock consolidation, by every retry backoff and transfer
// deadline as well (CoarseSleep / CoarseTime below), so the process
// runs ONE ticker instead of allocating a time.Timer per attempt.
func startClock() {
	clockOnce.Do(func() {
		coarseNow.Store(time.Now().UnixNano())
		go func() {
			t := time.NewTicker(clockTick)
			defer t.Stop() // unreachable; keeps vet happy about the ticker
			for now := range t.C {
				coarseNow.Store(now.UnixNano())
				fireSleepers(now.UnixNano())
			}
		}()
	})
}

// CoarseTime returns the shared coarse clock's reading as a time.Time.
// It is at most clockTick (+ any daemon starvation lag) behind the
// precise clock — callers computing multi-second network deadlines
// (transfer handshakes, per-attempt budgets) use it to avoid a precise
// clock read per attempt.
func CoarseTime() time.Time {
	startClock()
	return time.Unix(0, coarseNow.Load())
}

// sleeper is one CoarseSleep waiter: the daemon closes done at the
// first tick at or past the deadline. index is the sleeper's position
// in the sleepers heap, -1 once it has left it.
type sleeper struct {
	deadline int64
	done     chan struct{}
	index    int
}

// sleeperHeap is a min-heap of waiters by deadline (container/heap),
// indexed so a cancelled waiter removes itself in O(log n) and each
// tick pops only the waiters that are due.
type sleeperHeap []*sleeper

func (h sleeperHeap) Len() int           { return len(h) }
func (h sleeperHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h sleeperHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *sleeperHeap) Push(x any) {
	w := x.(*sleeper)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *sleeperHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil // not retained by the backing array
	w.index = -1
	*h = old[:len(old)-1]
	return w
}

var (
	sleepersMu sync.Mutex
	sleepers   sleeperHeap
)

// fireSleepers wakes every expired waiter; runs on the clock daemon.
func fireSleepers(now int64) {
	sleepersMu.Lock()
	for len(sleepers) > 0 && now >= sleepers[0].deadline {
		close(heap.Pop(&sleepers).(*sleeper).done)
	}
	sleepersMu.Unlock()
}

// CoarseSleep blocks for approximately d — resolution clockTick, so ±1ms
// in the steady state — waking on the shared clock ticker instead of
// allocating a dedicated time.Timer. It returns true immediately if
// cancel closes first, taking its waiter off the clock at once. Intended
// for waits that are long relative to the tick and tolerant of
// millisecond skew: retry backoffs, redelivery pauses, journey
// timeouts. Sub-tick durations still wait for the next tick (never a
// busy spin); zero and negative durations return at once.
func CoarseSleep(d time.Duration, cancel <-chan struct{}) (canceled bool) {
	if d <= 0 {
		select {
		case <-cancel:
			return true
		default:
			return false
		}
	}
	startClock()
	// The deadline comes from the precise clock: the coarse reading lags
	// by however long the daemon was starved, and a deadline taken from
	// it would wake the sleeper that much early.
	w := &sleeper{deadline: time.Now().UnixNano() + int64(d), done: make(chan struct{})}
	sleepersMu.Lock()
	heap.Push(&sleepers, w)
	sleepersMu.Unlock()
	select {
	case <-w.done:
		return false
	case <-cancel:
		sleepersMu.Lock()
		if w.index >= 0 { // not fired meanwhile
			heap.Remove(&sleepers, w.index)
		}
		sleepersMu.Unlock()
		return true
	}
}

// pastDeadline reports whether the deadline (Unix nanos) has passed,
// consulting the precise clock only within clockSlack of the deadline.
func pastDeadline(deadline int64) bool {
	if coarseNow.Load() < deadline-clockSlack {
		return false
	}
	return time.Now().UnixNano() > deadline
}

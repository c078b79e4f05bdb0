package resource

import (
	"sync"
	"testing"
	"time"
)

// CoarseSleep must actually wait out the requested duration (within the
// clock's tick resolution) and wake without a per-call timer.
func TestCoarseSleepElapses(t *testing.T) {
	const d = 20 * time.Millisecond
	start := time.Now()
	if canceled := CoarseSleep(d, nil); canceled {
		t.Fatal("CoarseSleep reported canceled with a nil cancel channel")
	}
	elapsed := time.Since(start)
	// The wheel rounds up to the next tick and the daemon may lag under
	// load; only the lower bound is a correctness property (a backoff
	// must not return early by more than one tick).
	if elapsed < d-2*clockTick {
		t.Fatalf("CoarseSleep(%v) returned after %v", d, elapsed)
	}
}

func TestCoarseSleepCancel(t *testing.T) {
	cancel := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- CoarseSleep(time.Hour, cancel) }()
	close(cancel)
	select {
	case canceled := <-done:
		if !canceled {
			t.Fatal("CoarseSleep returned uncanceled despite closed cancel channel")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CoarseSleep did not honor cancellation")
	}
}

func TestCoarseSleepZeroAndNegative(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		start := time.Now()
		if CoarseSleep(d, nil) {
			t.Fatalf("CoarseSleep(%v, nil) reported canceled", d)
		}
		if time.Since(start) > 100*time.Millisecond {
			t.Fatalf("CoarseSleep(%v) blocked", d)
		}
	}
	// Zero duration with an already-closed cancel prefers cancellation.
	closed := make(chan struct{})
	close(closed)
	if !CoarseSleep(0, closed) {
		t.Fatal("CoarseSleep(0, closed) should report canceled")
	}
}

// Many concurrent sleepers share the one clock daemon; all must wake.
func TestCoarseSleepConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			CoarseSleep(time.Duration(1+i%7)*time.Millisecond, nil)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent CoarseSleep callers did not all wake")
	}
}

func TestCoarseTimeTracksWallClock(t *testing.T) {
	got := CoarseTime()
	if skew := time.Since(got); skew < -clockSlackDur() || skew > clockSlackDur() {
		t.Fatalf("CoarseTime skew %v exceeds slack %v", skew, clockSlackDur())
	}
}

func clockSlackDur() time.Duration { return time.Duration(clockSlack) }

func sleeperCount() int {
	sleepersMu.Lock()
	defer sleepersMu.Unlock()
	return len(sleepers)
}

// A cancelled sleeper leaves the clock at once instead of staying listed
// until its deadline: after many cancelled 30 s sleeps (journey
// timeouts the agent beat), the clock holds no sleepers, and short
// sleepers interleaved with them in the heap still wake.
func TestCoarseSleepCancelLeavesClock(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	for i := 0; i < 1000; i++ {
		if !CoarseSleep(30*time.Second, closed) {
			t.Fatal("CoarseSleep with a closed cancel channel did not report canceled")
		}
	}
	if n := sleeperCount(); n != 0 {
		t.Fatalf("%d sleepers listed after 1000 cancelled sleeps, want 0", n)
	}

	var wg sync.WaitGroup
	cancel := make(chan struct{})
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				CoarseSleep(30*time.Second, cancel)
				return
			}
			if CoarseSleep(time.Duration(2+i%7)*time.Millisecond, nil) {
				t.Error("short sleeper reported canceled")
			}
		}(i)
	}
	close(cancel)
	wg.Wait()
	if n := sleeperCount(); n != 0 {
		t.Fatalf("%d sleepers listed after every sleeper returned, want 0", n)
	}
}

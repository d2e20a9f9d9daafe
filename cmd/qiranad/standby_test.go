package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"qirana"
	"qirana/internal/httpapi"
)

// TestFailoverGateConsecutiveMisses: only K misses IN A ROW promote —
// any success resets the streak, so a flapping leader (answering every
// other probe) never loses its ledger to an eager standby.
func TestFailoverGateConsecutiveMisses(t *testing.T) {
	g := newFailoverGate(3, 10*time.Millisecond, 1)
	if g.miss() || g.miss() {
		t.Fatal("promoted before K consecutive misses")
	}
	g.success() // streak broken at 2/3
	if g.miss() || g.miss() {
		t.Fatal("success did not reset the miss streak")
	}
	if !g.miss() {
		t.Fatal("third consecutive miss must promote")
	}

	// A flapping leader: alternating miss/success forever never reaches
	// the gate no matter how many total misses pile up.
	g = newFailoverGate(2, 10*time.Millisecond, 1)
	for i := 0; i < 50; i++ {
		if g.miss() {
			t.Fatalf("flapping leader promoted on alternation %d", i)
		}
		g.success()
	}

	// k < 1 is clamped: a gate can never promote on zero misses.
	g = newFailoverGate(0, time.Millisecond, 1)
	if !g.miss() {
		t.Fatal("k clamped to 1: first miss must promote")
	}
}

// TestFailoverGateWaitBounds: the probe interval is jittered ±20% (a
// fleet must not probe in phase) and backs off — doubling per
// consecutive miss, capped at 4× base — so a slow-but-alive leader gets
// MORE time to answer as the streak grows, not less.
func TestFailoverGateWaitBounds(t *testing.T) {
	const base = 100 * time.Millisecond
	bounds := func(mult float64) (time.Duration, time.Duration) {
		lo := time.Duration(float64(base) * mult * 0.8)
		hi := time.Duration(float64(base) * mult * 1.2)
		return lo, hi
	}
	g := newFailoverGate(10, base, 42)
	for streak, mult := range map[int]float64{0: 1, 1: 2, 2: 4, 3: 4, 7: 4} {
		g.misses = streak
		lo, hi := bounds(mult)
		for i := 0; i < 200; i++ {
			if d := g.wait(); d < lo || d >= hi {
				t.Fatalf("streak %d: wait %v outside [%v, %v)", streak, d, lo, hi)
			}
		}
	}

	// Jitter actually varies: two gates with different seeds (or the
	// same gate across draws) must not produce one constant interval.
	g.misses = 0
	first := g.wait()
	varies := false
	for i := 0; i < 20; i++ {
		if g.wait() != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("wait() is not jittered")
	}
}

// TestProbeLoopFlappingLeaderNeverPromotes: a leader that misses K-1
// probes then answers, forever, keeps the standby read-only for the
// whole window; once the leader goes fully dark the loop promotes after
// exactly K consecutive misses and returns.
func TestProbeLoopFlappingLeaderNeverPromotes(t *testing.T) {
	gate := newFailoverGate(3, time.Millisecond, 7)
	var refreshes, probes atomic.Int64
	var dark atomic.Bool
	promoted := make(chan struct{})
	done := make(chan struct{})
	errDown := errors.New("leader down")

	go func() {
		defer close(done)
		probeLoop(nil, gate,
			func() { refreshes.Add(1) },
			func() error {
				n := probes.Add(1)
				if dark.Load() {
					return errDown
				}
				// Flap: two misses, one success — always one short of K.
				if n%3 != 0 {
					return errDown
				}
				return nil
			},
			func() { close(promoted) },
		)
	}()

	// ~60 probe periods of flapping: no promotion allowed.
	deadline := time.After(100 * time.Millisecond)
flap:
	for {
		select {
		case <-promoted:
			t.Fatal("flapping leader promoted the standby")
		case <-deadline:
			break flap
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if probes.Load() < 10 {
		t.Fatalf("probe loop barely ran: %d probes in 100ms at 1ms base", probes.Load())
	}

	// Leader goes dark: promotion must arrive, and the loop must exit.
	before := probes.Load()
	dark.Store(true)
	select {
	case <-promoted:
	case <-time.After(2 * time.Second):
		t.Fatal("dead leader never promoted the standby")
	}
	<-done
	// At most a handful of probes separate dark from promotion: the
	// streak may carry over from the flap pattern, so between 1 and K
	// additional probes fire — never an unbounded number.
	if extra := probes.Load() - before; extra < 1 || extra > int64(gate.k) {
		t.Fatalf("promotion took %d probes after leader went dark, want 1..%d", extra, gate.k)
	}
	if refreshes.Load() != probes.Load() {
		t.Fatalf("refresh ran %d times for %d probes: the WAL tail must refresh every wakeup",
			refreshes.Load(), probes.Load())
	}
}

// TestProbeLoopStops: closing stop ends the loop without promoting.
func TestProbeLoopStops(t *testing.T) {
	// k is huge so the always-failing probe can't legitimately promote
	// while the stop signal races the probe timer.
	gate := newFailoverGate(1000, time.Millisecond, 3)
	stop := make(chan struct{})
	promoted := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		probeLoop(stop, gate, func() {}, func() error { return errors.New("down") },
			func() { close(promoted) })
	}()
	close(stop)
	select {
	case <-done:
	case <-promoted:
		t.Fatal("stopped loop promoted")
	case <-time.After(2 * time.Second):
		t.Fatal("probe loop did not stop")
	}
}

// TestProbeLeader: the standby's health probe passes against a live
// leader's API and fails on a 503. The leader serves health only under
// /v1/, so a probe of any other path fails the first case.
func TestProbeLeader(t *testing.T) {
	db, err := qirana.LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := qirana.NewBroker(db, 100, qirana.Options{SupportSetSize: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	leader := httptest.NewServer(httpapi.New(b, time.Second))
	defer leader.Close()
	if err := probeLeader(leader.Client(), leader.URL); err != nil {
		t.Fatalf("healthy leader failed the probe: %v", err)
	}

	sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer sick.Close()
	if err := probeLeader(sick.Client(), sick.URL); err == nil {
		t.Fatal("a leader answering 503 passed the probe")
	}
}

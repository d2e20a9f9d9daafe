package obs

import (
	"encoding/json"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("quotes")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("quotes") != c {
		t.Fatal("same name must return the same counter")
	}
}

// TestCounterMax pins the high-water-mark form: Max only ever raises the
// counter, and concurrent callers leave it at the largest value offered.
func TestCounterMax(t *testing.T) {
	var c Counter
	c.Max(3)
	c.Max(1)
	if got := c.Value(); got != 3 {
		t.Fatalf("after Max(3), Max(1): %d, want 3", got)
	}
	var wg sync.WaitGroup
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(n uint64) {
			defer wg.Done()
			c.Max(n)
		}(uint64(i))
	}
	wg.Wait()
	if got := c.Value(); got != 64 {
		t.Fatalf("concurrent Max up to 64: %d", got)
	}
	var nilC *Counter
	nilC.Max(5)
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Histogram("y").Observe(time.Second)
	r.Add("x", 3)
	r.Observe("y", time.Second)
	r.Timer("z")()
	r.PublishExpvar("nil-reg")
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Latencies) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must read zero")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram must be empty")
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	// 1000 observations spread uniformly over 1..1000 ms: p50 ≈ 500ms,
	// p95 ≈ 950ms, p99 ≈ 990ms. Bucket resolution is a power of two, so
	// allow generous (factor ~2) slack — the point is order-of-magnitude
	// serving latency, not exact quantiles.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d", s.Count)
	}
	check := func(name string, got, want time.Duration) {
		if got < want/2 || got > want*2 {
			t.Errorf("%s = %v, want within 2x of %v", name, got, want)
		}
	}
	check("p50", s.P50, 500*time.Millisecond)
	check("p95", s.P95, 950*time.Millisecond)
	check("p99", s.P99, 990*time.Millisecond)
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
	if s.Mean <= 0 || s.Sum <= 0 {
		t.Fatalf("mean/sum not recorded: %+v", s)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)   // clamps to zero
	h.Observe(24 * time.Hour) // beyond the ladder: last bucket
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P99 <= 0 {
		t.Fatalf("p99 = %v", s.P99)
	}
}

func TestTimerObserves(t *testing.T) {
	r := New()
	stop := r.Timer("stage_parse")
	time.Sleep(2 * time.Millisecond)
	stop()
	s := r.Histogram("stage_parse").Snapshot()
	if s.Count != 1 || s.Sum < time.Millisecond {
		t.Fatalf("timer snapshot: %+v", s)
	}
}

func TestSnapshotAndNames(t *testing.T) {
	r := New()
	r.Add("a_counter", 2)
	r.Observe("b_hist", time.Millisecond)
	s := r.Snapshot()
	if s.Counters["a_counter"] != 2 {
		t.Fatalf("snapshot counters: %+v", s.Counters)
	}
	if s.Latencies["b_hist"].Count != 1 {
		t.Fatalf("snapshot latencies: %+v", s.Latencies)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "a_counter" || got[1] != "b_hist" {
		t.Fatalf("names: %v", got)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot must marshal: %v", err)
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("hits").Inc()
				r.Histogram("lat").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
	if got := r.Histogram("lat").Snapshot().Count; got != 8000 {
		t.Fatalf("lat count = %d, want 8000", got)
	}
}

func TestPublishExpvarRebinds(t *testing.T) {
	r1, r2 := New(), New()
	r1.Add("gen", 1)
	r2.Add("gen", 2)
	r1.PublishExpvar("obs-test-metrics")
	r1.PublishExpvar("obs-test-metrics") // same registry twice: no panic
	r2.PublishExpvar("obs-test-metrics") // rebinding: no panic, serves r2
	v := expvar.Get("obs-test-metrics")
	if v == nil {
		t.Fatal("expvar not published")
	}
	if s := v.String(); !strings.Contains(s, `"gen":2`) {
		t.Fatalf("expvar serves stale registry: %s", s)
	}
}

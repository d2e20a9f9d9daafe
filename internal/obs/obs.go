// Package obs is the serving layer's dependency-free observability
// substrate: named atomic counters and bounded latency histograms behind
// one Registry, with a JSON-friendly snapshot API and optional expvar
// export. The broker, the pricing engine, the disagreement checker and
// the quote cache all report through a Registry, so `qiranad /metrics`
// (and every future scaling PR) has one place to read operational signal
// from.
//
// Design constraints, in order:
//
//   - Hot-path cost ≈ zero. A counter increment is one atomic add; a
//     histogram observation is three atomic adds (count, sum, bucket).
//     Nothing on the quote path takes a lock or allocates.
//   - Nil-safe wiring. Every method works on a nil *Registry, nil
//     *Counter and nil *Histogram (as a no-op), so the engine layers can
//     be instrumented unconditionally and a library user who never asks
//     for metrics pays only a nil check.
//   - Bounded memory. Histograms use a fixed exponential bucket ladder
//     (1µs … ~18m); percentiles are estimated by linear interpolation
//     inside the winning bucket, which is plenty for p50/p95/p99 serving
//     dashboards.
package obs

import (
	"expvar"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic atomic counter. The zero value is ready to use;
// a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Max raises the counter to n when it is below n: a high-water mark,
// monotonic like every counter, kept exact under concurrent callers.
func (c *Counter) Max(n uint64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if n <= cur || c.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// numBuckets covers 1µs up to ~18 minutes with doubling bucket bounds;
// observations beyond the ladder land in the last bucket.
const numBuckets = 31

// bucketBound returns the inclusive upper bound of bucket i in
// nanoseconds: 1µs << i.
func bucketBound(i int) uint64 { return uint64(time.Microsecond) << uint(i) }

// Histogram is a bounded latency histogram with lock-free observation.
// The zero value is ready to use; a nil *Histogram is a no-op.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	buckets [numBuckets]atomic.Uint64
}

// Observe records one duration (negative durations count as zero).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	ns := uint64(d)
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
}

func bucketOf(ns uint64) int {
	for i := 0; i < numBuckets-1; i++ {
		if ns <= bucketBound(i) {
			return i
		}
	}
	return numBuckets - 1
}

// HistSnapshot is a point-in-time summary of one histogram.
type HistSnapshot struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
}

// Snapshot summarizes the histogram. Concurrent observations may land
// between the count and bucket reads; the skew is at most the handful of
// in-flight observations and irrelevant for dashboard percentiles.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	if s.Count == 0 {
		return s
	}
	s.Mean = s.Sum / time.Duration(s.Count)
	var counts [numBuckets]uint64
	var total uint64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return s
	}
	s.P50 = quantile(&counts, total, 0.50)
	s.P95 = quantile(&counts, total, 0.95)
	s.P99 = quantile(&counts, total, 0.99)
	return s
}

// quantile estimates the q-th quantile by walking the bucket ladder and
// interpolating linearly inside the bucket where the cumulative count
// crosses q·total.
func quantile(counts *[numBuckets]uint64, total uint64, q float64) time.Duration {
	target := q * float64(total)
	var cum float64
	for i := 0; i < numBuckets; i++ {
		c := float64(counts[i])
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo := float64(0)
			if i > 0 {
				lo = float64(bucketBound(i - 1))
			}
			hi := float64(bucketBound(i))
			frac := (target - cum) / c
			return time.Duration(lo + (hi-lo)*frac)
		}
		cum += c
	}
	return time.Duration(bucketBound(numBuckets - 1))
}

// Registry is a named collection of counters and histograms. Lookups
// lock briefly; the returned handles are lock-free thereafter (callers
// that care cache the handle). A nil *Registry hands out nil handles,
// making every downstream observation a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Add increments the named counter by n.
func (r *Registry) Add(name string, n uint64) { r.Counter(name).Add(n) }

// Observe records one duration into the named histogram.
func (r *Registry) Observe(name string, d time.Duration) { r.Histogram(name).Observe(d) }

// Timer starts timing a stage and returns the stop function that records
// the elapsed time into the named histogram:
//
//	defer r.Timer("stage_classify")()
func (r *Registry) Timer(name string) func() {
	if r == nil {
		return func() {}
	}
	h := r.Histogram(name)
	start := time.Now()
	return func() { h.Observe(time.Since(start)) }
}

// Snapshot is a point-in-time copy of every metric in the registry, in
// the shape /metrics serves.
type Snapshot struct {
	Counters  map[string]uint64       `json:"counters"`
	Latencies map[string]HistSnapshot `json:"latencies"`
}

// Snapshot captures all counters and histogram summaries. Map iteration
// order is irrelevant; keys are returned sorted by marshalling, not here.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}, Latencies: map[string]HistSnapshot{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range hists {
		s.Latencies[k] = v.Snapshot()
	}
	return s
}

// Names returns the sorted metric names (counters and histograms merged),
// mostly for tests and doc tables.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.hists))
	for k := range r.counters {
		names = append(names, k)
	}
	for k := range r.hists {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// published guards expvar.Publish, which panics on duplicate names (e.g.
// two brokers in one process, or tests constructing several daemons).
var (
	publishMu sync.Mutex
	published = map[string]*atomic.Pointer[Registry]{}
)

// PublishExpvar exports the registry under the given expvar name as a
// lazily-evaluated snapshot. Re-publishing a name rebinds it to this
// registry instead of panicking.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	ptr, ok := published[name]
	if !ok {
		ptr = &atomic.Pointer[Registry]{}
		published[name] = ptr
		expvar.Publish(name, expvar.Func(func() any { return ptr.Load().Snapshot() }))
	}
	ptr.Store(r)
}

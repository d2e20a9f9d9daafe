package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sweepStats mirrors the per-response "stats" block: how many support
// elements each tier of the disagreement checker decided.
type sweepStats struct {
	Static, Batched, FullRuns, Naive, DeltaFull, DeltaPartial int
}

func (s *sweepStats) add(o sweepStats) {
	s.Static += o.Static
	s.Batched += o.Batched
	s.FullRuns += o.FullRuns
	s.Naive += o.Naive
	s.DeltaFull += o.DeltaFull
	s.DeltaPartial += o.DeltaPartial
}

// elements is the number of (element, query) decisions behind a price.
func (s sweepStats) elements() int { return s.Static + s.Batched + s.FullRuns + s.Naive }

// sample is the outcome of one request as the client saw it.
type sample struct {
	req        request
	start, end time.Duration // offsets from the window start; start is the due time in an open loop
	late       time.Duration // open loop: how long after its due time the request was sent
	err        string        // non-empty: the request failed (counts in failed)

	prices   []float64
	cached   bool       // every priced entry came from the quote cache
	hit      []bool     // per priced entry: served from the quote cache
	approx   bool       // served by the sampled path (estimate block present, not refined)
	stats    sweepStats // decisions this request actually swept (cache hits add none)
	net, bal float64    // opAsk receipt
	viaHTTP  bool       // traced run: decoded from a response, not filled by the twin
}

func (s *sample) latency() time.Duration { return s.end - s.start }

// client drives one server over a fixed number of connections.
type client struct {
	base    string
	hc      *http.Client
	in, out atomic.Int64
	stmts   []int64 // /v1/prepare handles by template index
	// span, when non-empty, rides along as the X-Span header so the
	// traced run's handler decorator can nest its span under the
	// client's.
	span string
}

const spanHeader = "X-Span"

func newClient(base string, conns int) *client {
	c := &client{base: base}
	d := &net.Dialer{}
	c.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countingConn{conn, &c.in, &c.out}, nil
		},
	}}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// body renders the request's JSON body and path.
func (c *client) body(r request) (path string, body []byte) {
	m := map[string]any{}
	switch r.kind {
	case opQuote:
		path = "/v1/quote"
		m["sql"] = r.sqls[0]
	case opBatch:
		path = "/v1/quote/batch"
		m["sqls"] = r.sqls
	case opStmt:
		path = "/v1/quote"
		m["stmt"] = c.stmts[r.tmpl]
		m["params"] = r.params
	case opAsk:
		path = "/v1/ask"
		m["buyer"] = r.buyer
		m["sql"] = r.sqls[0]
	}
	if r.fn != "" {
		m["func"] = r.fn
	}
	if r.maxErr > 0 {
		m["max_error"] = r.maxErr
	}
	body, _ = json.Marshal(m) // a map of strings and numbers cannot fail
	return path, body
}

type quoteInfo struct {
	Price    float64    `json:"price"`
	Stats    sweepStats `json:"stats"`
	Cached   bool       `json:"cached"`
	Estimate *struct {
		Refined  bool `json:"refined"`
		Degraded bool `json:"degraded"`
	} `json:"estimate"`
}

type priceBody struct {
	Prices   []float64   `json:"prices"`
	PerQuery []quoteInfo `json:"per_query"`
}

type askBody struct {
	Net     float64 `json:"net"`
	Balance float64 `json:"balance"`
	Cached  bool    `json:"cached"`
}

// post sends one JSON body and returns the response body of a 200.
func (c *client) post(path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.span != "" {
		req.Header.Set(spanHeader, c.span)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	return data, nil
}

// do performs the request and checks everything about the answer that
// can be checked without a reference: status, shape, price range, and
// that a healthy server neither degraded nor shed it.
func (c *client) do(r request, s *sample) {
	s.req = r
	path, body := c.body(r)
	data, err := c.post(path, body)
	if err != nil {
		s.err = err.Error()
		return
	}
	decode(r, data, s)
}

// decode parses a 200 response body into s and applies the checks.
func decode(r request, data []byte, s *sample) {
	if r.kind == opAsk {
		var a askBody
		if err := json.Unmarshal(data, &a); err != nil {
			s.err = "decode receipt: " + err.Error()
			return
		}
		s.net, s.bal, s.cached, s.hit = a.Net, a.Balance, a.Cached, []bool{a.Cached}
		if !plausiblePrice(a.Net) || !plausiblePrice(a.Balance) {
			s.err = fmt.Sprintf("implausible receipt net=%g balance=%g", a.Net, a.Balance)
		}
		return
	}
	var p priceBody
	if err := json.Unmarshal(data, &p); err != nil {
		s.err = "decode quote: " + err.Error()
		return
	}
	if len(p.Prices) != len(r.sqls) && r.kind != opStmt || len(p.Prices) == 0 || len(p.PerQuery) != len(p.Prices) {
		s.err = fmt.Sprintf("got %d prices for %d queries", len(p.Prices), len(r.sqls))
		return
	}
	s.prices = p.Prices
	s.cached = true
	for i, q := range p.PerQuery {
		s.cached = s.cached && q.Cached
		s.hit = append(s.hit, q.Cached)
		if !q.Cached {
			s.stats.add(q.Stats) // a hit echoes the stats of the sweep that filled the entry
		}
		switch {
		case !plausiblePrice(p.Prices[i]):
			s.err = fmt.Sprintf("implausible price %g", p.Prices[i])
		case q.Estimate != nil && q.Estimate.Degraded:
			s.err = "degraded quote on a healthy cluster"
		case q.Estimate != nil && r.maxErr == 0:
			s.err = "exact request was shed to the approximate path"
		case q.Estimate != nil && !q.Estimate.Refined:
			s.approx = true
		}
	}
}

// prepare registers the workload's templates and records their handles.
func (c *client) prepare(templates []string) error {
	c.stmts = make([]int64, len(templates))
	for i, t := range templates {
		body, _ := json.Marshal(map[string]string{"sql": t})
		data, err := c.post("/v1/prepare", body)
		if err != nil {
			return fmt.Errorf("prepare %q: %w", t, err)
		}
		var out struct {
			Stmt int64 `json:"stmt"`
		}
		if err := json.Unmarshal(data, &out); err != nil || out.Stmt == 0 {
			return fmt.Errorf("prepare %q: bad handle in %.100s", t, data)
		}
		c.stmts[i] = out.Stmt
	}
	return nil
}

// replay sends the requests one after another (the warm-up).
func (c *client) replay(reqs []request) error {
	for _, r := range reqs {
		var s sample
		c.do(r, &s)
		if s.err != "" {
			return fmt.Errorf("warm-up request %d (%.80s): %s", r.seq, r.sqls, s.err)
		}
	}
	return nil
}

// window is the outcome of one timed window.
type window struct {
	dur      time.Duration
	samples  []sample // in completion order per client, concatenated
	backlog  int      // open loop: requests due inside the window that were never sent
	openLoop bool
}

// sequencer hands out the generated sequence to concurrent clients in
// order.
type sequencer struct {
	mu   sync.Mutex
	next func() request
}

func (q *sequencer) take() request {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.next()
}

// runClosed drives a closed loop: each of the clients sends its next
// request as soon as its previous one completes, until dur has passed.
func runClosed(c *client, next func() request, conns int, dur time.Duration) window {
	seq := &sequencer{next: next}
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Since(t0) < dur {
				var s sample
				r := seq.take()
				s.start = time.Since(t0)
				c.do(r, &s)
				s.end = time.Since(t0)
				per[k] = append(per[k], s)
			}
		}(k)
	}
	wg.Wait()
	w := window{dur: dur}
	for _, p := range per {
		w.samples = append(w.samples, p...)
	}
	return w
}

// backlogGrace is how close to the end of the window a due request may
// go unsent without counting as backlog.
const backlogGrace = 100 * time.Millisecond

// runOpen drives an open loop: request i is due at i/rate seconds
// whether or not earlier ones have completed, sent by whichever of the
// clients is free. Latency runs from the due time, so a stall charges
// every request that had to wait behind it; late records how long after
// its due time a request actually left.
func runOpen(c *client, next func() request, conns int, dur time.Duration, rate float64) window {
	per := make([][]sample, conns)
	var issued atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	var mu sync.Mutex
	n := 0
	takeDue := func() (request, time.Duration, bool) {
		mu.Lock()
		defer mu.Unlock()
		due := time.Duration(float64(n) / rate * float64(time.Second))
		if due >= dur {
			return request{}, 0, false
		}
		n++
		return next(), due, true
	}
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				if time.Since(t0) >= dur {
					return
				}
				r, due, ok := takeDue()
				if !ok {
					return
				}
				if wait := due - time.Since(t0); wait > 0 {
					time.Sleep(wait)
				}
				var s sample
				s.start = due
				s.late = time.Since(t0) - due
				issued.Add(1)
				c.do(r, &s)
				s.end = time.Since(t0)
				per[k] = append(per[k], s)
			}
		}(k)
	}
	wg.Wait()
	w := window{dur: dur, openLoop: true}
	for _, p := range per {
		w.samples = append(w.samples, p...)
	}
	// A request due in the last moments of the window may find both
	// clients still busy when the window closes; only requests that were
	// due a full backlogGrace earlier and still never left count.
	w.backlog = int((dur-backlogGrace).Seconds()*rate) - int(issued.Load())
	if w.backlog < 0 {
		w.backlog = 0
	}
	return w
}

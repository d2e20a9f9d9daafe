package shard

import (
	"bytes"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"qirana/internal/failpoint"
	"qirana/internal/httpapi"
)

// ChaosProxy fronts a shard's HTTP handler with deterministic fault
// injection for the chaos suite (`make chaos`): probabilistic
// connection drops, 500s, added latency, slow-trickle response bodies,
// and an externally driven hard-down switch for flapping-shard
// scenarios. Faults are drawn from a PRNG seeded by ChaosConfig.Seed,
// so a failing run replays the same fault schedule.
//
// On top of the probabilistic faults, the proxy consults per-instance
// failpoints so a test can force exactly one targeted fault on the next
// sweep request:
//
//	failpoint.Enable(p.Failpoint(shard.ChaosDrop), nil)       // next request: dropped
//	failpoint.EnableSticky(p.Failpoint(shard.ChaosDrop), nil) // hard-down until Disable
//	failpoint.Enable(p.Failpoint(shard.ChaosStall), nil)      // next request: stalls (hedge bait)
//
// Drops abort the connection without writing a response (the client
// sees a transport error, exactly like a crashed worker); the other
// shapes exercise the 5xx, latency, and torn/slow-body paths of the
// fan-out's retry and hedge machinery.
type ChaosConfig struct {
	// Name namespaces this proxy's failpoints (e.g. "chaos/shard0");
	// "chaos" when empty.
	Name string
	// Seed keys the fault schedule.
	Seed int64
	// DropProb aborts the connection; ErrProb answers 500; DelayProb
	// sleeps a uniform [0, MaxDelay) before serving; TrickleProb serves
	// the response body a few bytes at a time. Each is checked
	// independently per request.
	DropProb    float64
	ErrProb     float64
	DelayProb   float64
	MaxDelay    time.Duration
	TrickleProb float64
	// StallDelay is how long the ChaosStall failpoint holds a request
	// before serving (1s when zero) — long enough that a hedged
	// duplicate always beats the stalled copy.
	StallDelay time.Duration
}

// Failpoint kinds understood by ChaosProxy.Failpoint.
const (
	ChaosDrop  = "drop"
	ChaosErr   = "500"
	ChaosStall = "stall"
)

type ChaosProxy struct {
	h        http.Handler
	cfg      ChaosConfig
	mu       sync.Mutex
	rng      *rand.Rand
	down     atomic.Bool
	disarmed atomic.Bool
	faults   atomic.Uint64
}

// NewChaosProxy wraps h (typically shard.Handler(broker)) in the fault
// injector.
func NewChaosProxy(h http.Handler, cfg ChaosConfig) *ChaosProxy {
	if cfg.Name == "" {
		cfg.Name = "chaos"
	}
	if cfg.StallDelay <= 0 {
		cfg.StallDelay = time.Second
	}
	return &ChaosProxy{h: h, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Failpoint returns the fully-qualified failpoint name for one of the
// Chaos* kinds on this proxy instance.
func (p *ChaosProxy) Failpoint(kind string) string { return p.cfg.Name + "/" + kind }

// SetDown flips the hard-down switch: while down, every request is
// dropped (flapping-shard and one-shard-dead scenarios).
func (p *ChaosProxy) SetDown(down bool) { p.down.Store(down) }

// Arm toggles the probabilistic fault schedule; SetDown and failpoints
// apply regardless. Proxies start armed — tests disarm around the
// cluster handshake, which is fail-fast by design and would otherwise
// be flaky by construction under a nonzero DropProb.
func (p *ChaosProxy) Arm(on bool) { p.disarmed.Store(!on) }

// Faults reports how many faults this proxy has injected.
func (p *ChaosProxy) Faults() uint64 { return p.faults.Load() }

func (p *ChaosProxy) roll(prob float64) bool {
	if prob <= 0 || p.disarmed.Load() {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64() < prob
}

func (p *ChaosProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.down.Load() || failpoint.Hit(p.Failpoint(ChaosDrop)) != nil || p.roll(p.cfg.DropProb) {
		p.faults.Add(1)
		// Abort without a response: net/http closes the connection and
		// the client sees a transport error, like a crashed worker.
		panic(http.ErrAbortHandler)
	}
	if failpoint.Hit(p.Failpoint(ChaosErr)) != nil || p.roll(p.cfg.ErrProb) {
		p.faults.Add(1)
		httpapi.WriteRequestError(w, &httpapi.Error{Status: http.StatusInternalServerError,
			Code: httpapi.CodeShardUnavailable, Message: "chaos: injected shard failure"})
		return
	}
	if failpoint.Hit(p.Failpoint(ChaosStall)) != nil {
		p.faults.Add(1)
		p.sleep(r, p.cfg.StallDelay)
	} else if p.roll(p.cfg.DelayProb) {
		p.faults.Add(1)
		p.sleep(r, p.randDelay())
	}
	if p.roll(p.cfg.TrickleProb) {
		p.faults.Add(1)
		p.trickle(w, r)
		return
	}
	p.h.ServeHTTP(w, r)
}

func (p *ChaosProxy) randDelay() time.Duration {
	if p.cfg.MaxDelay <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.rng.Int63n(int64(p.cfg.MaxDelay)))
}

// sleep waits for d or until the client hangs up.
func (p *ChaosProxy) sleep(r *http.Request, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
	}
}

// trickle buffers the downstream response and replays it a few bytes at
// a time with a flush and a pause between chunks — the slow-body shape
// that catches clients assuming a response arrives in one read.
func (p *ChaosProxy) trickle(w http.ResponseWriter, r *http.Request) {
	rec := &bufferedResponse{header: http.Header{}}
	p.h.ServeHTTP(rec, r)
	for k, vs := range rec.header {
		w.Header()[k] = vs
	}
	// The body arrives in pieces of unknown total length; drop any
	// Content-Length the inner handler computed.
	w.Header().Del("Content-Length")
	if rec.code == 0 {
		rec.code = http.StatusOK
	}
	w.WriteHeader(rec.code)
	flusher, _ := w.(http.Flusher)
	const chunk = 256
	body := rec.body.Bytes()
	for len(body) > 0 && r.Context().Err() == nil {
		n := chunk
		if n > len(body) {
			n = len(body)
		}
		if _, err := w.Write(body[:n]); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		body = body[n:]
		if len(body) > 0 {
			p.sleep(r, 200*time.Microsecond)
		}
	}
}

// bufferedResponse captures an inner handler's response for trickling.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}

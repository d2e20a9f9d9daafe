package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"qirana"
	"qirana/internal/durable"
	"qirana/internal/obs"
)

// fakeShard is an httptest-backed shard worker serving a deterministic
// synthetic sweep: element x of query j disagrees iff (x+j)%3 == 0 and
// hashes to x*2654435761+j. Slices therefore merge into exactly the
// vectors sweepWant computes, with no broker underneath — the fault
// tests exercise the fan-out's retry/hedge/breaker machinery in
// isolation. behave intercepts sweep requests (by 1-based hit number)
// to inject faults; returning true means it wrote the response.
type fakeShard struct {
	info   Info
	sweeps atomic.Int64
	infos  atomic.Int64
	behave func(hit int64, w http.ResponseWriter, r *http.Request) bool
	srv    *httptest.Server
}

func fakeDisagree(x, j int) bool        { return (x+j)%3 == 0 }
func fakeHash(x, j int) uint64          { return uint64(x)*2654435761 + uint64(j) }
func testInfo(size int) Info            { return Info{SupportGen: 1, SupportSum: 42, Size: size} }
func testSpec() qirana.SweepSpec        { return qirana.SweepSpec{SupportGen: 1} }
func noHedge(p FaultPolicy) FaultPolicy { p.DisableHedging = true; return p }

func newFakeShard(t *testing.T, size int) *fakeShard {
	t.Helper()
	f := &fakeShard{info: testInfo(size)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shard/info", func(w http.ResponseWriter, r *http.Request) {
		f.infos.Add(1)
		json.NewEncoder(w).Encode(f.info)
	})
	mux.HandleFunc("POST /v1/shard/sweep", func(w http.ResponseWriter, r *http.Request) {
		hit := f.sweeps.Add(1)
		if f.behave != nil && f.behave(hit, w, r) {
			return
		}
		var req qirana.SweepSliceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, `{"error":"bad body"}`, http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(fakeReply(req))
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// fakeReply is the well-formed answer to a sweep request.
func fakeReply(req qirana.SweepSliceRequest) qirana.SweepSliceResponse {
	resp := qirana.SweepSliceResponse{SupportGen: req.SupportGen, Lo: req.Lo, Hi: req.Hi}
	nOut := len(req.SQLs)
	if req.Bundle {
		nOut = 1
	}
	resp.Stats = make([]qirana.Stats, nOut)
	for j := 0; j < nOut; j++ {
		resp.Stats[j] = qirana.Stats{Naive: req.Hi - req.Lo}
		if req.Hashes {
			hs := make([]uint64, req.Hi-req.Lo)
			for x := req.Lo; x < req.Hi; x++ {
				hs[x-req.Lo] = fakeHash(x, j)
			}
			resp.Hashes = append(resp.Hashes, hs)
		} else {
			bits := make([]bool, req.Hi-req.Lo)
			for x := req.Lo; x < req.Hi; x++ {
				bits[x-req.Lo] = fakeDisagree(x, j)
			}
			resp.Bits = append(resp.Bits, durable.PackBits(bits))
		}
	}
	return resp
}

// newFakeCluster connects a Fanout over n fake shards with the given
// policy and an observable registry.
func newFakeCluster(t *testing.T, n, size int, p FaultPolicy) ([]*fakeShard, *Fanout, *obs.Registry) {
	t.Helper()
	shards := make([]*fakeShard, n)
	urls := make([]string, n)
	for i := range shards {
		shards[i] = newFakeShard(t, size)
		urls[i] = shards[i].srv.URL
	}
	f, err := Connect(context.Background(), urls, nil)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	f.SetPolicy(p)
	reg := obs.New()
	f.AttachObs(reg)
	return shards, f, reg
}

// hangUntilGone blocks a fake-shard handler until the client abandons
// the request. The body must be drained first: net/http only watches
// the connection for a client disconnect (and cancels r.Context())
// once the request body has been consumed.
func hangUntilGone(r *http.Request) {
	io.Copy(io.Discard, r.Body)
	<-r.Context().Done()
}

func wantBits(size, nOut int) [][]bool {
	out := make([][]bool, nOut)
	for j := range out {
		out[j] = make([]bool, size)
		for x := range out[j] {
			out[j][x] = fakeDisagree(x, j)
		}
	}
	return out
}

func checkBits(t *testing.T, got, want [][]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d vectors, want %d", len(got), len(want))
	}
	for j := range want {
		for x := range want[j] {
			if got[j][x] != want[j][x] {
				t.Fatalf("vector %d element %d: got %v, want %v", j, x, got[j][x], want[j][x])
			}
		}
	}
}

func TestRetryRecoversTransientFault(t *testing.T) {
	p := noHedge(DefaultFaultPolicy())
	p.MaxAttempts = 3
	p.RetryBase, p.RetryMax = time.Millisecond, 4*time.Millisecond
	shards, f, reg := newFakeCluster(t, 2, 64, p)
	// Shard 0's first sweep answers 500; the retry must recover it.
	shards[0].behave = func(hit int64, w http.ResponseWriter, r *http.Request) bool {
		if hit == 1 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return true
		}
		return false
	}
	got, stats, err := f.SweepBits(context.Background(), []string{"q0", "q1"}, testSpec())
	if err != nil {
		t.Fatalf("SweepBits: %v", err)
	}
	checkBits(t, got, wantBits(64, 2))
	if n := shards[0].sweeps.Load(); n != 2 {
		t.Fatalf("shard 0 swept %d times, want 2 (original + retry)", n)
	}
	if v := reg.Counter("router_retries").Value(); v != 1 {
		t.Fatalf("router_retries = %d, want 1", v)
	}
	if stats[0].Naive != 64 || stats[1].Naive != 64 {
		t.Fatalf("merged stats lost slice shares: %+v", stats)
	}
}

func TestNoRetryOnInputErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		check  func(error) bool
	}{
		{"bad request", http.StatusBadRequest, func(err error) bool {
			return !errors.Is(err, qirana.ErrShardUnavailable) && !errors.Is(err, qirana.ErrSupportMismatch)
		}},
		{"support mismatch", http.StatusConflict, func(err error) bool {
			return errors.Is(err, qirana.ErrSupportMismatch)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := noHedge(DefaultFaultPolicy())
			p.MaxAttempts = 4
			p.RetryBase = time.Millisecond
			shards, f, reg := newFakeCluster(t, 2, 32, p)
			shards[0].behave = func(int64, http.ResponseWriter, *http.Request) bool { return false }
			shards[1].behave = func(_ int64, w http.ResponseWriter, r *http.Request) bool {
				http.Error(w, fmt.Sprintf(`{"error":{"code":"x","message":"input-class %d"}}`, tc.status), tc.status)
				return true
			}
			_, _, err := f.SweepBits(context.Background(), []string{"q"}, testSpec())
			if err == nil || !tc.check(err) {
				t.Fatalf("wrong error class: %v", err)
			}
			// Input-class answers burn neither the retry budget nor the
			// breaker: one attempt, zero faults recorded.
			if n := shards[1].sweeps.Load(); n != 1 {
				t.Fatalf("shard 1 swept %d times, want 1 (input errors must not retry)", n)
			}
			if v := reg.Counter("router_retries").Value(); v != 0 {
				t.Fatalf("router_retries = %d, want 0", v)
			}
			if st := f.breakers[1].current(); st != breakerClosed {
				t.Fatalf("breaker moved to %v on an input-class answer", st)
			}
		})
	}
}

func TestParentCancelIsNotAShardFault(t *testing.T) {
	p := noHedge(DefaultFaultPolicy())
	p.MaxAttempts = 5
	p.RetryBase = time.Millisecond
	shards, f, reg := newFakeCluster(t, 2, 32, p)
	for _, s := range shards {
		s.behave = func(_ int64, w http.ResponseWriter, r *http.Request) bool {
			hangUntilGone(r)
			return true
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := f.SweepBits(ctx, []string{"q"}, testSpec())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want the caller's DeadlineExceeded verbatim, got %v", err)
	}
	if errors.Is(err, qirana.ErrShardUnavailable) {
		t.Fatalf("caller cancellation must not be dressed as a shard fault: %v", err)
	}
	for i, s := range shards {
		if n := s.sweeps.Load(); n != 1 {
			t.Fatalf("shard %d swept %d times, want 1 (no retries on caller cancel)", i, n)
		}
		if st := f.breakers[i].current(); st != breakerClosed {
			t.Fatalf("shard %d breaker moved to %v on caller cancel", i, st)
		}
	}
	if v := reg.Counter("router_retries").Value(); v != 0 {
		t.Fatalf("router_retries = %d, want 0", v)
	}
}

func TestBreakerOpensThenRecovers(t *testing.T) {
	p := noHedge(DefaultFaultPolicy())
	p.MaxAttempts = 1 // one attempt per sweep: each sweep is one breaker sample
	p.BreakerThreshold = 2
	p.BreakerCooldown = 50 * time.Millisecond
	shards, f, reg := newFakeCluster(t, 1, 16, p)
	var broken atomic.Bool
	broken.Store(true)
	shards[0].behave = func(_ int64, w http.ResponseWriter, r *http.Request) bool {
		if broken.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
			return true
		}
		return false
	}
	ctx := context.Background()
	sqls := []string{"q"}
	for i := 0; i < 2; i++ {
		if _, _, err := f.SweepBits(ctx, sqls, testSpec()); !errors.Is(err, qirana.ErrShardUnavailable) {
			t.Fatalf("sweep %d: want ErrShardUnavailable, got %v", i, err)
		}
	}
	if st := f.breakers[0].current(); st != breakerOpen {
		t.Fatalf("after %d faults breaker is %v, want open", p.BreakerThreshold, st)
	}
	if v := reg.Counter("breaker_open").Value(); v != 1 {
		t.Fatalf("breaker_open = %d, want 1", v)
	}

	// While open: fail fast with a Retry-After hint, without touching the
	// shard.
	before := shards[0].sweeps.Load()
	_, _, err := f.SweepBits(ctx, sqls, testSpec())
	if !errors.Is(err, qirana.ErrShardUnavailable) {
		t.Fatalf("open breaker: want ErrShardUnavailable, got %v", err)
	}
	if hint, ok := qirana.RetryAfterHint(err); !ok || hint <= 0 {
		t.Fatalf("open breaker error carries no Retry-After hint: %v (hint %v ok %v)", err, hint, ok)
	}
	if n := shards[0].sweeps.Load(); n != before {
		t.Fatalf("open breaker still reached the shard (%d → %d sweeps)", before, n)
	}
	if v := reg.Counter("breaker_rejects").Value(); v == 0 {
		t.Fatal("breaker_rejects did not move")
	}

	// Heal the shard, wait out the cooldown: the next sweep is admitted
	// as the half-open trial (health probe + sweep) and closes the
	// breaker.
	broken.Store(false)
	time.Sleep(p.BreakerCooldown + 10*time.Millisecond)
	probesBefore := shards[0].infos.Load()
	got, _, err := f.SweepBits(ctx, sqls, testSpec())
	if err != nil {
		t.Fatalf("post-heal sweep: %v", err)
	}
	checkBits(t, got, wantBits(16, 1))
	if st := f.breakers[0].current(); st != breakerClosed {
		t.Fatalf("post-heal breaker is %v, want closed", st)
	}
	if shards[0].infos.Load() == probesBefore {
		t.Fatal("half-open recovery skipped the /shard/info health probe")
	}
	if v := reg.Counter("breaker_close").Value(); v != 1 {
		t.Fatalf("breaker_close = %d, want 1", v)
	}
	if v := reg.Counter("breaker_probes").Value(); v == 0 {
		t.Fatal("breaker_probes did not move")
	}
}

func TestHedgeDuplicateWins(t *testing.T) {
	p := DefaultFaultPolicy()
	p.MaxAttempts = 1
	p.HedgeAfter = 5 * time.Millisecond
	shards, f, reg := newFakeCluster(t, 2, 32, p)
	// Shard 0's first copy stalls until the fan-out is torn down; the
	// hedged duplicate answers normally.
	shards[0].behave = func(hit int64, w http.ResponseWriter, r *http.Request) bool {
		if hit == 1 {
			hangUntilGone(r)
			return true
		}
		return false
	}
	start := time.Now()
	got, _, err := f.SweepBits(context.Background(), []string{"q"}, testSpec())
	if err != nil {
		t.Fatalf("SweepBits: %v", err)
	}
	checkBits(t, got, wantBits(32, 1))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedge did not rescue the stalled copy (took %v)", elapsed)
	}
	if n := shards[0].sweeps.Load(); n < 2 {
		t.Fatalf("shard 0 saw %d requests, want ≥2 (original + hedge)", n)
	}
	if v := reg.Counter("router_hedges").Value(); v == 0 {
		t.Fatal("router_hedges did not move")
	}
	if v := reg.Counter("router_hedge_wins").Value(); v == 0 {
		t.Fatal("router_hedge_wins did not move")
	}
}

func TestHedgeDisabledNeverDuplicates(t *testing.T) {
	p := noHedge(DefaultFaultPolicy())
	p.HedgeAfter = time.Millisecond // would hedge aggressively if enabled
	shards, f, reg := newFakeCluster(t, 2, 32, p)
	shards[0].behave = func(_ int64, w http.ResponseWriter, r *http.Request) bool {
		time.Sleep(20 * time.Millisecond) // slow, but not faulty
		return false
	}
	if _, _, err := f.SweepBits(context.Background(), []string{"q"}, testSpec()); err != nil {
		t.Fatalf("SweepBits: %v", err)
	}
	if n := shards[0].sweeps.Load(); n != 1 {
		t.Fatalf("shard 0 saw %d requests with hedging disabled, want 1", n)
	}
	if v := reg.Counter("router_hedges").Value(); v != 0 {
		t.Fatalf("router_hedges = %d with hedging disabled", v)
	}
}

func TestDegradedSweepLiveMask(t *testing.T) {
	p := noHedge(DefaultFaultPolicy())
	p.MaxAttempts = 2
	p.RetryBase = time.Millisecond
	p.BreakerThreshold = 100 // keep the breaker out of this test
	shards, f, reg := newFakeCluster(t, 3, 90, p)
	shards[1].behave = func(_ int64, w http.ResponseWriter, r *http.Request) bool {
		panic(http.ErrAbortHandler) // hard down: connection aborted
	}
	bits, stats, live, err := f.SweepBitsDegraded(context.Background(), []string{"q0", "q1"}, testSpec())
	if err != nil {
		t.Fatalf("SweepBitsDegraded: %v", err)
	}
	dead := f.ranges[1]
	want := wantBits(90, 2)
	for x := 0; x < 90; x++ {
		inDead := x >= dead.Lo && x < dead.Hi
		if live[x] == inDead {
			t.Fatalf("element %d: live=%v but dead slice is [%d,%d)", x, live[x], dead.Lo, dead.Hi)
		}
		for j := range want {
			switch {
			case inDead && bits[j][x]:
				t.Fatalf("dead element %d not zero-filled", x)
			case !inDead && bits[j][x] != want[j][x]:
				t.Fatalf("live element %d vector %d: got %v want %v", x, j, bits[j][x], want[j][x])
			}
		}
	}
	// Stats must cover exactly the live slices.
	wantNaive := 90 - dead.Width()
	if stats[0].Naive != wantNaive {
		t.Fatalf("degraded stats Naive = %d, want %d (live slices only)", stats[0].Naive, wantNaive)
	}
	if v := reg.Counter("router_degraded_sweeps").Value(); v != 1 {
		t.Fatalf("router_degraded_sweeps = %d, want 1", v)
	}

	// The hash analogue.
	hashes, _, hlive, err := f.SweepHashesDegraded(context.Background(), []string{"q0"}, testSpec())
	if err != nil {
		t.Fatalf("SweepHashesDegraded: %v", err)
	}
	for x := 0; x < 90; x++ {
		inDead := x >= dead.Lo && x < dead.Hi
		if hlive[x] == inDead {
			t.Fatalf("hash live mask wrong at %d", x)
		}
		if !inDead && hashes[0][x] != fakeHash(x, 0) {
			t.Fatalf("hash element %d: got %d want %d", x, hashes[0][x], fakeHash(x, 0))
		}
	}
}

func TestDegradedSweepAllShardsDown(t *testing.T) {
	p := noHedge(DefaultFaultPolicy())
	p.MaxAttempts = 1
	shards, f, _ := newFakeCluster(t, 2, 32, p)
	for _, s := range shards {
		s.behave = func(_ int64, w http.ResponseWriter, r *http.Request) bool {
			panic(http.ErrAbortHandler)
		}
	}
	_, _, _, err := f.SweepBitsDegraded(context.Background(), []string{"q"}, testSpec())
	if !errors.Is(err, qirana.ErrShardUnavailable) {
		t.Fatalf("all-down degraded sweep: want ErrShardUnavailable, got %v", err)
	}
}

func TestDegradedSweepRejectsSampledSpec(t *testing.T) {
	_, f, _ := newFakeCluster(t, 2, 32, noHedge(DefaultFaultPolicy()))
	spec := testSpec()
	spec.SampleFrac, spec.SampleSeed = 0.5, 7
	if _, _, _, err := f.SweepBitsDegraded(context.Background(), []string{"q"}, spec); err == nil {
		t.Fatal("degraded sweep accepted a sampled spec")
	}
}

func TestDegradedSweepRejectsInputError(t *testing.T) {
	p := noHedge(DefaultFaultPolicy())
	shards, f, _ := newFakeCluster(t, 2, 32, p)
	shards[0].behave = func(_ int64, w http.ResponseWriter, r *http.Request) bool {
		http.Error(w, `{"error":"no such table"}`, http.StatusBadRequest)
		return true
	}
	_, _, _, err := f.SweepBitsDegraded(context.Background(), []string{"q"}, testSpec())
	if err == nil || errors.Is(err, qirana.ErrShardUnavailable) {
		t.Fatalf("a 400 must abort the degraded sweep as an input error, got %v", err)
	}
}

// tamper makes a fake shard answer every sweep with a well-formed reply
// that mut then corrupts.
func tamper(mut func(*qirana.SweepSliceResponse)) func(int64, http.ResponseWriter, *http.Request) bool {
	return func(_ int64, w http.ResponseWriter, r *http.Request) bool {
		var req qirana.SweepSliceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, `{"error":"bad body"}`, http.StatusBadRequest)
			return true
		}
		resp := fakeReply(req)
		mut(&resp)
		json.NewEncoder(w).Encode(resp)
		return true
	}
}

// malformedReplies are shard answers of the wrong shape: the router must
// never index past them or zero-fill them into a merged vector.
var malformedReplies = []struct {
	name   string
	hashes bool
	mut    func(*qirana.SweepSliceResponse)
}{
	{"no stats", false, func(r *qirana.SweepSliceResponse) { r.Stats = nil }},
	{"no stats/hashes", true, func(r *qirana.SweepSliceResponse) { r.Stats = nil }},
	{"extra stats", false, func(r *qirana.SweepSliceResponse) { r.Stats = append(r.Stats, qirana.Stats{}) }},
	// A 20-element slice sent as 1 packed byte: zero-filling the other
	// 12 elements would read disagreements as agreements.
	{"short bits", false, func(r *qirana.SweepSliceResponse) { r.Bits[0] = r.Bits[0][:1] }},
	{"long bits", false, func(r *qirana.SweepSliceResponse) { r.Bits[0] = append(r.Bits[0], 0xff) }},
	{"missing vector", false, func(r *qirana.SweepSliceResponse) { r.Bits = r.Bits[:1] }},
	{"short hashes", true, func(r *qirana.SweepSliceResponse) { r.Hashes[1] = r.Hashes[1][:19] }},
}

func sweepEither(f *Fanout, hashes bool, degraded bool) ([]qirana.Stats, []bool, error) {
	sqls, ctx := []string{"q0", "q1"}, context.Background()
	switch {
	case degraded && hashes:
		_, stats, live, err := f.SweepHashesDegraded(ctx, sqls, testSpec())
		return stats, live, err
	case degraded:
		_, stats, live, err := f.SweepBitsDegraded(ctx, sqls, testSpec())
		return stats, live, err
	case hashes:
		_, stats, err := f.SweepHashes(ctx, sqls, testSpec())
		return stats, nil, err
	default:
		_, stats, err := f.SweepBits(ctx, sqls, testSpec())
		return stats, nil, err
	}
}

func TestMalformedReplyFailsExactSweep(t *testing.T) {
	for _, tc := range malformedReplies {
		t.Run(tc.name, func(t *testing.T) {
			shards, f, _ := newFakeCluster(t, 2, 40, noHedge(DefaultFaultPolicy()))
			shards[1].behave = tamper(tc.mut)
			_, _, err := sweepEither(f, tc.hashes, false)
			if !errors.Is(err, qirana.ErrShardUnavailable) {
				t.Fatalf("malformed reply: want ErrShardUnavailable, got %v", err)
			}
		})
	}
}

func TestMalformedReplyDegradedMarksShardDead(t *testing.T) {
	for _, tc := range malformedReplies {
		t.Run(tc.name, func(t *testing.T) {
			shards, f, reg := newFakeCluster(t, 2, 40, noHedge(DefaultFaultPolicy()))
			shards[1].behave = tamper(tc.mut)
			stats, live, err := sweepEither(f, tc.hashes, true)
			if err != nil {
				t.Fatalf("degraded sweep: %v", err)
			}
			dead := f.ranges[1]
			for x := range live {
				if inDead := x >= dead.Lo && x < dead.Hi; live[x] == inDead {
					t.Fatalf("element %d: live=%v but the malformed slice is [%d,%d)", x, live[x], dead.Lo, dead.Hi)
				}
			}
			if want := 40 - dead.Width(); stats[0].Naive != want || stats[1].Naive != want {
				t.Fatalf("stats %+v, want Naive %d (healthy slice only)", stats, want)
			}
			if v := reg.Counter("router_shard_errors").Value(); v != 1 {
				t.Fatalf("router_shard_errors = %d, want 1", v)
			}
			// Every shard malformed: nothing usable survives.
			shards[0].behave = tamper(tc.mut)
			if _, _, err := sweepEither(f, tc.hashes, true); !errors.Is(err, qirana.ErrShardUnavailable) {
				t.Fatalf("all replies malformed: want ErrShardUnavailable, got %v", err)
			}
		})
	}
}

package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	for _, w := range allWorkloads {
		a, b := take(w.timed(7), 400), take(w.timed(7), 400)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different timed sequences", w.name)
		}
		if reflect.DeepEqual(a, take(w.timed(8), 400)) {
			t.Errorf("%s: seeds 7 and 8 gave the same timed sequence", w.name)
		}
		if !reflect.DeepEqual(w.warmup(7), w.warmup(7)) {
			t.Errorf("%s: seed 7 gave two different warm-ups", w.name)
		}
		for i, r := range a {
			if r.seq != i {
				t.Fatalf("%s: request %d carries sequence index %d", w.name, i, r.seq)
			}
		}
	}
}

// Any prefix of a sequence must hold the same mix: the count of each
// class in the first k requests may differ from its share by at most
// one round of the round-robin.
func TestGeneratorsArePrefixBalanced(t *testing.T) {
	for _, w := range allWorkloads {
		reqs := take(w.timed(3), 840)
		total := map[string]int{}
		for _, r := range reqs {
			total[r.class]++
		}
		seen := map[string]int{}
		for k, r := range reqs {
			seen[r.class]++
			for class, n := range total {
				want := float64(n) * float64(k+1) / float64(len(reqs))
				if d := float64(seen[class]) - want; d > 1.01 || d < -1.01 {
					t.Fatalf("%s: after %d requests class %q has %d, its share is %.1f", w.name, k+1, class, seen[class], want)
				}
			}
		}
	}
}

func TestColdSequencesNeverRepeat(t *testing.T) {
	for _, name := range []string{"cold_adhoc", "sharded_cold", "olap_ssb", "entropy_world"} {
		w := workloadByName(name)
		seen := map[string]bool{}
		for _, r := range w.warmup(5) {
			seen[r.sqls[0]] = true
		}
		for _, r := range take(w.timed(5), 1500) {
			if seen[r.sqls[0]] {
				t.Fatalf("%s: %q was already issued, so it would hit the quote cache", name, r.sqls[0])
			}
			seen[r.sqls[0]] = true
		}
	}
	a, b := take(workloadByName("cold_adhoc").timed(5), 200), take(workloadByName("sharded_cold").timed(5), 200)
	if !reflect.DeepEqual(a, b) {
		t.Error("sharded_cold must replay the identical sequence as cold_adhoc")
	}
}

const fakeQuote = `{"prices":[1.5],"per_query":[{"price":1.5,"cached":false,"stats":{}}]}`

// The open loop must time every request from the moment it was due, not
// from the moment it could be sent: one stalled request makes the
// requests queued behind it slow although the server answers each of
// them at once, and the generator must own up to having run late.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 10 {
			time.Sleep(300 * time.Millisecond)
		}
		w.Write([]byte(fakeQuote))
	}))
	defer srv.Close()
	cl := newClient(srv.URL, 1)
	defer cl.close()
	i := 0
	next := func() request {
		i++
		return request{seq: i - 1, kind: opQuote, sqls: []string{"select 1"}}
	}
	win := runOpen(cl, next, 1, time.Second, 100)
	if len(win.samples) < 90 {
		t.Fatalf("sent %d requests in 1s at 100/s", len(win.samples))
	}
	queued := 0
	var maxLate time.Duration
	for _, s := range win.samples {
		if s.err != "" {
			t.Fatalf("request %d failed: %s", s.req.seq, s.err)
		}
		service := s.end - s.sent()
		if s.latency() > 100*time.Millisecond && service < 50*time.Millisecond {
			queued++
		}
		if s.late > maxLate {
			maxLate = s.late
		}
		wantDue := time.Duration(s.req.seq) * 10 * time.Millisecond
		if s.start != wantDue {
			t.Fatalf("request %d timed from %v, due at %v", s.req.seq, s.start, wantDue)
		}
	}
	if queued < 10 {
		t.Errorf("only %d requests were charged for waiting behind the stall; the loop timed from send, not from due", queued)
	}
	if maxLate < 200*time.Millisecond {
		t.Errorf("largest reported lateness is %v after a 300ms stall", maxLate)
	}
	m := newMetricSet()
	measureWindow(m, workloadByName("market_durable"), &win, len(win.samples), cl)
	if m.vals["client.late_p95_ms"] < 100 {
		t.Errorf("client.late_p95_ms = %v after the stall delayed a quarter of the window", m.vals["client.late_p95_ms"])
	}
}

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.95); got != 380 {
		t.Errorf("p95 of 1..400 = %v, want 380", got)
	}
	if got := percentile(xs, 0.5); got != 200 {
		t.Errorf("p50 of 1..400 = %v, want 200", got)
	}
	if got := beyond(400, 0.95); got != 20 {
		t.Errorf("%d samples beyond p95 of 400, want 20", got)
	}
	if tooFew(400, 0.95) != "" || tooFew(199, 0.95) == "" || tooFew(400, 0.99) == "" {
		t.Error("a percentile needs at least 10 samples beyond it to be quoted without a warning")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(xs[:10])
	if q1 != 2.75 || q3 != 8.25 || median(xs[:10]) != 5.5 {
		t.Errorf("quartiles of 1..10 = %v, %v, median %v", q1, q3, median(xs[:10]))
	}
}

// One stall charged to a tenth of an open loop's requests moves the
// whole window's 95th percentile; the median over slices holds unless
// most slices have one, and reports the smallest slice's size.
func TestSlicePercentile(t *testing.T) {
	win := window{dur: 10 * time.Second}
	for i := 0; i < 1000; i++ {
		end := time.Duration(i) * 10 * time.Millisecond
		lat := time.Millisecond
		if i >= 250 && i < 350 {
			lat = 50 * time.Millisecond
		}
		win.samples = append(win.samples, sample{start: end - lat, end: end})
	}
	win.samples = append(win.samples, sample{start: 9 * time.Second, end: 11 * time.Second, err: "failed"})
	if v, n := slicePercentile(&win, 1, 0.95); v != 50 || n != 1000 {
		t.Errorf("whole window: p95 %v over %d samples, want 50 over 1000", v, n)
	}
	if v, n := slicePercentile(&win, 5, 0.95); v != 1 || n != 200 {
		t.Errorf("five slices: p95 %v with smallest slice %d, want 1 and 200", v, n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		b     []float64
		lower bool
		want  string
	}{
		{[]float64{120, 121, 119, 120, 122}, true, "REGRESSED"},
		{[]float64{120, 121, 119, 120, 122}, false, "improved"},
		{[]float64{103, 104, 102, 103, 105}, true, "unchanged"},
		{[]float64{80, 125, 95, 104, 60}, true, "unresolved"},
		{[]float64{80, 81, 79, 80, 82}, true, "improved"},
	}
	for _, c := range cases {
		if v := judge(steady, c.b, c.lower, 0.10); v.word != c.want {
			t.Errorf("judge(%v, lower=%v) = %q (worse %.3f, spread %.3f), want %q", c.b, c.lower, v.word, v.worse, v.spread, c.want)
		}
	}
	// failed_frac: one failing run in five is a regression although both
	// medians are 0.
	clean := []float64{0, 0, 0, 0, 0}
	if v := judge(clean, []float64{0, 0, 0.01, 0, 0}, true, anyIncrease); v.word != "REGRESSED" {
		t.Errorf("one failing run judged %q, want REGRESSED", v.word)
	}
	if v := judge(clean, clean, true, anyIncrease); v.word != "unchanged" {
		t.Errorf("no failing run judged %q, want unchanged", v.word)
	}
}

func TestSpansNestAcrossTheHandlerSeam(t *testing.T) {
	tr := newTracer()
	var inner int
	h := spanHandler(tr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer tr.child(r.Context(), "shard.SweepBits")()
		inner++
	}))
	root := tr.begin("client.roundtrip", -1, 42, 0)
	req := httptest.NewRequest(http.MethodPost, "/v1/quote", nil)
	req.Header.Set(spanHeader, strconv.Itoa(root))
	h.ServeHTTP(httptest.NewRecorder(), req)
	tr.end(root)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/quote", nil)) // warm-up traffic: no span
	tr.child(context.Background(), "ignored")()

	if inner != 2 || len(tr.spans) != 3 {
		t.Fatalf("handler ran %d times and recorded %d spans, want 2 and 3", inner, len(tr.spans))
	}
	api, sweep := tr.spans[1], tr.spans[2]
	if api.Name != "httpapi.ServeHTTP" || api.Parent != root || api.Req != 42 {
		t.Errorf("handler span %+v is not nested under the client span", api)
	}
	if sweep.Parent != 1 || sweep.Req != 42 || sweep.Start < api.Start || sweep.End > api.End {
		t.Errorf("sweep span %+v is not nested inside the handler span %+v", sweep, api)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is the contract other changes are judged by; it must
// say exactly what the program measures.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	traced := lineDefs(true)
	if len(f.Workloads) != len(allWorkloads) || len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(traced) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(allWorkloads), len(endToEnd), len(traced))
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q (why must match, one line, at most 200 characters)", i, w.Name, allWorkloads[i].name)
		}
	}
	setup := false
	for i, m := range f.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the program %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for i, m := range f.PerLayer {
		name(m.Name)
		d := traced[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the program %+v", i, m, d)
		}
		if m.Name != failedFrac.name && strings.IndexByte(m.Name, '.') < 1 {
			t.Errorf("per-layer metric %q does not name its layer", m.Name)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d or paths %v out of contract", f.RunSeconds, f.Paths)
	}
	// 4 + 22 runs per workload, each a window plus set-up and checks,
	// must fit the driver's 3420 s with room for two builds.
	if runs := 4 + 22*len(f.Workloads); float64(runs)*(float64(f.RunSeconds)+10) > 3420-240 {
		t.Errorf("%d runs of %ds windows leave no room for set-up within 3420s", runs, f.RunSeconds)
	}
}

// The smoke builds the daemons and runs every workload for one second
// (and the cheapest one traced): every declared metric must come out
// with its unit, every end-to-end metric must be nonzero, and the
// correctness gate must be green. Skipped with -short.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the daemons")
	}
	root, err := findRoot("")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{root: root, binDir: filepath.Join(root, ".bench_build", "bin"), seed: 1, seconds: 1, setups: 1}
	if err := buildDaemons(cfg); err != nil {
		t.Fatal(err)
	}
	check := func(o *outcome, defs []metricDef, nonzero bool) {
		t.Helper()
		if len(o.failures) > 0 {
			t.Errorf("%s: %d failures, first: %s", o.w.name, len(o.failures), o.failures[0])
		}
		out := o.m.export(defs)
		for _, d := range defs {
			m, ok := out[d.name]
			if !ok || m.Unit != d.unit || !nameRE.MatchString(d.name) {
				t.Errorf("%s: metric %q missing or without its unit %q", o.w.name, d.name, d.unit)
			}
			if nonzero && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", o.w.name, d.name, m.Value)
			}
		}
	}
	for _, w := range allWorkloads {
		small := *w
		small.twinN = 6
		o, err := runWorkload(cfg, &small)
		if err != nil {
			t.Fatal(err)
		}
		check(o, endToEnd, true)
		check(o, lineDefs(true), false)
	}
	traced := *workloadByName("entropy_world")
	traced.traceN = 8
	cfg.trace = true
	o, err := runWorkload(cfg, &traced)
	if err != nil {
		t.Fatal(err)
	}
	check(o, lineDefs(true), false)
	for _, name := range []string{"net.self_us_per_op", "broker.price_us_per_op", "pricing.sweep_us_per_op", "trace.unaccounted_frac", "client.approx_overcharge_p50"} {
		if _, ok := o.m.vals[name]; !ok {
			t.Errorf("traced run did not measure %s", name)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "benchmark", "out", "trace-entropy_world.json")); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
}

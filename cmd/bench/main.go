// Command bench times the pricing-engine benchmark groups the paper's
// Figures 4d, 5a and 5b measure, plus the delta-tier A/B group, and writes
// the results as machine-readable JSON (default BENCH_pricing.json), so
// successive PRs can track perf deltas without parsing `go test -bench`
// output. It measures the bare engine in process; quotes through the
// broker, its caches, templates, shards and the approximate path are
// measured over a socket by benchmark/ (see BENCHMARK.json).
//
// Every pricing benchmark runs at each requested worker count (default
// "1,numcpu" — the serial baseline and the parallel engine). Worker counts
// clamp to GOMAXPROCS inside the engine, so on a single-core host the two
// settings coincide; the JSON records GOMAXPROCS so readers can tell.
//
// Usage:
//
//	bench                          # CI scale, BENCH_pricing.json
//	bench -groups fig5a -workers 1,2,4 -out /tmp/bench.json
//	bench -support 200 -min-time 200ms   # quicker, noisier
//	bench -compare BENCH_old.json  # per-group speedup table; exit 2 on
//	                               # a >20% regression vs the old report
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"qirana/internal/datagen"
	"qirana/internal/pricing"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/workload"
)

type result struct {
	Group   string  `json:"group"`
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	Iters   int     `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
}

type report struct {
	GeneratedUnix int64    `json:"generated_unix"`
	GoVersion     string   `json:"go_version"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	NumCPU        int      `json:"num_cpu"`
	SupportSize   int      `json:"support_size"`
	SSBScale      float64  `json:"ssb_scale"`
	TPCHScale     float64  `json:"tpch_scale"`
	MinTime       string   `json:"min_time"`
	Results       []result `json:"results"`
}

type runner struct {
	minTime time.Duration
	maxIter int
	reps    int
	out     []result
}

// measure times op and records it under group/name/workers. Each of the
// reps repetitions runs op for enough iterations to fill minTime and
// averages; the recorded figure is the minimum average across
// repetitions. Scheduling noise on a shared machine only ever adds
// time, so the minimum is the robust estimator of intrinsic cost — it
// keeps the -compare regression gate from tripping on host steal.
func (r *runner) measure(group, name string, workers int, op func() error) {
	reps := r.reps
	if reps < 1 {
		reps = 1
	}
	best := math.Inf(1)
	bestIters := 0
	for rep := 0; rep < reps; rep++ {
		var (
			iters int
			total time.Duration
		)
		// Always at least one iteration, whatever the flags say.
		for iters == 0 || (total < r.minTime && iters < r.maxIter) {
			start := time.Now()
			if err := op(); err != nil {
				fmt.Fprintf(os.Stderr, "bench %s/%s: %v\n", group, name, err)
				os.Exit(1)
			}
			total += time.Since(start)
			iters++
		}
		if ns := float64(total.Nanoseconds()) / float64(iters); ns < best {
			best, bestIters = ns, iters
		}
	}
	r.out = append(r.out, result{Group: group, Name: name, Workers: workers, Iters: bestIters, NsPerOp: best})
	fmt.Printf("%-8s %-28s workers=%-2d %12.0f ns/op  (%d iters, best of %d)\n", group, name, workers, best, bestIters, reps)
}

func main() {
	var (
		out      = flag.String("out", "BENCH_pricing.json", "output JSON path")
		groups   = flag.String("groups", "fig4d,fig5a,fig5b,delta-tiers", "comma-separated benchmark groups")
		workersF = flag.String("workers", "1,numcpu", "comma-separated worker counts ('numcpu' allowed)")
		supportN = flag.Int("support", 500, "support set size for the Fig 5 fixtures")
		ssbSF    = flag.Float64("ssb-sf", 0.002, "SSB scale factor")
		tpchSF   = flag.Float64("tpch-sf", 0.002, "TPC-H scale factor")
		minTime  = flag.Duration("min-time", 500*time.Millisecond, "minimum measurement time per benchmark")
		maxIter  = flag.Int("max-iters", 20, "iteration cap per benchmark")
		reps     = flag.Int("reps", 3, "repetitions per benchmark; the best (minimum) average is reported")
		seed     = flag.Int64("seed", 1, "generator seed")
		compare  = flag.String("compare", "", "previous report JSON; print per-group speedups and exit nonzero on a >20% regression")
	)
	flag.Parse()

	workers, err := parseWorkers(*workersF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	known := []string{"fig4d", "fig5a", "fig5b", "delta-tiers"}
	want := map[string]bool{}
	for _, g := range strings.Split(*groups, ",") {
		g = strings.TrimSpace(g)
		ok := false
		for _, k := range known {
			if g == k {
				ok = true
				break
			}
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark group %q (valid: %s)\n", g, strings.Join(known, ", "))
			os.Exit(1)
		}
		want[g] = true
	}

	r := &runner{minTime: *minTime, maxIter: *maxIter, reps: *reps}
	ctx := context.Background()

	if want["fig4d"] {
		db := datagen.World(*seed)
		for _, size := range []int{10, 200, 1000} {
			set, err := support.GenerateNeighborhood(db, support.DefaultConfig(size, *seed))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			for _, wq := range []workload.Query{workload.SigmaU(80), workload.PiU(4), workload.JoinU(80), workload.GammaU(20)} {
				q := exec.MustCompile(wq.SQL, db.Schema)
				for _, w := range workers {
					e := pricing.NewEngine(db, set, 100)
					e.Opts.Workers = w
					r.measure("fig4d", fmt.Sprintf("%s/S=%d", wq.Name, size), w, func() error {
						_, err := e.PriceCtx(ctx, pricing.WeightedCoverage, q)
						return err
					})
				}
			}
		}
	}
	if want["fig5a"] {
		all := workload.SSB()
		scalability(ctx, r, "fig5a", datagen.SSB(*seed, *ssbSF), *supportN, *seed, workers,
			[]workload.Query{all[0], all[3], all[6], all[10]})
	}
	if want["fig5b"] {
		byName := map[string]workload.Query{}
		for _, wq := range workload.TPCH() {
			byName[wq.Name] = wq
		}
		scalability(ctx, r, "fig5b", datagen.TPCH(*seed, *tpchSF), *supportN, *seed, workers,
			[]workload.Query{byName["Q1"], byName["Q6"], byName["Q12"], byName["Q17"]})
	}
	if want["delta-tiers"] {
		deltaTiers(ctx, r, *seed, *supportN, workers)
	}

	rep := report{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		SupportSize:   *supportN,
		SSBScale:      *ssbSF,
		TPCHScale:     *tpchSF,
		MinTime:       minTime.String(),
		Results:       r.out,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d results)\n", *out, len(r.out))

	if *compare != "" {
		if !compareReports(*compare, rep) {
			os.Exit(2)
		}
	}
}

// regressionTolerance is the slowdown a benchmark may show against the
// baseline before the comparison fails: benchmarks in shared CI runners are
// noisy, so small movements are not actionable.
const regressionTolerance = 1.20

// compareReports prints a per-group speedup table of rep against the report
// stored at path (matching results by group, name and worker count) and
// reports whether the run is free of >20% regressions.
func compareReports(path string, rep report) bool {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return false
	}
	var old report
	if err := json.Unmarshal(buf, &old); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %s: %v\n", path, err)
		return false
	}
	base := make(map[string]result, len(old.Results))
	for _, res := range old.Results {
		base[fmt.Sprintf("%s|%s|%d", res.Group, res.Name, res.Workers)] = res
	}

	type groupAcc struct {
		n         int
		logSum    float64 // for the geometric-mean speedup
		worst     float64
		worstName string
	}
	groups := make(map[string]*groupAcc)
	var order []string
	var regressions []string
	matched := 0
	for _, res := range rep.Results {
		o, ok := base[fmt.Sprintf("%s|%s|%d", res.Group, res.Name, res.Workers)]
		if !ok || o.NsPerOp <= 0 || res.NsPerOp <= 0 {
			continue
		}
		matched++
		speedup := o.NsPerOp / res.NsPerOp
		g := groups[res.Group]
		if g == nil {
			g = &groupAcc{worst: math.Inf(1)}
			groups[res.Group] = g
			order = append(order, res.Group)
		}
		g.n++
		g.logSum += math.Log(speedup)
		if speedup < g.worst {
			g.worst = speedup
			g.worstName = fmt.Sprintf("%s w=%d", res.Name, res.Workers)
		}
		if res.NsPerOp > o.NsPerOp*regressionTolerance {
			regressions = append(regressions,
				fmt.Sprintf("%s/%s w=%d: %.0f -> %.0f ns/op (%.2fx slower)",
					res.Group, res.Name, res.Workers, o.NsPerOp, res.NsPerOp, res.NsPerOp/o.NsPerOp))
		}
	}
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "compare: no overlapping results with %s\n", path)
		return false
	}

	fmt.Printf("\ncomparison vs %s (%d matched results)\n", path, matched)
	fmt.Printf("%-8s %6s %10s %10s  %s\n", "group", "cases", "geomean", "worst", "worst case")
	for _, name := range order {
		g := groups[name]
		fmt.Printf("%-8s %6d %9.2fx %9.2fx  %s\n",
			name, g.n, math.Exp(g.logSum/float64(g.n)), g.worst, g.worstName)
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d regression(s) beyond %.0f%%:\n", len(regressions), (regressionTolerance-1)*100)
		for _, line := range regressions {
			fmt.Fprintln(os.Stderr, "  "+line)
		}
		return false
	}
	fmt.Printf("no regressions beyond %.0f%%\n", (regressionTolerance-1)*100)
	return true
}

// scalability is the Figure 5 shape: per query, bare execution plus
// no-batching and batching pricing at every worker count.
func scalability(ctx context.Context, r *runner, group string, db *storage.Database, supportN int, seed int64, workers []int, wqs []workload.Query) {
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(supportN, seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, wq := range wqs {
		q := exec.MustCompile(wq.SQL, db.Schema)
		r.measure(group, wq.Name+"/exec", 1, func() error {
			_, err := q.Run(db)
			return err
		})
		for _, w := range workers {
			e := pricing.NewEngine(db, set, 100)
			e.Opts.Batching = false
			e.Opts.Workers = w
			r.measure(group, wq.Name+"/no-batching", w, func() error {
				_, err := e.PriceCtx(ctx, pricing.WeightedCoverage, q)
				return err
			})
		}
		for _, w := range workers {
			e := pricing.NewEngine(db, set, 100)
			e.Opts.Workers = w
			r.measure(group, wq.Name+"/batching", w, func() error {
				_, err := e.PriceCtx(ctx, pricing.WeightedCoverage, q)
				return err
			})
		}
	}
}

// deltaTiers isolates the query shapes whose residual database checks the
// incremental-view tiers rescue from full re-execution: MIN/MAX aggregates
// (candidate views), DISTINCT with and without a join (multiplicity views),
// and a self-join (higher-order delta expansion). Each query prices with
// the tiered engine and with the legacy untiered engine — where DISTINCT
// and self-joins fall back to naive per-element re-execution and extremum
// removals re-run the full query — and the group prints the tiered-vs-
// untiered geometric-mean speedup at workers=1.
func deltaTiers(ctx context.Context, r *runner, seed int64, supportN int, workers []int) {
	db := datagen.World(seed)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(supportN, seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	queries := []struct{ name, sql string }{
		{"minmax-group", "SELECT Continent, max(Population), min(Population) FROM Country GROUP BY Continent"},
		{"minmax-global", "SELECT min(Population), max(Population) FROM Country"},
		{"distinct", "SELECT DISTINCT Continent FROM Country"},
		{"distinct-join", "SELECT DISTINCT C.Continent FROM Country C, CountryLanguage CL WHERE C.Code = CL.CountryCode AND CL.Percentage > 10"},
		{"self-join", "SELECT a.Name FROM Country a, Country b WHERE a.Continent = b.Continent AND b.Population > 100000000"},
	}
	for _, wq := range queries {
		q := exec.MustCompile(wq.sql, db.Schema)
		for _, w := range workers {
			tiered := pricing.NewEngine(db, set, 100)
			tiered.Opts.Workers = w
			r.measure("delta-tiers", wq.name+"/tiered", w, func() error {
				_, err := tiered.PriceCtx(ctx, pricing.WeightedCoverage, q)
				return err
			})
		}
		for _, w := range workers {
			untiered := pricing.NewEngine(db, set, 100)
			untiered.Opts.Workers = w
			untiered.Opts.DisableDeltaTiers = true
			r.measure("delta-tiers", wq.name+"/untiered", w, func() error {
				_, err := untiered.PriceCtx(ctx, pricing.WeightedCoverage, q)
				return err
			})
		}
	}
	// Tiered-vs-untiered speedup at workers=1 (the acceptance figure).
	ns := map[string]float64{}
	for _, res := range r.out {
		if res.Group == "delta-tiers" && res.Workers == workers[0] {
			ns[res.Name] = res.NsPerOp
		}
	}
	logSum, n := 0.0, 0
	for _, wq := range queries {
		t, u := ns[wq.name+"/tiered"], ns[wq.name+"/untiered"]
		if t > 0 && u > 0 {
			fmt.Printf("delta-tiers: %-14s %6.2fx faster tiered (%.0f ns vs %.0f ns)\n", wq.name, u/t, t, u)
			logSum += math.Log(u / t)
			n++
		}
	}
	if n > 0 {
		fmt.Printf("delta-tiers: geomean %.2fx faster than untiered at workers=%d\n", math.Exp(logSum/float64(n)), workers[0])
	}
}

// parseWorkers parses "1,numcpu,4" into a sorted, deduplicated list.
func parseWorkers(s string) ([]int, error) {
	seen := map[int]bool{}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		var w int
		if strings.EqualFold(part, "numcpu") {
			w = runtime.NumCPU()
		} else {
			n, err := strconv.Atoi(part)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad worker count %q", part)
			}
			w = n
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out, nil
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// opKind is the HTTP operation a request performs.
type opKind int

const (
	opQuote opKind = iota // POST /v1/quote {"sql": ...}
	opBatch               // POST /v1/quote/batch {"sqls": [...]}
	opStmt                // POST /v1/quote {"stmt": id, "params": [...]}
	opAsk                 // POST /v1/ask {"buyer": ..., "sql": ...}
)

// request is one generated operation. The server only ever sees its
// rendered JSON body; the fields stay structured so the in-process twin
// can replay the same operation through the library API.
type request struct {
	seq    int
	kind   opKind
	class  string   // latency class (shape family, "purchase", "exact", ...)
	sqls   []string // one entry except for opBatch
	fn     string   // wire name of the pricing function; "" = broker default
	maxErr float64
	buyer  string
	tmpl   int   // opStmt: index into workload.templates
	params []any // opStmt: int64 or string bindings
	rebuy  bool  // opAsk: the generator already issued this (buyer, sql)
}

// workload describes one traffic mix and the server that answers it.
type workload struct {
	name string
	why  string

	bin     string // "qiranad" or "qirouter"
	dataset string
	scale   float64
	support int
	shards  int  // qirouter -cluster N
	durable bool // -data <dir>

	// rate > 0 makes the workload open loop at that many requests per
	// second; 0 is a closed loop.
	rate float64

	templates []string // /v1/prepare templates, prepared in warm-up

	// cache is what the quote cache must do with every timed request:
	// by construction it serves all of them on warm_hot and none on the
	// cold workloads, and a response that says otherwise fails the run
	// ("a change there is a bug").
	cache cacheRule

	// warmup is the fixed-count replay that ends set-up; timed is the
	// measured sequence. Both are pure functions of the seed.
	warmup func(seed int64) []request
	timed  func(seed int64) func() request

	// twinN is how many leading requests of an untraced run are checked
	// against the in-process twin; traceN is the prefix the traced run
	// replays (and checks). Both are sized so the check costs about two
	// seconds of cold pricing.
	twinN, traceN int
}

type cacheRule int

const (
	mixed cacheRule = iota
	allHits
	allMisses
)

func (c cacheRule) String() string { return [...]string{"mixed", "all hits", "all misses"}[c] }

// serverArgs are the flags the child process is started with; the data
// seed is fixed at 1 so only the request sequence varies with --seed.
func (w *workload) serverArgs(addr, dataDir string) []string {
	args := []string{"-addr", addr, "-dataset", w.dataset, "-seed", "1",
		"-support", fmt.Sprint(w.support)}
	if w.scale > 0 {
		args = append(args, "-scale", fmt.Sprint(w.scale))
	}
	if w.shards > 0 {
		args = append(args, "-cluster", fmt.Sprint(w.shards))
	}
	if w.durable {
		args = append(args, "-data", dataDir)
	}
	return args
}

// marketRate is the open-loop arrival rate of market_durable. It is
// frozen here and never calibrated at run time: a slower server must show
// as latency, not as less load. The closed-loop capacity on the seed
// commit is about 1550/s (BASELINE.md; to measure it again, set the
// workload's rate to 0 for one run, which makes it a closed loop). The
// issue asked for half of capacity; with two connections that makes the
// 95th percentile a measure of requests waiting for a free connection
// (README.md), so the rate is what two connections carry without the
// generator running late.
const marketRate = 100

var allWorkloads = []*workload{
	{
		name: "cold_adhoc",
		why:  "never-seen exact coverage quotes: every request misses the quote cache, so parser+disagree+pricing do the work and cost scales with |S|",
		bin:  "qiranad", dataset: "world", support: 5000,
		cache:  allMisses,
		warmup: coldWarmup(worldFamilies, 48),
		timed:  coldTimed(worldFamilies, 48),
		twinN:  100, traceN: 96,
	},
	{
		name: "warm_hot",
		why:  "64 hot SQLs, 8 prepared templates and batches of 8, all primed: 100% cache hits, so net+httpapi+parser+quotecache do the work and sweeps none",
		bin:  "qiranad", dataset: "world", support: 5000,
		templates: hotTemplates,
		cache:     allHits,
		warmup:    hotWarmup,
		timed:     hotTimed,
		twinN:     100, traceN: 240,
	},
	{
		name: "market_durable",
		why:  "open loop: 80% Zipf quotes over a pool 4x the cache, 20% WAL-fsynced purchases by 200 buyers; writes beside reads, real hit ratio and evictions",
		// |S| is small on purpose: this workload is about the write path
		// beside cached reads, not about |S| (cold_adhoc's subject). With a
		// mostly idle server the time of a sweep follows the host's state
		// far more than anything else does, and at |S| = 1000 that made
		// lat_p95_ms differ by 30-40 % between runs of one commit.
		bin: "qiranad", dataset: "world", support: 250, durable: true,
		rate:   marketRate,
		warmup: marketWarmup,
		timed:  marketTimed,
		twinN:  100, traceN: 200,
	},
	{
		name: "sharded_cold",
		why:  "the cold_adhoc sequence through qirouter over 3 shards: the only difference is the shard layer, so the gap to cold_adhoc is the price of sharding",
		bin:  "qirouter", dataset: "world", support: 5000, shards: 3,
		cache:  allMisses,
		warmup: coldWarmup(worldFamilies, 48),
		timed:  coldTimed(worldFamilies, 48),
		twinN:  100, traceN: 96,
	},
	{
		name: "olap_ssb",
		why:  "cold quotes of the four SSB flights: multi-way joins and group-bys over a larger D put the time in exec and disagree's batch/delta evaluation",
		bin:  "qiranad", dataset: "ssb", scale: 0.002, support: 500,
		cache:  allMisses,
		warmup: coldWarmup(ssbFamilies, 36),
		timed:  coldTimed(ssbFamilies, 36),
		twinN:  36, traceN: 48,
	},
	{
		name: "entropy_world",
		why:  "cold shannon/qentropy quotes alternating exact and max_error=0.1: the hash/re-execution path and entropy fold dominate; only home of the approximate path",
		bin:  "qiranad", dataset: "world", support: 400,
		cache:  allMisses,
		warmup: coldWarmup(entropyFamilies, 24),
		timed:  coldTimed(entropyFamilies, 24),
		twinN:  16, traceN: 24,
	},
}

// warmSalt separates the warm-up sequence from the timed one, so warm-up
// builds the executor's indexes without pre-pricing any timed request.
const warmSalt = 0x5eed5eed

// coldWarmup is the fixed-count warm-up of a cold workload: n requests
// of its families from a sequence of its own.
func coldWarmup(families []family, n int) func(int64) []request {
	return func(seed int64) []request {
		return take(fresh(rand.New(rand.NewSource(seed^warmSalt)), families), n)
	}
}

// coldTimed is the timed sequence of a cold workload. It never repeats
// itself nor a warm-up request, so every request misses the quote cache.
func coldTimed(families []family, warm int) func(int64) func() request {
	return func(seed int64) func() request {
		return fresh(rand.New(rand.NewSource(seed)), families, coldWarmup(families, warm)(seed)...)
	}
}

func workloadByName(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func take(next func() request, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// fresh wraps a round-robin list of shape families into a sequence in
// which no SQL text repeats: a family that draws a text already issued
// draws again. Request i comes from family i mod len(families), so every
// prefix has the same mix.
func fresh(rng *rand.Rand, families []family, exclude ...request) func() request {
	seen := make(map[string]bool)
	for _, r := range exclude {
		seen[strings.Join(r.sqls, "\x00")] = true
	}
	i := 0
	return func() request {
		f := families[i%len(families)]
		for {
			r := f.draw(rng)
			key := strings.Join(r.sqls, "\x00")
			if !seen[key] {
				seen[key] = true
				r.seq = i
				if r.class == "" {
					r.class = f.name
				}
				i++
				return r
			}
		}
	}
}

type family struct {
	name string
	draw func(*rand.Rand) request
}

func quoteOf(format string, a ...any) request {
	return request{kind: opQuote, sqls: []string{fmt.Sprintf(format, a...)}}
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

var (
	continents  = []string{"Asia", "Europe", "North America", "Africa", "South America", "Oceania"}
	countryCols = []string{"Name", "Continent", "Region", "SurfaceArea", "IndepYear", "Population",
		"LifeExpectancy", "GNP", "LocalName", "GovernmentForm", "HeadOfState", "Capital", "Code2"}
)

// worldFamilies are the ad-hoc shapes of cold_adhoc and sharded_cold:
// selection, projection, join, group-by, DISTINCT, MIN/MAX and
// self-join, each with literals drawn from domains far larger than a
// run, so every quote is new to the server.
var worldFamilies = []family{
	{"select", func(r *rand.Rand) request {
		if r.Intn(2) == 0 {
			return quoteOf("SELECT Name, Population FROM Country WHERE Population > %d", r.Int63n(1_300_000_000))
		}
		lo := r.Int63n(9_000_000)
		return quoteOf("SELECT Name, District FROM City WHERE Population BETWEEN %d AND %d", lo, lo+1+r.Int63n(2_000_000))
	}},
	{"project", func(r *rand.Rand) request {
		cols := append([]string(nil), countryCols...)
		r.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		return quoteOf("SELECT %s FROM Country WHERE SurfaceArea > %d.5",
			strings.Join(cols[:1+r.Intn(6)], ", "), r.Intn(1_700_000))
	}},
	{"join", func(r *rand.Rand) request {
		if r.Intn(2) == 0 {
			return quoteOf("SELECT C.Name, L.Language FROM Country C, CountryLanguage L WHERE C.Code = L.CountryCode AND L.Percentage < %d.%02d AND C.Population > %d",
				r.Intn(100), r.Intn(100), r.Int63n(500_000_000))
		}
		return quoteOf("SELECT C.Name, T.Name FROM Country C, City T WHERE C.Code = T.CountryCode AND T.Population > %d", r.Int63n(11_000_000))
	}},
	{"groupby", func(r *rand.Rand) request {
		if r.Intn(2) == 0 {
			return quoteOf("SELECT Continent, count(Code), avg(LifeExpectancy) FROM Country WHERE Population > %d GROUP BY Continent", r.Int63n(1_000_000_000))
		}
		return quoteOf("SELECT CountryCode, sum(Population) FROM City WHERE Population > %d GROUP BY CountryCode", r.Int63n(5_000_000))
	}},
	{"distinct", func(r *rand.Rand) request {
		if r.Intn(2) == 0 {
			return quoteOf("SELECT DISTINCT GovernmentForm FROM Country WHERE Population < %d", r.Int63n(1_300_000_000))
		}
		return quoteOf("SELECT DISTINCT Language FROM CountryLanguage WHERE Percentage > %d.%03d", r.Intn(100), r.Intn(1000))
	}},
	{"minmax", func(r *rand.Rand) request {
		if r.Intn(2) == 0 {
			return quoteOf("SELECT max(Population) FROM City WHERE ID > %d AND Population < %d", r.Intn(4000), 100_000+r.Int63n(11_000_000))
		}
		return quoteOf("SELECT Region, min(LifeExpectancy) FROM Country WHERE SurfaceArea > %d.5 GROUP BY Region", r.Intn(1_700_000))
	}},
	{"selfjoin", func(r *rand.Rand) request {
		return quoteOf("SELECT A.Name, B.Name FROM Country A, Country B WHERE A.Region = B.Region AND A.ID < B.ID AND A.Population > %d AND B.Population > %d",
			r.Int63n(1_300_000_000), r.Int63n(1_300_000_000))
	}},
}

// worldSQLs returns n distinct ad-hoc world queries for seed.
func worldSQLs(seed int64, n int) []string {
	next := fresh(rand.New(rand.NewSource(seed)), worldFamilies)
	out := make([]string, n)
	for i := range out {
		out[i] = next().sqls[0]
	}
	return out
}

// ---- olap_ssb ----

var (
	ssbRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	ssbNations = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO",
		"MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA",
		"UNITED KINGDOM", "UNITED STATES"}
)

func ssbYears(r *rand.Rand) (lo, hi int) {
	lo = 1992 + r.Intn(7)
	return lo, lo + r.Intn(1999-lo)
}

// ssbFamilies are the Star Schema Benchmark's four flights, three
// queries each (Q1.1-Q4.3 without Q3.4, which is Q3.3 on one month), with
// literals redrawn per request. Twelve shapes rather than four spread
// the cost of a request over a continuum; with four, the median sat
// between two clusters of cost and jumped from one to the other.
var ssbFamilies = []family{
	{"q1.1", func(r *rand.Rand) request {
		d := r.Intn(9)
		return quoteOf(ssbQ1+"d_year = %d and lo_discount between %d and %d and lo_quantity < %d",
			1992+r.Intn(7), d, d+2, 10+r.Intn(40))
	}},
	{"q2.1", func(r *rand.Rand) request {
		return quoteOf(ssbQ2+"p_category = 'MFGR#%d%d' and s_region = '%s' and lo_quantity < %d group by d_year, p_brand1",
			1+r.Intn(5), 1+r.Intn(5), pick(r, ssbRegions), 20+r.Intn(31))
	}},
	{"q3.1", func(r *rand.Rand) request {
		lo, hi := ssbYears(r)
		return quoteOf(ssbQ3("c_nation, s_nation")+"c_region = '%s' and s_region = '%s' and d_year >= %d and d_year <= %d and lo_quantity < %d group by c_nation, s_nation, d_year",
			pick(r, ssbRegions), pick(r, ssbRegions), lo, hi, 20+r.Intn(31))
	}},
	{"q4.1", func(r *rand.Rand) request {
		lo, hi := ssbYears(r)
		m := 1 + r.Intn(4)
		return quoteOf(ssbQ4("d_year, c_nation")+"c_region = '%s' and s_region = '%s' and d_year >= %d and d_year <= %d and (p_mfgr = 'MFGR#%d' or p_mfgr = 'MFGR#%d') group by d_year, c_nation",
			pick(r, ssbRegions), pick(r, ssbRegions), lo, hi, m, m+1)
	}},
	{"q1.2", func(r *rand.Rand) request {
		d, q := r.Intn(8), 1+r.Intn(40)
		return quoteOf(ssbQ1+"d_yearmonthnum = %d%02d and lo_discount between %d and %d and lo_quantity between %d and %d",
			1992+r.Intn(7), 1+r.Intn(12), d, d+2, q, q+9)
	}},
	{"q2.2", func(r *rand.Rand) request {
		b := 1 + r.Intn(33)
		m, c := 1+r.Intn(5), 1+r.Intn(5)
		return quoteOf(ssbQ2+"p_brand1 between 'MFGR#%d%d%02d' and 'MFGR#%d%d%02d' and s_region = '%s' group by d_year, p_brand1",
			m, c, b, m, c, b+7, pick(r, ssbRegions))
	}},
	{"q3.2", func(r *rand.Rand) request {
		lo, hi := ssbYears(r)
		return quoteOf(ssbQ3("c_city, s_city")+"c_nation = '%s' and s_nation = '%s' and d_year >= %d and d_year <= %d group by c_city, s_city, d_year",
			pick(r, ssbNations), pick(r, ssbNations), lo, hi)
	}},
	{"q4.2", func(r *rand.Rand) request {
		y, m := 1992+r.Intn(6), 1+r.Intn(4)
		return quoteOf(ssbQ4("d_year, s_nation, p_category")+"c_region = '%s' and s_region = '%s' and (d_year = %d or d_year = %d) and (p_mfgr = 'MFGR#%d' or p_mfgr = 'MFGR#%d') group by d_year, s_nation, p_category",
			pick(r, ssbRegions), pick(r, ssbRegions), y, y+1, m, m+1)
	}},
	{"q1.3", func(r *rand.Rand) request {
		d, q := r.Intn(8), 1+r.Intn(40)
		return quoteOf(ssbQ1+"d_weeknuminyear = %d and d_year = %d and lo_discount between %d and %d and lo_quantity between %d and %d",
			1+r.Intn(52), 1992+r.Intn(7), d, d+2, q, q+9)
	}},
	{"q2.3", func(r *rand.Rand) request {
		return quoteOf(ssbQ2+"p_brand1 = 'MFGR#%d%d%02d' and s_region = '%s' and lo_quantity < %d group by d_year, p_brand1",
			1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(40), pick(r, ssbRegions), 20+r.Intn(31))
	}},
	{"q3.3", func(r *rand.Rand) request {
		lo, hi := ssbYears(r)
		n1, n2 := pick(r, ssbNations), pick(r, ssbNations)
		return quoteOf(ssbQ3("c_city, s_city")+"(c_city = '%s' or c_city = '%s') and (s_city = '%s' or s_city = '%s') and d_year >= %d and d_year <= %d group by c_city, s_city, d_year",
			ssbCity(n1, r.Intn(10)), ssbCity(n1, r.Intn(10)), ssbCity(n2, r.Intn(10)), ssbCity(n2, r.Intn(10)), lo, hi)
	}},
	{"q4.3", func(r *rand.Rand) request {
		y := 1992 + r.Intn(6)
		return quoteOf(ssbQ4("d_year, s_city, p_brand1")+"s_nation = '%s' and (d_year = %d or d_year = %d) and p_category = 'MFGR#%d%d' group by d_year, s_city, p_brand1",
			pick(r, ssbNations), y, y+1, 1+r.Intn(5), 1+r.Intn(5))
	}},
}

const (
	ssbQ1 = "select sum(lo_extendedprice * lo_discount) as revenue from lineorder, date where lo_orderdate = d_datekey and "
	ssbQ2 = "select sum(lo_revenue), d_year, p_brand1 from lineorder, date, part, supplier where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey and "
)

func ssbQ3(cols string) string {
	return "select " + cols + ", d_year, sum(lo_revenue) as revenue from customer, lineorder, supplier, date where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and "
}

func ssbQ4(cols string) string {
	return "select " + cols + ", sum(lo_revenue - lo_supplycost) as profit from date, customer, supplier, part, lineorder where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_partkey = p_partkey and lo_orderdate = d_datekey and "
}

// ssbCity renders the generator's city name: the nation cut or padded
// to nine characters, plus a digit.
func ssbCity(nation string, i int) string {
	return fmt.Sprintf("%-9.9s%d", nation, i)
}

// ---- entropy_world ----

// entropyFamilies alternates the two entropy functions over selection and
// group-by shapes; within each function requests alternate exact and
// max_error=0.1, always over distinct queries, so no request is warmed
// by another and the over-charge ratio needs the twin's exact price.
var entropyFamilies = func() []family {
	shapes := []family{
		{"select", func(r *rand.Rand) request {
			return quoteOf("SELECT Name, Population FROM Country WHERE Population > %d", r.Int63n(1_300_000_000))
		}},
		{"groupby", func(r *rand.Rand) request {
			return quoteOf("SELECT Continent, count(Code), avg(LifeExpectancy) FROM Country WHERE Population > %d GROUP BY Continent", r.Int63n(1_000_000_000))
		}},
	}
	var fams []family
	for i := 0; i < 8; i++ {
		shape := shapes[i%2]
		fn := []string{"shannon", "qentropy"}[(i/2)%2]
		approx := i >= 4
		fams = append(fams, family{name: "exact", draw: func(r *rand.Rand) request {
			q := shape.draw(r)
			q.fn = fn
			q.class = "exact"
			if approx {
				q.maxErr = 0.1
				q.class = "approx"
			}
			return q
		}})
	}
	// Interleave so exact and approximate requests alternate.
	order := []int{0, 4, 1, 5, 2, 6, 3, 7}
	mixed := make([]family, len(fams))
	for i, j := range order {
		mixed[i] = fams[j]
	}
	return mixed
}()

// ---- warm_hot ----

// hotTemplates are prepared once in warm-up; their parameter domains
// (hotParams) are small enough that every instance is primed.
var hotTemplates = []string{
	"SELECT Name, Population FROM Country WHERE Population > $1",
	"SELECT Name FROM City WHERE CountryCode = $1",
	"SELECT Continent, count(Code) FROM Country WHERE Population > $1 GROUP BY Continent",
	"SELECT C.Name, L.Language FROM Country C, CountryLanguage L WHERE C.Code = L.CountryCode AND L.Percentage > $1",
	"SELECT DISTINCT Language FROM CountryLanguage WHERE Percentage > $1",
	"SELECT max(Population) FROM City WHERE ID > $1",
	"SELECT Name, District FROM City WHERE Population BETWEEN $1 AND $2",
	"SELECT Region, min(LifeExpectancy) FROM Country WHERE Continent = $1 GROUP BY Region",
}

const hotParamDomain = 8

func hotParams(tmpl, k int) []any {
	switch tmpl {
	case 1:
		return []any{[]string{"USA", "GRC"}[k%2]}
	case 6:
		return []any{int64(100_000 * (k + 1)), int64(1_000_000 * (k + 1))}
	case 7:
		return []any{continents[k%len(continents)]}
	case 3, 4:
		return []any{int64(10 * (k + 1))}
	case 5:
		return []any{int64(400 * (k + 1))}
	}
	return []any{int64(10_000_000 * (k + 1))}
}

// hotSQLs are the seed's 64 hot ad-hoc queries.
func hotSQLs(seed int64) []string { return worldSQLs(seed^0x407, 64) }

func hotBatch(rng *rand.Rand, hot []string) request {
	sqls := make([]string, 8)
	for i := range sqls {
		sqls[i] = pick(rng, hot)
	}
	return request{kind: opBatch, class: "batch", sqls: sqls}
}

func hotWarmup(seed int64) []request {
	var out []request
	for _, s := range hotSQLs(seed) {
		out = append(out, request{kind: opQuote, class: "adhoc", sqls: []string{s}})
	}
	for t := range hotTemplates {
		for k := 0; k < hotParamDomain; k++ {
			out = append(out, request{kind: opStmt, class: "prepared", tmpl: t, params: hotParams(t, k)})
		}
	}
	for i := range out {
		out[i].seq = i
	}
	return out
}

func hotTimed(seed int64) func() request {
	hot := hotSQLs(seed)
	rng := rand.New(rand.NewSource(seed))
	i := 0
	return func() request {
		var r request
		switch i % 3 {
		case 0:
			r = request{kind: opQuote, class: "adhoc", sqls: []string{pick(rng, hot)}}
		case 1:
			t := rng.Intn(len(hotTemplates))
			r = request{kind: opStmt, class: "prepared", tmpl: t, params: hotParams(t, rng.Intn(hotParamDomain))}
		default:
			r = hotBatch(rng, hot)
		}
		r.seq = i
		i++
		return r
	}
}

// ---- market_durable ----

const (
	marketPool   = 4096 // 4x the 1024-entry quote cache
	marketBuyers = 200
	marketPrime  = 896 // hottest pool entries quoted in warm-up, in batches
	marketBatch  = 64
)

func marketSQLs(seed int64) []string { return worldSQLs(seed^0x3a7, marketPool) }

// zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1) — Zipf with exponent 1, which math/rand's generator
// (s > 1 only) cannot produce.
type zipf struct{ cum []float64 }

func newZipf(n int) zipf {
	cum := make([]float64, n)
	s := 0.0
	for i := range cum {
		s += 1 / float64(i+1)
		cum[i] = s
	}
	return zipf{cum}
}

func (z zipf) draw(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

func marketWarmup(seed int64) []request {
	pool := marketSQLs(seed)
	var out []request
	for lo := 0; lo < marketPrime; lo += marketBatch {
		out = append(out, request{seq: len(out), kind: opBatch, class: "prime", sqls: pool[lo : lo+marketBatch]})
	}
	return out
}

// marketTimed issues four quotes then one purchase, round-robin. Every
// third purchase re-buys a query its buyer already bought (once the
// buyer owns something), so it must be charged 0.
func marketTimed(seed int64) func() request {
	pool := marketSQLs(seed)
	z := newZipf(marketPool)
	rng := rand.New(rand.NewSource(seed))
	owned := make(map[int][]string)
	i, purchases := 0, 0
	return func() request {
		var r request
		if i%5 != 4 {
			r = request{kind: opQuote, class: "quote", sqls: []string{pool[z.draw(rng)]}}
		} else {
			b := rng.Intn(marketBuyers)
			r = request{kind: opAsk, class: "purchase", buyer: fmt.Sprintf("buyer%03d", b)}
			if purchases%3 == 2 && len(owned[b]) > 0 {
				r.sqls = []string{pick(rng, owned[b])}
				r.rebuy = true
			} else {
				r.sqls = []string{pool[z.draw(rng)]}
				owned[b] = append(owned[b], r.sqls[0])
			}
			purchases++
		}
		r.seq = i
		i++
		return r
	}
}

// plausiblePrice is the range every served price must lie in: the whole
// dataset sells for 100.
func plausiblePrice(p float64) bool { return !math.IsNaN(p) && p >= 0 && p <= 100 }

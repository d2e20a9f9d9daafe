// Property test for delta evaluation: for any support-set update u on a
// relation of an SPJ query Q, the signed delta identity
//
//	multiset(Qcore(up(D))) = multiset(Qcore(D)) − outMinus + outPlus
//
// must hold exactly as a NET equation, where (outMinus, outPlus) are the
// terms of u's one-upid Q.RunTagged(D, rel, u⁻, u⁺) and Qcore is Q without
// its DISTINCT epilogue (RunTagged reports pre-DISTINCT core rows). For relations occurring more
// than once the higher-order expansion may overshoot on individual terms —
// only the per-row net count is meaningful — so the comparison is signed.
// This is the contract the disagreement checker's tiered compare path rests
// on, checked with testing/quick over every generator schema. The full runs
// on the updated instance go through copy-on-write overlays, so the test
// also exercises cache bypass for overridden relations; interleaved
// apply/undo cycles on the base tables move version stamps mid-stream to
// prove the delta path survives index-cache invalidation.
package exec_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/analyze"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/value"
)

// deltaQuickCases pairs each generator schema with SPJ queries spanning
// single-relation filters, multi-relation equi-joins, DISTINCT, and
// self-joins (the partial delta tier).
var deltaQuickCases = []struct {
	name    string
	db      func() *storage.Database
	queries []string
}{
	{"world", func() *storage.Database { return datagen.World(1) }, []string{
		"SELECT Name, Population FROM Country WHERE Population > 10000000",
		"SELECT * FROM Country C, CountryLanguage CL WHERE C.Code = CL.CountryCode AND CL.Percentage < 50",
		"SELECT DISTINCT Continent FROM Country",
		"SELECT a.Name FROM Country a, Country b WHERE a.Continent = b.Continent AND b.Population > 100000000",
	}},
	{"carcrash", func() *storage.Database { return datagen.CarCrash(2, 400) }, []string{
		"SELECT State, Age FROM crash WHERE Age > 40",
		"SELECT DISTINCT State FROM crash WHERE Age > 60",
	}},
	{"ssb", func() *storage.Database { return datagen.SSB(3, 0.001) }, []string{
		"SELECT c_city, lo_revenue FROM customer, lineorder WHERE c_custkey = lo_custkey AND lo_discount > 5",
		"SELECT DISTINCT c_nation FROM customer",
	}},
	{"tpch", func() *storage.Database { return datagen.TPCH(4, 0.002) }, []string{
		"SELECT n_name, s_name FROM nation, supplier WHERE n_nationkey = s_nationkey",
		"SELECT a.s_name FROM supplier a, supplier b WHERE a.s_nationkey = b.s_nationkey AND b.s_acctbal > 5000",
	}},
	{"dblp", func() *storage.Database { return datagen.DBLP(5, 0.02) }, []string{
		"SELECT FromNodeId FROM dblp WHERE ToNodeId < 1000",
	}},
}

func TestRunDeltaMatchesFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("property test over all generator schemas")
	}
	for _, tc := range deltaQuickCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db()
			set, err := support.GenerateNeighborhood(db, support.DefaultConfig(120, 17))
			if err != nil {
				t.Fatal(err)
			}
			for _, sql := range tc.queries {
				q, err := exec.Compile(sql, db.Schema)
				if err != nil {
					t.Fatalf("compile %q: %v", sql, err)
				}
				// RunTagged reports pre-DISTINCT core rows, so the reference
				// query for the identity drops the DISTINCT epilogue.
				core := q
				if strings.Contains(sql, "DISTINCT") {
					core, err = exec.Compile(strings.Replace(sql, "DISTINCT ", "", 1), db.Schema)
					if err != nil {
						t.Fatalf("compile core of %q: %v", sql, err)
					}
				}
				base, err := core.Run(db)
				if err != nil {
					t.Fatal(err)
				}
				baseCounts := rowCounts(base.Rows)
				o := storage.NewOverlay(db)

				iter := 0
				prop := func(pick uint16) bool {
					u := set.Updates[int(pick)%len(set.Updates)]
					if q.DeltaTier(u.Rel) == analyze.DeltaNone {
						return true // update touches a relation outside Q
					}
					iter++
					if iter%7 == 0 {
						// Move the relation's version stamp without changing
						// content: the index cache (and any views) must
						// invalidate and rebuild, not serve stale entries.
						u.Apply(db)
						u.Undo(db)
					}
					outMinus, outPlus, err := exec.RunOne(q, db, u.Rel, u.MinusRows(db), u.PlusRows(db))
					if err != nil {
						t.Errorf("%q / %s: RunTagged: %v", sql, u.Rel, err)
						return false
					}
					// Expected: base − outMinus + outPlus, as a SIGNED
					// multiset (higher-order terms may overshoot per-term;
					// only the net is meaningful).
					want := make(map[string]int, len(baseCounts))
					for k, n := range baseCounts {
						want[k] = n
					}
					for _, row := range outMinus {
						want[value.Key(row)]--
					}
					for _, row := range outPlus {
						want[value.Key(row)]++
					}
					// Ground truth: full run over the updated instance.
					u.ApplyOverlay(o)
					full, err := core.RunOverride(db, o.Overrides())
					u.UndoOverlay(o)
					if err != nil {
						t.Errorf("%q: full run: %v", sql, err)
						return false
					}
					got := rowCounts(full.Rows)
					for k, n := range want {
						if got[k] != n {
							return false
						}
					}
					for k, n := range got {
						if want[k] != n {
							return false
						}
					}
					return true
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
					t.Errorf("%s / %q: %v", tc.name, sql, err)
				}
			}
		})
	}
}

func rowCounts(rows [][]value.Value) map[string]int {
	m := make(map[string]int, len(rows))
	for _, row := range rows {
		m[value.Key(row)]++
	}
	return m
}

// TestQuickTaggedDeltaMatchesRunDelta checks a tagged batch against its
// updates run one by one on world self-joins with k = 2 and k = 3
// occurrences of Country: over random batches of Country updates, row
// updates and swaps, each upid's two correction terms from the one batch
// run must net, per value.Key, to what a one-upid run of that update alone
// returns. Every batch also holds
// two hand-made updates that move two same-region countries into one new
// region, so their rows join each other in every term that substitutes
// both: only the upid key keeps them apart. Every slot filters on
// Population, so a third hand-made update, a rename of a country below
// them all, comes back with empty terms.
func TestQuickTaggedDeltaMatchesRunDelta(t *testing.T) {
	db := datagen.World(1)
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(600, 23))
	if err != nil {
		t.Fatal(err)
	}
	country := db.Table("Country")
	region, pop := country.Rel.AttrIndex("Region"), country.Rel.AttrIndex("Population")
	var pool []*support.Update
	for _, u := range set.Updates {
		if u.Touches("Country") {
			pool = append(pool, u)
		}
	}
	// Two populous countries of one region, both moved to Atlantis.
	var fixed []*support.Update
	first := map[string]int{}
	for ri := range country.Rows {
		if country.Get(ri, pop).AsInt() <= 60000000 {
			continue
		}
		r := country.Get(ri, region)
		if r0, ok := first[r.S]; ok {
			for _, row := range []int{r0, ri} {
				fixed = append(fixed, &support.Update{Rel: "Country", Row1: row, Attrs: []int{region},
					Old1: []value.Value{r}, New1: []value.Value{value.NewString("Atlantis")}})
			}
			break
		}
		first[r.S] = ri
	}
	if len(fixed) != 2 {
		t.Fatal("world has no region with two countries above 60M")
	}
	name := country.Rel.AttrIndex("Name")
	for ri := range country.Rows {
		if country.Get(ri, pop).AsInt() < 1000000 {
			fixed = append(fixed, &support.Update{Rel: "Country", Row1: ri, Attrs: []int{name},
				Old1: []value.Value{country.Get(ri, name)}, New1: []value.Value{value.NewString("Nowhere")}})
			break
		}
	}
	queries := []string{
		"SELECT a.Name, b.Name FROM Country a, Country b WHERE a.Region = b.Region AND a.Population > 1000000 AND b.Population > 10000000",
		"SELECT a.Name, b.Code, c.Name FROM Country a, Country b, Country c WHERE a.Region = b.Region AND b.Continent = c.Continent AND a.Population > 20000000 AND b.Population > 1000000 AND c.Population > 50000000",
	}
	net := func(minus, plus [][]value.Value) map[string]int {
		m := make(map[string]int)
		for _, row := range minus {
			m[value.Key(row)]--
		}
		for _, row := range plus {
			m[value.Key(row)]++
		}
		for k, n := range m {
			if n == 0 {
				delete(m, k)
			}
		}
		return m
	}
	tag := func(rows [][]value.Value, upid int) [][]value.Value {
		out := make([][]value.Value, len(rows))
		for i, row := range rows {
			out[i] = append(row, value.NewInt(int64(upid)))
		}
		return out
	}
	for _, sql := range queries {
		q := exec.MustCompile(sql, db.Schema)
		swaps, empty := 0, 0
		prop := func(seed int64, size uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			batch := append([]*support.Update(nil), fixed...)
			for n := 1 + int(size)%16; n > 0; n-- {
				batch = append(batch, pool[rng.Intn(len(pool))])
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			var minus, plus [][]value.Value
			for i, u := range batch {
				minus = append(minus, tag(u.MinusRows(db), i)...)
				plus = append(plus, tag(u.PlusRows(db), i)...)
			}
			tm, tp, err := q.RunTagged(db, "Country", minus, plus)
			if err != nil {
				t.Fatalf("%q: RunTagged: %v", sql, err)
			}
			for i, u := range batch {
				m, p, err := exec.RunOne(q, db, "Country", u.MinusRows(db), u.PlusRows(db))
				if err != nil {
					t.Fatalf("%q: one-upid run: %v", sql, err)
				}
				if u.Swap {
					swaps++
				}
				if len(m)+len(p) == 0 {
					empty++
				}
				if got, want := net(tm[int64(i)], tp[int64(i)]), net(m, p); !reflect.DeepEqual(got, want) {
					t.Logf("%q upid %d (%+v): batch net %v, alone net %v", sql, i, u, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%q: %v", sql, err)
		}
		if swaps == 0 || empty == 0 {
			t.Errorf("%q: %d swaps, %d upids with empty terms; want both exercised", sql, swaps, empty)
		}
	}
}

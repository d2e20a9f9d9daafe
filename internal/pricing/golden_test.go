package pricing

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"qirana/internal/datagen"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/storage"
	"qirana/internal/support"
	"qirana/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current engine")

const goldenFile = "testdata/golden.txt"

// goldenSize is |S| of every golden sweep.
const goldenSize = 1000

// goldenSelfJoins returns n cold_adhoc-style self-joins with literals
// drawn from a fixed seed.
func goldenSelfJoins(n int) []string {
	r := rand.New(rand.NewSource(1))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("SELECT A.Name, B.Name FROM Country A, Country B WHERE A.Region = B.Region AND A.ID < B.ID AND A.Population > %d AND B.Population > %d",
			r.Int63n(1_300_000_000), r.Int63n(1_300_000_000))
	}
	return out
}

// goldenEntry is one priced unit of the corpus: a single query, or a
// bundle whose queries are also swept as k independent queries.
type goldenEntry struct {
	name string
	sqls []string
}

// TestGoldenDigests prices a fixed corpus and compares one line per
// (entry, sweep kind, workers, mask) with testdata/golden.txt: the FNV of
// the bitmap or hash vector, the prices as float bits (coverage and
// uniform entropy gain from a bitmap, all four from a hash vector) and
// the Stats partition. The corpus is the twelve coldAdhocShapes, eight
// seeded self-joins, the thirteen SSB flights and a two-query bundle of a
// plain selection and DISTINCT Language, each swept unmasked and under
// two covering halves at Workers 1 and 2. A change that moves a price or
// a Stats field shows as a line diff; go test -run Golden -update
// rewrites the file.
func TestGoldenDigests(t *testing.T) {
	world := datagen.World(1)
	var worldEntries []goldenEntry
	for i, sql := range coldAdhocShapes {
		worldEntries = append(worldEntries, goldenEntry{fmt.Sprintf("world/%02d", i), []string{sql}})
	}
	for i, sql := range goldenSelfJoins(8) {
		worldEntries = append(worldEntries, goldenEntry{fmt.Sprintf("selfjoin/%d", i), []string{sql}})
	}
	worldEntries = append(worldEntries, goldenEntry{"bundle", []string{coldAdhocShapes[0], coldAdhocShapes[8]}})
	var ssbEntries []goldenEntry
	for _, q := range workload.SSB() {
		ssbEntries = append(ssbEntries, goldenEntry{"ssb/" + q.Name, []string{strings.Join(strings.Fields(q.SQL), " ")}})
	}

	var lines []string
	lines = append(lines, goldenLines(t, world, worldEntries)...)
	lines = append(lines, goldenLines(t, datagen.SSB(1, 0.001), ssbEntries)...)

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (go test -run Golden -update writes it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Errorf("golden file has %d lines, the corpus makes %d", len(want), len(lines))
	}
	bad := 0
	for i := 0; i < len(want) && i < len(lines); i++ {
		if want[i] != lines[i] {
			if bad++; bad <= 20 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, lines[i], want[i])
			}
		}
	}
	if bad > 20 {
		t.Errorf("... %d lines differ in all", bad)
	}
}

// goldenLines sweeps every entry over one database and its support set.
func goldenLines(t *testing.T, db *storage.Database, entries []goldenEntry) []string {
	t.Helper()
	ctx := context.Background()
	set, err := support.GenerateNeighborhood(db, support.DefaultConfig(goldenSize, 1))
	if err != nil {
		t.Fatal(err)
	}
	n := set.Size()
	lo := make([]bool, n)
	for i := 0; i < n/2; i++ {
		lo[i] = true
	}
	masks := []struct {
		name string
		live []bool
	}{{"all", nil}, {"lo", lo}, {"hi", invert(lo)}}
	var out []string
	for _, en := range entries {
		out = append(out, "# "+en.name+": "+strings.Join(en.sqls, " ; "))
		for _, workers := range []int{1, 2} {
			e := NewEngine(db, set, 100)
			e.Opts.Workers = workers
			qs := make([]*exec.Query, len(en.sqls))
			for j, sql := range en.sqls {
				qs[j] = exec.MustCompile(sql, db.Schema)
			}
			for _, m := range masks {
				key := fmt.Sprintf("%s w=%d mask=%s", en.name, workers, m.name)
				dis, s, err := e.DisagreementsLiveCtx(ctx, qs, m.live)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				out = append(out, key+" coverage "+goldenBits(e, dis, s))
				hs, base, s, err := e.OutputHashesLiveCtx(ctx, qs, m.live)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				out = append(out, key+" entropy "+goldenHashes(e, hs, base, s))
				if len(qs) == 1 {
					continue
				}
				bits, bs, err := e.DisagreementsMultiLiveCtx(ctx, qs, m.live)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				elems, bases, hstats, err := e.OutputHashesMultiLiveCtx(ctx, qs, m.live)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				for j := range qs {
					out = append(out, fmt.Sprintf("%s coverage-multi/%d %s", key, j, goldenBits(e, bits[j], bs[j])))
					out = append(out, fmt.Sprintf("%s entropy-multi/%d %s", key, j, goldenHashes(e, elems[j], bases[j], hstats[j])))
				}
			}
		}
	}
	return out
}

// goldenBits renders a bitmap line: its FNV, the coverage and uniform
// entropy gain prices and the Stats.
func goldenBits(e *Engine, dis []bool, s Stats) string {
	h := fnv.New64a()
	for _, d := range dis {
		b := byte(0)
		if d {
			b = 1
		}
		h.Write([]byte{b})
	}
	wc, _ := e.PriceFromDisagreements(WeightedCoverage, dis)
	ueg, _ := e.PriceFromDisagreements(UniformEntropyGain, dis)
	return fmt.Sprintf("fnv=%016x prices=%016x,%016x %s", h.Sum64(), math.Float64bits(wc), math.Float64bits(ueg), goldenStats(s))
}

// goldenHashes renders a hash-vector line: the FNV of the vector and of
// the base hash, the four prices and the Stats.
func goldenHashes(e *Engine, hs []uint64, base uint64, s Stats) string {
	ps := e.PricesFromHashes(hs, base)
	return fmt.Sprintf("fnv=%016x prices=%016x,%016x,%016x,%016x %s", combine(append(hs[:len(hs):len(hs)], base)),
		math.Float64bits(ps[WeightedCoverage]), math.Float64bits(ps[UniformEntropyGain]),
		math.Float64bits(ps[ShannonEntropy]), math.Float64bits(ps[QEntropy]), goldenStats(s))
}

func goldenStats(s Stats) string {
	return fmt.Sprintf("static=%d batched=%d dfull=%d dpartial=%d full=%d naive=%d",
		s.Static, s.Batched, s.DeltaFull, s.DeltaPartial, s.FullRuns, s.Naive)
}

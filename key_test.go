package qirana

import (
	"fmt"
	"strings"
	"testing"

	"qirana/internal/quotecache"
	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
)

// TestQuoteKeyGolden pins every rendering of quoteKey, byte for byte,
// and quotecache.KindOf's classification of it: the template hit/miss
// split and every cache counter on /metrics read the prefix back. Every
// query renders by its identity (template canon and constant vector),
// alone after "|" or per bundle member after "\x01".
func TestQuoteKeyGolden(t *testing.T) {
	b := worldBroker(t, 60)
	// Move every counter the key embeds off its initial value so a field
	// rendered in the wrong slot cannot pass by coincidence.
	b.db.Table("Country").Set(3, 7, NewInt(200000000))
	b.db.Table("Country").Set(4, 7, NewInt(200000001))
	w := make([]float64, b.SupportSetSize())
	for i := range w {
		w[i] = 100 / float64(len(w))
	}
	if err := b.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	compile := func(sql string) *exec.Query {
		q, err := b.Compile(sql)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	single := []*exec.Query{compile("SELECT Name FROM Country WHERE Continent = 'Asia'")}
	bundle := []*exec.Query{single[0], compile("SELECT Name FROM City WHERE Population > 100000")}

	gen, epoch := b.supportGen, b.engine.WeightsEpoch()
	ver := func(qs []*exec.Query) uint64 {
		v := b.db.Table("Country").Version()
		if len(qs) > 1 {
			v = max(v, b.db.Table("City").Version())
		}
		return v
	}
	if gen == 0 || epoch == 0 || ver(single) == 0 {
		t.Fatalf("counters not moved: gen=%d epoch=%d ver=%d", gen, epoch, ver(single))
	}
	// A query's identity: its template canon and constant vector.
	ident := func(q *exec.Query) string {
		tm, err := ast.NewTemplate(q.Stmt)
		if err != nil {
			t.Fatal(err)
		}
		pk, err := tm.ParamKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		return tm.Canon + "\x02" + pk
	}
	suffix := ident(single[0])
	// A quoted alias may hold any byte, \x00 and \x01 included: the
	// query templates like any other under the "td"/"te" prefixes, and an
	// alias differing only in those bytes keys apart.
	ctrl := []*exec.Query{compile("SELECT Name FROM Country \"x\x00y\" WHERE Continent = 'Asia'")}
	ctrlSuffix := ident(ctrl[0])
	if twin := ident(compile("SELECT Name FROM Country \"x\x01y\" WHERE Continent = 'Asia'")); twin == ctrlSuffix {
		t.Fatalf("aliases differing in control bytes share identity %q", twin)
	}
	fps := ""
	for _, q := range bundle {
		fps += "\x01" + ident(q)
	}
	// The rendered formats.
	disKey := func(qs []*exec.Query) string {
		if len(qs) == 1 {
			return fmt.Sprintf("td|%d|%d|%s", gen, ver(qs), suffix)
		}
		return fmt.Sprintf("d|%d|%d", gen, ver(qs)) + fps
	}
	priced := func(p string, fn PricingFunc, qs []*exec.Query) string {
		if len(qs) == 1 {
			return fmt.Sprintf("%s|%d|%d|%d|%d|%s", p, int(fn), epoch, gen, ver(qs), suffix)
		}
		return fmt.Sprintf("%s|%d|%d|%d|%d", strings.TrimPrefix(p, "t"), int(fn), epoch, gen, ver(qs)) + fps
	}
	const smp = 0.30000000000000004
	sampleSuffix := fmt.Sprintf("|smp:%g,%d", smp, int64(-9))
	slice := func(hashes, bundled bool, frac float64) *SweepSliceRequest {
		return &SweepSliceRequest{Hashes: hashes, Bundle: bundled, Lo: 17, Hi: 42, SampleFrac: frac, SampleSeed: -9}
	}

	cases := []struct {
		name string
		key  quoteKey
		want string
		kind quotecache.Kind
	}{
		{"td", quoteKey{fn: WeightedCoverage, qs: single}, disKey(single), quotecache.KindTemplate},
		{"td/gain", quoteKey{fn: UniformEntropyGain, qs: single}, disKey(single), quotecache.KindTemplate},
		{"d", quoteKey{fn: UniformEntropyGain, qs: bundle}, disKey(bundle), quotecache.KindBitmap},
		{"td/ctrl", quoteKey{fn: WeightedCoverage, qs: ctrl}, fmt.Sprintf("td|%d|%d|%s", gen, ver(ctrl), ctrlSuffix), quotecache.KindTemplate},
		{"te/ctrl", quoteKey{fn: ShannonEntropy, qs: ctrl}, fmt.Sprintf("te|%d|%d|%d|%d|%s", int(ShannonEntropy), epoch, gen, ver(ctrl), ctrlSuffix), quotecache.KindTemplate},
		{"a/single/ctrl", quoteKey{fn: QEntropy, approx: true, qs: ctrl}, fmt.Sprintf("a|%d|%d|%d|%d|%s", int(QEntropy), epoch, gen, ver(ctrl), ctrlSuffix), quotecache.KindApprox},
		{"ss|m/ctrl", quoteKey{qs: ctrl, slice: slice(false, false, 0)}, fmt.Sprintf("ss|m|17,42|td|%d|%d|%s", gen, ver(ctrl), ctrlSuffix), quotecache.KindOther},
		{"te/shannon", quoteKey{fn: ShannonEntropy, qs: single}, priced("te", ShannonEntropy, single), quotecache.KindTemplate},
		{"te/qentropy", quoteKey{fn: QEntropy, qs: single}, priced("te", QEntropy, single), quotecache.KindTemplate},
		{"e", quoteKey{fn: QEntropy, qs: bundle}, priced("e", QEntropy, bundle), quotecache.KindPrice},
		{"a/single", quoteKey{fn: WeightedCoverage, approx: true, qs: single}, priced("a", WeightedCoverage, single), quotecache.KindApprox},
		{"a/single/shannon", quoteKey{fn: ShannonEntropy, approx: true, qs: single}, priced("a", ShannonEntropy, single), quotecache.KindApprox},
		{"a/bundle", quoteKey{fn: UniformEntropyGain, approx: true, qs: bundle}, priced("a", UniformEntropyGain, bundle), quotecache.KindApprox},
		{"ss|b", quoteKey{qs: bundle, slice: slice(false, true, 0)}, "ss|b|17,42|" + disKey(bundle), quotecache.KindOther},
		{"ss|b/sampled", quoteKey{qs: bundle, slice: slice(false, true, smp)}, "ss|b|17,42|" + disKey(bundle) + sampleSuffix, quotecache.KindOther},
		{"ss|m", quoteKey{qs: single, slice: slice(false, false, 0)}, "ss|m|17,42|" + disKey(single), quotecache.KindOther},
		{"ss|m/sampled", quoteKey{qs: single, slice: slice(false, false, smp)}, "ss|m|17,42|" + disKey(single) + sampleSuffix, quotecache.KindOther},
		{"sh|b", quoteKey{qs: single, slice: slice(true, true, 0)}, "sh|b|17,42|" + disKey(single), quotecache.KindOther},
		{"sh|b/sampled", quoteKey{qs: single, slice: slice(true, true, smp)}, "sh|b|17,42|" + disKey(single) + sampleSuffix, quotecache.KindOther},
		{"sh|m", quoteKey{qs: single, slice: slice(true, false, 0)}, "sh|m|17,42|" + disKey(single), quotecache.KindOther},
		{"sh|m/sampled", quoteKey{qs: single, slice: slice(true, false, smp)}, "sh|m|17,42|" + disKey(single) + sampleSuffix, quotecache.KindOther},
		// A full or empty "sample" is no sample: the parent rendered no
		// suffix for fractions outside (0, 1).
		{"ss|b/frac1", quoteKey{qs: bundle, slice: slice(false, true, 1)}, "ss|b|17,42|" + disKey(bundle), quotecache.KindOther},
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, tc := range cases {
		got := b.key(tc.key)
		if got != tc.want {
			t.Errorf("%s: key\n got %q\nwant %q", tc.name, got, tc.want)
		}
		if k := quotecache.KindOf(got); k != tc.kind {
			t.Errorf("%s: KindOf = %v, want %v", tc.name, k, tc.kind)
		}
	}

	// A prepared statement's bound query renders the ad-hoc key of the
	// substituted query.
	s, err := b.Prepare(t.Context(), "SELECT Name FROM Country WHERE Continent = $1")
	if err != nil {
		t.Fatal(err)
	}
	args := []Value{NewString("Asia")}
	sig, err := s.tmpl.ParamKey(args)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := s.boundQuery(sig, args)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []PricingFunc{WeightedCoverage, UniformEntropyGain, ShannonEntropy, QEntropy} {
		if got, want := b.key(quoteKey{fn: fn, qs: []*exec.Query{bound}}), b.key(quoteKey{fn: fn, qs: single}); got != want {
			t.Errorf("%v: prepared key %q != ad-hoc key %q", fn, got, want)
		}
	}
}

package qirana

import (
	"strconv"
	"strings"

	"qirana/internal/sqlengine/ast"
	"qirana/internal/sqlengine/exec"
)

// quoteKey is the one quote-cache key. Every entry is identified by its
// queries, the support-set generation and the largest version counter
// over the relations they read, so a served entry is valid by
// construction. It renders as
//
//	d|gen|ver…             exact disagreement bitmap (coverage, uniform gain)
//	e|fn|epoch|gen|ver…    exact entropy price
//	a|fn|epoch|gen|ver…    approximate or degraded upper bound
//	ss|b|lo,hi|d|gen|ver…  one shard slice's bits ("sh" hashes, "m" one
//	                       query of a batch), then |smp:frac,seed if sampled
//
// where … is |suffix for a single query (templateSuffix; "td", "te"
// when it templated) and \x01fingerprint per query of a bundle.
// quotecache.KindOf reads the prefix back for the hit/miss split.
//
// A bitmap omits the pricing function and weights epoch: the conflict
// set is a property of (queries, database, support set) alone, so one
// entry serves coverage and uniform-gain quotes and every buyer's
// purchase, across weight refits. An approximate key omits the sample
// fraction, so re-quotes at any error target and the purchase-time
// reconcile find the same entry.
type quoteKey struct {
	// fn selects the exact kind: a price for the entropies, else a
	// bitmap. Slice keys leave it zero.
	fn     PricingFunc
	approx bool
	qs     []*exec.Query
	// suffix and tables, when set, are a prepared statement's
	// precomputed template identity and relation list for its one bound
	// query, so a warm prepared quote renders neither again.
	suffix string
	tables []string
	slice  *SweepSliceRequest
}

// key renders k. Callers hold mu.RLock.
func (b *Broker) key(k quoteKey) string {
	suffix, templ := k.suffix, k.suffix != ""
	if !templ && len(k.qs) == 1 {
		suffix, templ = templateSuffix(k.qs[0].Stmt)
	}
	var ver uint64
	if k.tables != nil {
		ver = b.maxVersionTables(k.tables)
	} else {
		ver = b.maxVersion(k.qs)
	}
	var sb strings.Builder
	sb.Grow(len(suffix) + 40)
	var num [32]byte
	if s := k.slice; s != nil {
		sb.WriteString(pick(s.Hashes, "sh|", "ss|"))
		sb.WriteString(pick(s.Bundle, "b|", "m|"))
		sb.Write(strconv.AppendInt(num[:0], int64(s.Lo), 10))
		sb.WriteByte(',')
		sb.Write(strconv.AppendInt(num[:0], int64(s.Hi), 10))
		sb.WriteByte('|')
	}
	fields := []uint64{uint64(k.fn), b.engine.WeightsEpoch(), b.supportGen, ver}
	switch {
	case k.approx:
		sb.WriteString("a")
	case hashed(k.fn):
		sb.WriteString(pick(templ, "te", "e"))
	default:
		sb.WriteString(pick(templ, "td", "d"))
		fields = fields[2:]
	}
	for _, v := range fields {
		sb.WriteByte('|')
		sb.Write(strconv.AppendUint(num[:0], v, 10))
	}
	if len(k.qs) == 1 {
		sb.WriteByte('|')
		sb.WriteString(suffix)
	} else {
		for _, q := range k.qs {
			sb.WriteByte('\x01')
			sb.WriteString(ast.Fingerprint(q.Stmt))
		}
	}
	if s := k.slice; s != nil && (SweepSpec{SampleFrac: s.SampleFrac}).Sampled() {
		sb.WriteString("|smp:")
		sb.Write(strconv.AppendFloat(num[:0], s.SampleFrac, 'g', -1, 64))
		sb.WriteByte(',')
		sb.Write(strconv.AppendInt(num[:0], s.SampleSeed, 10))
	}
	return sb.String()
}

func pick(c bool, yes, no string) string {
	if c {
		return yes
	}
	return no
}

// templateSuffix renders the template-keyed identity of a single
// constant query: the literal-stripped canonical form plus the exact
// constant vector in site order. Prepared statements compute the same
// suffix from their cached template, so an ad-hoc quote of a template
// instance and a prepared quote of the same instance share one cache
// entry (and coalesce). The bool reports whether templating succeeded;
// on the (pathological) fallback the full-constant Fingerprint is
// returned instead.
func templateSuffix(stmt *ast.SelectStmt) (string, bool) {
	if tm, err := ast.NewTemplate(stmt); err == nil {
		if pk, err2 := tm.ParamKey(nil); err2 == nil {
			return tm.Canon + "\x02" + pk, true
		}
	}
	return ast.Fingerprint(stmt), false
}

// maxVersion returns the largest mutation counter over the relations the
// bundle references: a point update to any of them moves the key, so a
// cached price can never outlive the data it priced.
func (b *Broker) maxVersion(qs []*exec.Query) uint64 {
	var v uint64
	for _, q := range qs {
		if w := b.maxVersionTables(ast.ReferencedTables(q.Stmt)); w > v {
			v = w
		}
	}
	return v
}

// maxVersionTables is maxVersion over a precomputed relation list — the
// prepared-statement fast path, whose referenced tables never change
// across bindings.
func (b *Broker) maxVersionTables(tables []string) uint64 {
	var v uint64
	for _, rel := range tables {
		if t := b.db.Table(rel); t != nil && t.Version() > v {
			v = t.Version()
		}
	}
	return v
}

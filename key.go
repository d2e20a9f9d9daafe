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
// where … is \x01identity per query of a bundle. A single query renders
// |identity instead and its exact kinds read "td"/"te", which
// quotecache.KindOf reads back for the template hit/miss split. The
// identity is the query's exec.Identity key — its template canon and
// constant vector from one canonical walk — so an ad-hoc quote and a
// prepared quote of the same bound statement share one entry.
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
	slice  *SweepSliceRequest
}

// key renders k. Callers hold mu.RLock.
func (b *Broker) key(k quoteKey) string {
	// The largest mutation counter over the relations the queries read:
	// a point update to any of them moves the key, so a cached price can
	// never outlive the data it priced.
	var ver uint64
	n := 40
	for _, q := range k.qs {
		id := q.Identity()
		n += len(id.Key) + 1
		for _, rel := range id.Tables {
			if t := b.db.Table(rel); t != nil && t.Version() > ver {
				ver = t.Version()
			}
		}
	}
	single := len(k.qs) == 1
	var sb strings.Builder
	sb.Grow(n)
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
		sb.WriteString(pick(single, "te", "e"))
	default:
		sb.WriteString(pick(single, "td", "d"))
		fields = fields[2:]
	}
	for _, v := range fields {
		sb.WriteByte('|')
		sb.Write(strconv.AppendUint(num[:0], v, 10))
	}
	sep := byte('\x01')
	if single {
		sep = '|'
	}
	for _, q := range k.qs {
		sb.WriteByte(sep)
		sb.WriteString(q.Identity().Key)
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

// fingerprint is the full-constant canonical form of q's statement, the
// identity a purchase record carries in the ledger.
func fingerprint(q *exec.Query) string { return ast.Fingerprint(q.Stmt) }

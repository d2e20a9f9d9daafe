// Package result holds query results and implements the output-comparison
// primitives the pricing framework is built on: order-insensitive multiset
// hashing (the h(Q(D)) of Algorithms 1-3) and exact multiset equality (used
// by the disagreement checkers of §4, where correctness matters more than
// speed because the compared sets are small).
package result

import (
	"strings"

	"qirana/internal/value"
)

// Result is a materialized query output.
type Result struct {
	Cols []string
	Rows [][]value.Value
	// Ordered marks results whose row order is semantically meaningful
	// (ORDER BY and/or LIMIT present); their hash and equality are
	// sequence-sensitive.
	Ordered bool
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// IsEmpty reports whether the result has no rows.
func (r *Result) IsEmpty() bool { return len(r.Rows) == 0 }

// Hash returns a 64-bit fingerprint of the result. For unordered results
// the hash is invariant under row permutation: it finishes the multiset's
// Parts (see there).
func (r *Result) Hash() uint64 {
	if r.Ordered {
		h := uint64(value.HashSeed)
		for _, row := range r.Rows {
			h = value.HashU64(h, value.HashRow(row))
		}
		return h
	}
	return PartsOf(r.Rows).Finish()
}

// Parts is the commutative state behind an unordered result's hash: the
// cardinality and two independent wrapping sums of mixed per-row hashes,
// which together make accidental collisions of distinct multisets
// vanishingly unlikely. Wrapping addition makes it a group homomorphism
// from signed row multisets, so the Parts of Q(D) − Δ⁻ + Δ⁺ are
// PartsOf(Q(D)).Sub(PartsOf(Δ⁻)).Add(PartsOf(Δ⁺)) bit for bit, and
// finishing them gives the Hash a full run over the corrected multiset
// returns.
type Parts struct{ N, Sum, Mix uint64 }

// PartsOf returns the Parts of a row multiset.
func PartsOf(rows [][]value.Value) Parts {
	p := Parts{N: uint64(len(rows))}
	for _, row := range rows {
		// FNV row hashes of rows that differ only in a trailing counter
		// differ near-linearly, which makes a plain additive combine
		// collide (e.g. two group counts shifting by ±1). A murmur-style
		// finalizer destroys that structure before the commutative mix.
		rh := fmix64(value.HashRow(row))
		p.Sum += rh
		p.Mix += fmix64(rh ^ 0x9E3779B97F4A7C15)
	}
	return p
}

// Add returns the Parts of the multiset sum.
func (p Parts) Add(o Parts) Parts {
	return Parts{N: p.N + o.N, Sum: p.Sum + o.Sum, Mix: p.Mix + o.Mix}
}

// Sub returns the Parts of the signed multiset difference.
func (p Parts) Sub(o Parts) Parts {
	return Parts{N: p.N - o.N, Sum: p.Sum - o.Sum, Mix: p.Mix - o.Mix}
}

// Finish returns the unordered result hash of the multiset p describes.
func (p Parts) Finish() uint64 {
	return value.HashU64(value.HashU64(value.HashU64(value.HashSeed, p.N), p.Sum), p.Mix)
}

// fmix64 is the MurmurHash3 64-bit finalizer: a bijective avalanche mix.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Equal reports exact multiset (or sequence, when ordered) equality of two
// results. Column headers are ignored: the pricing framework compares the
// same query's output across neighboring instances.
func (r *Result) Equal(o *Result) bool {
	if len(r.Rows) != len(o.Rows) {
		return false
	}
	var ka, kb [128]byte
	if r.Ordered || o.Ordered {
		for i := range r.Rows {
			if string(value.AppendKey(ka[:0], r.Rows[i])) != string(value.AppendKey(kb[:0], o.Rows[i])) {
				return false
			}
		}
		return true
	}
	// Count r's rows per distinct key: a key string is allocated once per
	// distinct row, and every other lookup indexes with the reused buffer.
	ids := make(map[string]int, len(r.Rows))
	counts := make([]int, 0, len(r.Rows))
	key := ka[:0]
	for _, row := range r.Rows {
		key = value.AppendKey(key[:0], row)
		if id, ok := ids[string(key)]; ok {
			counts[id]++
			continue
		}
		ids[string(key)] = len(counts)
		counts = append(counts, 1)
	}
	for _, row := range o.Rows {
		key = value.AppendKey(key[:0], row)
		id, ok := ids[string(key)]
		if !ok || counts[id] == 0 {
			return false
		}
		counts[id]--
	}
	return true
}

// String renders the result as a small text table (for the CLI and
// examples).
func (r *Result) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Cols, " | "))
	sb.WriteString("\n")
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		sb.WriteString(strings.Join(parts, " | "))
		sb.WriteString("\n")
	}
	return sb.String()
}

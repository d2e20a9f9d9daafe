// Package value implements the typed SQL values used throughout qirana's
// relational engine and pricing framework: NULL, 64-bit integers, floats,
// strings, booleans and dates, together with SQL three-valued comparison
// logic, arithmetic, LIKE matching and stable hashing.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported SQL value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is an immutable SQL value. The zero Value is NULL.
//
// Dates are stored in I as days since 1970-01-01 so that date comparison
// and interval arithmetic reduce to integer operations.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{K: KindNull}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// NewDate returns a date value for the given civil date.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{K: KindDate, I: int64(t.Unix() / 86400)}
}

// NewDateDays returns a date value holding the given number of days since
// the Unix epoch.
func NewDateDays(days int64) Value { return Value{K: KindDate, I: days} }

// ParseDate parses a 'YYYY-MM-DD' literal.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("invalid date literal %q: %w", s, err)
	}
	return Value{K: KindDate, I: int64(t.Unix() / 86400)}, nil
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool reports the truth of a boolean value; NULL and non-booleans are false.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// AsFloat converts numeric values (int, float, bool, date) to float64.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindBool, KindDate:
		return float64(v.I)
	case KindFloat:
		return v.F
	}
	return 0
}

// AsInt converts numeric values to int64, truncating floats.
func (v Value) AsInt() int64 {
	if v.K == KindFloat {
		return int64(v.F)
	}
	return v.I
}

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool {
	return v.K == KindInt || v.K == KindFloat
}

// Time returns the civil time of a date value.
func (v Value) Time() time.Time {
	return time.Unix(v.I*86400, 0).UTC()
}

// String renders the value the way a query result would print it.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindDate:
		return v.Time().Format("2006-01-02")
	}
	return "?"
}

// SQL renders the value as a SQL literal.
func (v Value) SQL() string {
	switch v.K {
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindDate:
		return "date '" + v.Time().Format("2006-01-02") + "'"
	case KindFloat:
		// An integral float must not re-parse as an int: a point keeps it
		// a float literal (and apart from the int in Fingerprint).
		s := v.String()
		if !strings.ContainsAny(s, ".eIN") {
			s += ".0"
		}
		return s
	default:
		return v.String()
	}
}

// Compare orders two non-NULL values. Numeric kinds (int, float) compare
// numerically against each other; dates compare with ints/floats by their
// day number, mirroring permissive DBMS coercion. It returns -1, 0 or +1.
// Comparing NULL with anything returns 0 with ok=false.
func Compare(a, b Value) (cmp int, ok bool) {
	if a.K == KindNull || b.K == KindNull {
		return 0, false
	}
	// Same-kind fast paths.
	if a.K == b.K {
		switch a.K {
		case KindInt, KindBool, KindDate:
			return cmpInt(a.I, b.I), true
		case KindFloat:
			return cmpFloat(a.F, b.F), true
		case KindString:
			return strings.Compare(a.S, b.S), true
		}
	}
	// Cross-kind numeric coercion.
	an, bn := a.coercibleNumeric(), b.coercibleNumeric()
	if an && bn {
		return cmpFloat(a.AsFloat(), b.AsFloat()), true
	}
	// String vs numeric: try parsing the string (MySQL-style leniency).
	if a.K == KindString && bn {
		if f, err := strconv.ParseFloat(strings.TrimSpace(a.S), 64); err == nil {
			return cmpFloat(f, b.AsFloat()), true
		}
		return cmpInt(1, 0), true // non-numeric strings sort above numbers, arbitrarily but stably
	}
	if b.K == KindString && an {
		c, ok2 := Compare(b, a)
		return -c, ok2
	}
	// Fallback: order by kind to stay total.
	return cmpInt(int64(a.K), int64(b.K)), true
}

func (v Value) coercibleNumeric() bool {
	switch v.K {
	case KindInt, KindFloat, KindBool, KindDate:
		return true
	}
	return false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Equal reports SQL equality for two values under the total ordering used by
// Compare, treating NULL as equal only to NULL. This is the *grouping*
// notion of equality (as in GROUP BY / DISTINCT), not the 3VL predicate.
func Equal(a, b Value) bool {
	if a.K == KindNull || b.K == KindNull {
		return a.K == b.K
	}
	c, _ := Compare(a, b)
	return c == 0
}

// Tristate is a SQL three-valued logic truth value.
type Tristate int8

// The three SQL truth values.
const (
	False   Tristate = 0
	True    Tristate = 1
	Unknown Tristate = -1
)

// ToValue converts a Tristate to a SQL value (Unknown becomes NULL).
func (t Tristate) ToValue() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	}
	return Null
}

// TristateOf converts a value to a truth value: NULL is Unknown, booleans
// map directly, and numerics are true iff nonzero (MySQL-style).
func TristateOf(v Value) Tristate {
	switch v.K {
	case KindNull:
		return Unknown
	case KindBool, KindInt, KindDate:
		if v.I != 0 {
			return True
		}
		return False
	case KindFloat:
		if v.F != 0 {
			return True
		}
		return False
	case KindString:
		if v.S != "" {
			return True
		}
		return False
	}
	return Unknown
}

// And is Kleene conjunction.
func And(a, b Tristate) Tristate {
	if a == False || b == False {
		return False
	}
	if a == True && b == True {
		return True
	}
	return Unknown
}

// Or is Kleene disjunction.
func Or(a, b Tristate) Tristate {
	if a == True || b == True {
		return True
	}
	if a == False && b == False {
		return False
	}
	return Unknown
}

// Not is Kleene negation.
func Not(a Tristate) Tristate {
	switch a {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// Arith applies a SQL arithmetic operator (+ - * / %) with NULL propagation.
// Dates support date ± int (days); other operands are coerced to numeric.
func Arith(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	// Date arithmetic: date ± integer days.
	if a.K == KindDate && b.K == KindInt {
		switch op {
		case '+':
			return NewDateDays(a.I + b.I), nil
		case '-':
			return NewDateDays(a.I - b.I), nil
		}
	}
	if a.K == KindDate && b.K == KindDate && op == '-' {
		return NewInt(a.I - b.I), nil
	}
	if a.K == KindInt && b.K == KindInt && op != '/' {
		switch op {
		case '+':
			return NewInt(a.I + b.I), nil
		case '-':
			return NewInt(a.I - b.I), nil
		case '*':
			return NewInt(a.I * b.I), nil
		case '%':
			if b.I == 0 {
				return Null, nil
			}
			return NewInt(a.I % b.I), nil
		}
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch op {
	case '+':
		return NewFloat(af + bf), nil
	case '-':
		return NewFloat(af - bf), nil
	case '*':
		return NewFloat(af * bf), nil
	case '/':
		if bf == 0 {
			return Null, nil // SQL: division by zero yields NULL (MySQL default)
		}
		return NewFloat(af / bf), nil
	case '%':
		if bf == 0 {
			return Null, nil
		}
		return NewFloat(math.Mod(af, bf)), nil
	}
	return Null, fmt.Errorf("unknown arithmetic operator %q", string(op))
}

// AddMonths shifts a date by n calendar months (for INTERVAL 'n' MONTH).
func AddMonths(d Value, n int) Value {
	if d.K != KindDate {
		return Null
	}
	t := d.Time().AddDate(0, n, 0)
	return NewDate(t.Year(), t.Month(), t.Day())
}

// AddYears shifts a date by n calendar years.
func AddYears(d Value, n int) Value {
	if d.K != KindDate {
		return Null
	}
	t := d.Time().AddDate(n, 0, 0)
	return NewDate(t.Year(), t.Month(), t.Day())
}

// Like evaluates the SQL LIKE predicate with % and _ wildcards,
// case-insensitively (MySQL default collation behaviour).
func Like(s, pattern string) bool {
	return likeMatch(strings.ToLower(s), strings.ToLower(pattern))
}

func likeMatch(s, p string) bool {
	// Iterative matcher with backtracking on the last '%' seen.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, sBack = pi, si
			pi++
		case star >= 0:
			sBack++
			si, pi = sBack, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// Hash returns a stable 64-bit hash of the value. Integers, equal-valued
// floats and dates that compare equal hash equally where feasible: integral
// floats hash as their integer value so that cross-kind equal numerics
// collide as required by Equal.
func (v Value) Hash() uint64 {
	return v.HashInto(HashSeed)
}

// HashSeed is the initial state of the FNV-1a hash that HashInto, HashRow
// and HashU64 extend: the offset basis of hash/fnv's New64a.
const HashSeed = 14695981039346656037

// fnvPrime is FNV-1a's 64-bit prime.
const fnvPrime = 1099511628211

// HashInto folds the value's canonical bytes (the bytes Key writes for
// it) into the FNV-1a state h and returns the new state.
func (v Value) HashInto(h uint64) uint64 {
	if v.K != KindString {
		var buf [9]byte
		return hashBytes(h, v.appendKey(buf[:0]))
	}
	h = hashByte(h, 3)
	if !isASCII(v.S) {
		h = hashBytes(h, []byte(strings.ToLower(v.S)))
	} else {
		for i := 0; i < len(v.S); i++ {
			h = hashByte(h, lowerASCII(v.S[i]))
		}
	}
	return hashByte(h, 0xFF)
}

func hashByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime }

func hashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = hashByte(h, c)
	}
	return h
}

// HashU64 folds the 8 little-endian bytes of v into the FNV-1a state h.
func HashU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(v>>(8*i)))
	}
	return h
}

// HashRow hashes a tuple of values: FNV-1a over the canonical bytes of
// each value in turn.
func HashRow(row []Value) uint64 {
	h := uint64(HashSeed)
	for _, v := range row {
		h = v.HashInto(h)
	}
	return h
}

// Key renders a tuple as a canonical string usable as a map key (used for
// primary-key indexes and group-by keys). It is the string of AppendKey's
// bytes, encoded in a stack buffer that fits most keys; a loop that only
// looks keys up should append into a buffer of its own and index with
// m[string(buf)], which does not allocate.
func Key(vals []Value) string {
	var buf [64]byte
	return string(AppendKey(buf[:0], vals))
}

// AppendKey appends the canonical key bytes of a tuple to dst and returns
// the extended buffer. Per value: a kind tag, then 8 little-endian bytes
// for ints, booleans, dates and floats (an integral float below 1e18 as
// the int it equals, so it keys like that int), or, for a string, its
// lower-cased bytes and a 0xFF terminator. NULL is the tag alone.
func AppendKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = v.appendKey(dst)
	}
	return dst
}

func (v Value) appendKey(dst []byte) []byte {
	switch v.K {
	case KindNull:
		dst = append(dst, 0)
	case KindInt, KindBool, KindDate:
		dst = appendInt64(append(dst, 1), v.I)
	case KindFloat:
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e18 {
			dst = appendInt64(append(dst, 1), int64(v.F))
		} else {
			dst = appendInt64(append(dst, 2), int64(math.Float64bits(v.F)))
		}
	case KindString:
		dst = appendLower(append(dst, 3), v.S)
		dst = append(dst, 0xFF)
	}
	return dst
}

func appendInt64(b []byte, v int64) []byte {
	u := uint64(v)
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// appendLower appends strings.ToLower(s): ASCII is lower-cased inline,
// and a string with any byte of 0x80 or above goes through
// strings.ToLower, whose Unicode mapping may change its length.
func appendLower(dst []byte, s string) []byte {
	if !isASCII(s) {
		return append(dst, strings.ToLower(s)...)
	}
	for i := 0; i < len(s); i++ {
		dst = append(dst, lowerASCII(s[i]))
	}
	return dst
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

package value

import (
	"bytes"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// refKey is the strings.Builder rendering Key had before AppendKey: the
// byte layout every cache key, group key and primary-key index depends on.
func refKey(vals []Value) string {
	var sb strings.Builder
	for _, v := range vals {
		switch v.K {
		case KindNull:
			sb.WriteByte(0)
		case KindInt, KindBool, KindDate:
			sb.WriteByte(1)
			var b [8]byte
			putInt64(b[:], v.I)
			sb.Write(b[:])
		case KindFloat:
			if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e18 {
				sb.WriteByte(1)
				var b [8]byte
				putInt64(b[:], int64(v.F))
				sb.Write(b[:])
			} else {
				sb.WriteByte(2)
				var b [8]byte
				putInt64(b[:], int64(math.Float64bits(v.F)))
				sb.Write(b[:])
			}
		case KindString:
			sb.WriteByte(3)
			sb.WriteString(strings.ToLower(v.S))
			sb.WriteByte(0xFF)
		}
	}
	return sb.String()
}

// refHashRow is the hash/fnv HashRow had before the inline FNV-1a: the
// bits Result.Hash, and with it every entropy price, depend on.
func refHashRow(row []Value) uint64 {
	h := fnv.New64a()
	for _, v := range row {
		var buf [9]byte
		switch v.K {
		case KindNull:
			h.Write(buf[:1])
		case KindInt, KindBool, KindDate:
			buf[0] = 1
			putInt64(buf[1:], v.I)
			h.Write(buf[:9])
		case KindFloat:
			if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e18 {
				buf[0] = 1
				putInt64(buf[1:], int64(v.F))
			} else {
				buf[0] = 2
				putInt64(buf[1:], int64(math.Float64bits(v.F)))
			}
			h.Write(buf[:9])
		case KindString:
			buf[0] = 3
			h.Write(buf[:1])
			h.Write([]byte(strings.ToLower(v.S)))
			buf[0] = 0xFF
			h.Write(buf[:1])
		}
	}
	return h.Sum64()
}

func putInt64(b []byte, v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

// keyRow is a random tuple for testing/quick, drawn from the corners the
// key and hash encodings must get right.
type keyRow []Value

var keyStrings = []string{"", "a", "Abc", "ABC", "MiXeD case 42", "İ", "ẞ", "Åland",
	"straße", "ΣΑΣ", "ǅ", "K", "日本語", "a\x00b", "\xff\xfe", strings.Repeat("Long ", 40)}

var keyFloats = []float64{0, math.Copysign(0, -1), 1, -1, 2.5, -7.25, 1e18, -1e18, 1e17,
	1e300, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1), math.Pi}

func (keyRow) Generate(r *rand.Rand, size int) reflect.Value {
	row := make(keyRow, r.Intn(5))
	for i := range row {
		switch r.Intn(8) {
		case 0:
			row[i] = Null
		case 1:
			row[i] = NewInt(r.Int63() - r.Int63())
		case 2:
			row[i] = NewBool(r.Intn(2) == 0)
		case 3:
			row[i] = NewDateDays(int64(r.Intn(40000)) - 20000)
		case 4:
			row[i] = NewFloat(keyFloats[r.Intn(len(keyFloats))])
		case 5:
			row[i] = NewFloat(r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20)))
		case 6:
			row[i] = NewString(keyStrings[r.Intn(len(keyStrings))])
		default:
			b := make([]byte, r.Intn(12))
			for j := range b {
				b[j] = byte(r.Intn(256))
			}
			row[i] = NewString(string(b))
		}
	}
	return reflect.ValueOf(row)
}

// Property: AppendKey, Key and HashRow are byte-for-byte the encodings the
// strings.Builder and hash/fnv implementations produced, for every value
// kind, including floats at the integral/non-integral boundary, −0, NaN,
// ±Inf and strings whose lower-casing changes their byte length.
func TestQuickKeyAndHashMatchReference(t *testing.T) {
	f := func(row keyRow, prefix []byte) bool {
		want := refKey(row)
		got := AppendKey(append([]byte(nil), prefix...), row)
		return bytes.Equal(got[:len(prefix)], prefix) && string(got[len(prefix):]) == want &&
			Key(row) == want && HashRow(row) == refHashRow(row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, s := range keyStrings {
		row := []Value{NewString(s)}
		if Key(row) != refKey(row) || HashRow(row) != refHashRow(row) || row[0].Hash() != refHashRow(row) {
			t.Errorf("%q: key %q, want %q", s, Key(row), refKey(row))
		}
	}
}

// Property: HashU64 folds a word exactly as hash/fnv's New64a does its 8
// little-endian bytes, the encoding Result.Hash and Parts.Finish used.
func TestQuickHashU64MatchesFNV(t *testing.T) {
	f := func(vs []uint64) bool {
		ref := fnv.New64a()
		h := uint64(HashSeed)
		for _, v := range vs {
			var b [8]byte
			putInt64(b[:], int64(v))
			ref.Write(b[:])
			h = HashU64(h, v)
		}
		return h == ref.Sum64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

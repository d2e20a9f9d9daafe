package support

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"qirana/internal/storage"
	"qirana/internal/value"
)

// Persistence of neighborhood support sets. The paper stores the update
// and undo statements in two database tables (UpdateQueries /
// UndoUpdateQueries, §3.2) so the support set survives across sessions;
// here the updates serialize to JSON. A reloaded set must be paired with
// the same database instance — Load verifies the old values still match.
//
// On-disk framing (v2): a magic header line carrying the format version
// and a CRC32 of the JSON payload —
//
//	QIRSUP v2 crc32=xxxxxxxx\n{...json...}
//
// so a truncated, bit-rotted or future-format file fails with a
// descriptive error instead of garbage-decoding into wrong prices. Load
// reads only this format.

// supportMagic heads the versioned envelope.
const supportMagic = "QIRSUP"

// supportVersion is the current envelope version.
const supportVersion = 2

// jsonValue is the wire form of a value.Value.
type jsonValue struct {
	K string  `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
}

func toJSONValue(v value.Value) jsonValue {
	switch v.K {
	case value.KindNull:
		return jsonValue{K: "null"}
	case value.KindInt:
		return jsonValue{K: "int", I: v.I}
	case value.KindFloat:
		return jsonValue{K: "float", F: v.F}
	case value.KindString:
		return jsonValue{K: "string", S: v.S}
	case value.KindBool:
		return jsonValue{K: "bool", I: v.I}
	case value.KindDate:
		return jsonValue{K: "date", I: v.I}
	}
	return jsonValue{K: "null"}
}

func fromJSONValue(j jsonValue) (value.Value, error) {
	switch j.K {
	case "null":
		return value.Null, nil
	case "int":
		return value.NewInt(j.I), nil
	case "float":
		return value.NewFloat(j.F), nil
	case "string":
		return value.NewString(j.S), nil
	case "bool":
		return value.NewBool(j.I != 0), nil
	case "date":
		return value.NewDateDays(j.I), nil
	}
	return value.Null, fmt.Errorf("unknown value kind %q", j.K)
}

type jsonUpdate struct {
	ID    int         `json:"id"`
	Rel   string      `json:"rel"`
	Swap  bool        `json:"swap,omitempty"`
	Row1  int         `json:"row1"`
	Row2  int         `json:"row2,omitempty"`
	Attrs []int       `json:"attrs"`
	Old1  []jsonValue `json:"old1"`
	New1  []jsonValue `json:"new1"`
	Old2  []jsonValue `json:"old2,omitempty"`
	New2  []jsonValue `json:"new2,omitempty"`
}

type jsonSet struct {
	Version int          `json:"version"`
	Updates []jsonUpdate `json:"updates"`
}

// Save writes a neighborhood support set to w as JSON. Uniform sets (full
// materialized instances) are intentionally not supported — the paper
// stores only update-based sets, and materialized instances would dwarf
// the database itself.
func (s *Set) Save(w io.Writer) error {
	if s.Updates == nil {
		return fmt.Errorf("only neighborhood (update-based) support sets can be saved")
	}
	out := jsonSet{Version: 1, Updates: make([]jsonUpdate, len(s.Updates))}
	for i, u := range s.Updates {
		ju := jsonUpdate{ID: u.ID, Rel: u.Rel, Swap: u.Swap, Row1: u.Row1, Row2: u.Row2, Attrs: u.Attrs}
		for j := range u.Attrs {
			ju.Old1 = append(ju.Old1, toJSONValue(u.Old1[j]))
			ju.New1 = append(ju.New1, toJSONValue(u.New1[j]))
			if u.Swap {
				ju.Old2 = append(ju.Old2, toJSONValue(u.Old2[j]))
				ju.New2 = append(ju.New2, toJSONValue(u.New2[j]))
			}
		}
		out.Updates[i] = ju
	}
	payload, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode support set: %w", err)
	}
	if _, err := fmt.Fprintf(w, "%s v%d crc32=%08x\n", supportMagic, supportVersion, crc32.ChecksumIEEE(payload)); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// Load reads a support set saved by Save and validates it against db:
// every update's old values must match the instance, so a set saved for a
// different (or since-modified) database is rejected rather than silently
// producing wrong prices.
func Load(r io.Reader, db *storage.Database) (*Set, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("read support set: %w", err)
	}
	payload, err := unwrapEnvelope(data)
	if err != nil {
		return nil, err
	}
	var in jsonSet
	if err := json.Unmarshal(payload, &in); err != nil {
		return nil, fmt.Errorf("decode support set: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("unsupported support set version %d", in.Version)
	}
	set := &Set{}
	for _, ju := range in.Updates {
		t := db.Table(ju.Rel)
		if t == nil {
			return nil, fmt.Errorf("update %d: unknown relation %q", ju.ID, ju.Rel)
		}
		if ju.Row1 < 0 || ju.Row1 >= t.Len() || (ju.Swap && (ju.Row2 < 0 || ju.Row2 >= t.Len())) {
			return nil, fmt.Errorf("update %d: row out of range for %s", ju.ID, ju.Rel)
		}
		u := &Update{ID: ju.ID, Rel: ju.Rel, Swap: ju.Swap, Row1: ju.Row1, Row2: ju.Row2, Attrs: ju.Attrs}
		for j, a := range ju.Attrs {
			if a < 0 || a >= t.Rel.Arity() {
				return nil, fmt.Errorf("update %d: attribute %d out of range", ju.ID, a)
			}
			if t.Rel.IsKeyAttr(a) {
				return nil, fmt.Errorf("update %d: touches key attribute %d of %s", ju.ID, a, ju.Rel)
			}
			o1, err := fromJSONValue(ju.Old1[j])
			if err != nil {
				return nil, err
			}
			n1, err := fromJSONValue(ju.New1[j])
			if err != nil {
				return nil, err
			}
			if !value.Equal(t.Get(ju.Row1, a), o1) {
				return nil, fmt.Errorf("update %d: database drifted (row %d attr %d is %s, set expects %s)",
					ju.ID, ju.Row1, a, t.Get(ju.Row1, a), o1)
			}
			u.Old1 = append(u.Old1, o1)
			u.New1 = append(u.New1, n1)
			if ju.Swap {
				o2, err := fromJSONValue(ju.Old2[j])
				if err != nil {
					return nil, err
				}
				n2, err := fromJSONValue(ju.New2[j])
				if err != nil {
					return nil, err
				}
				if !value.Equal(t.Get(ju.Row2, a), o2) {
					return nil, fmt.Errorf("update %d: database drifted on swap row %d", ju.ID, ju.Row2)
				}
				u.Old2 = append(u.Old2, o2)
				u.New2 = append(u.New2, n2)
			}
		}
		u.Resolve(db)
		set.Updates = append(set.Updates, u)
		set.Elements = append(set.Elements, u)
	}
	return set, nil
}

// unwrapEnvelope strips and verifies the versioned header.
func unwrapEnvelope(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("support set file is empty")
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || !bytes.HasPrefix(data, []byte(supportMagic+" ")) {
		return nil, fmt.Errorf("not a qirana support set (bad header; want %q)", supportMagic)
	}
	header := string(data[:nl+1])
	var version int
	var sum uint32
	if _, err := fmt.Sscanf(header, supportMagic+" v%d crc32=%08x\n", &version, &sum); err != nil {
		return nil, fmt.Errorf("not a qirana support set (malformed header %q)", header)
	}
	if version > supportVersion {
		return nil, fmt.Errorf("support set is format v%d, newer than this binary (supports ≤ v%d); upgrade qirana to read it",
			version, supportVersion)
	}
	payload := data[nl+1:]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("support set payload checksum %08x does not match header %08x — the file is truncated or damaged",
			got, sum)
	}
	return payload, nil
}

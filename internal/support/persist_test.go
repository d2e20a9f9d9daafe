package support

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"qirana/internal/value"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t, 40, 3)
	set, err := GenerateNeighborhood(db, DefaultConfig(120, 9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, db)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != set.Size() {
		t.Fatalf("size: %d vs %d", loaded.Size(), set.Size())
	}
	for i := range set.Updates {
		if set.Updates[i].signature() != loaded.Updates[i].signature() {
			t.Fatalf("update %d differs after round trip", i)
		}
	}
	// The loaded set behaves identically: apply/undo restores the db.
	before := snapshot(db)
	for _, el := range loaded.Elements {
		el.Apply(db)
		el.Undo(db)
	}
	if !equalSnapshot(before, snapshot(db)) {
		t.Fatal("loaded set corrupted the database")
	}
}

func TestLoadDetectsDrift(t *testing.T) {
	db := testDB(t, 20, 4)
	set, err := GenerateNeighborhood(db, DefaultConfig(50, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Mutate the database out-of-band: a non-key cell some update recorded.
	u := set.Updates[0]
	db.Table(u.Rel).Set(u.Row1, u.Attrs[0], value.NewInt(987654))
	if _, err := Load(&buf, db); err == nil || !strings.Contains(err.Error(), "drifted") {
		t.Fatalf("drift undetected: %v", err)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	db1 := testDB(t, 20, 4)
	set, err := GenerateNeighborhood(db1, DefaultConfig(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Smaller database: row indexes overflow.
	db2 := testDB(t, 3, 4)
	if _, err := Load(&buf, db2); err == nil {
		t.Fatal("mismatched database accepted")
	}
}

func TestSaveRejectsUniform(t *testing.T) {
	db := testDB(t, 10, 4)
	set, err := GenerateUniform(db, DefaultConfig(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Save(&buf); err == nil {
		t.Fatal("uniform sets must not be saveable")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	db := testDB(t, 10, 4)
	if _, err := Load(strings.NewReader("not json"), db); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(enveloped(`{"version":9,"updates":[]}`), db); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := Load(enveloped(`{"version":1,"updates":[{"id":0,"rel":"ghost","row1":0,"attrs":[1],"old1":[{"k":"int"}],"new1":[{"k":"int","i":1}]}]}`), db); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

// enveloped frames a JSON payload in a valid v2 header, so the payload's
// own validation is what a test exercises.
func enveloped(payload string) io.Reader {
	return strings.NewReader(fmt.Sprintf("%s v%d crc32=%08x\n%s", supportMagic, supportVersion, crc32.ChecksumIEEE([]byte(payload)), payload))
}

// TestLoadRejectsBareJSON: a headerless bare-JSON file — the payload of
// a fresh Save without its envelope line — fails with the bad-header
// error rather than loading unchecked.
func TestLoadRejectsBareJSON(t *testing.T) {
	db := testDB(t, 30, 3)
	set, err := GenerateNeighborhood(db, DefaultConfig(60, 7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 || data[0] == '{' {
		t.Fatalf("Save no longer writes the versioned envelope: %q", data[:min(len(data), 40)])
	}
	_, err = Load(bytes.NewReader(data[nl+1:]), db)
	if err == nil || !strings.Contains(err.Error(), "bad header") {
		t.Fatalf("bare-JSON file: err = %v, want the bad-header error", err)
	}
}

// TestLoadDetectsEnvelopeCorruption: a flipped payload byte or truncated
// file fails the checksum with a descriptive error instead of decoding
// garbage; a future envelope version names the upgrade path.
func TestLoadDetectsEnvelopeCorruption(t *testing.T) {
	db := testDB(t, 30, 3)
	set, err := GenerateNeighborhood(db, DefaultConfig(60, 7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-3] ^= 0x20
	if _, err := Load(bytes.NewReader(flipped), db); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("flipped byte: err=%v, want checksum error", err)
	}

	truncated := good[:len(good)-10]
	if _, err := Load(bytes.NewReader(truncated), db); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("truncated file: err=%v, want checksum error", err)
	}

	future := []byte("QIRSUP v9 crc32=00000000\n{}")
	if _, err := Load(bytes.NewReader(future), db); err == nil || !strings.Contains(err.Error(), "newer than this binary") {
		t.Fatalf("future version: err=%v, want newer-format error", err)
	}

	if _, err := Load(bytes.NewReader(nil), db); err == nil {
		t.Fatal("empty file accepted")
	}
}

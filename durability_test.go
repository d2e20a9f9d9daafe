package qirana

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qirana/internal/durable"
	"qirana/internal/failpoint"
)

// The durability suite's ground truth is a "twin": an in-memory broker
// with the same seed and support size that never crashes. Sampling is
// deterministic and snapshot weights round-trip exactly through JSON, so
// a recovered broker must match its twin bit-for-bit — quotes, balances
// and refund behavior — not merely within epsilon.

var durOpts = Options{SupportSetSize: 60, Seed: 5}

type purchase struct {
	buyer  string
	sql    string
	refund bool
}

// durPurchases overlap on purpose: purchase 2 re-buys information alice
// already owns (its refund is the interesting part of the money trail),
// and three buyers interleave so per-buyer histories and the global
// ledger order are distinct.
var durPurchases = []purchase{
	{"alice", "SELECT Continent FROM Country", false},
	{"bob", "SELECT Name FROM Country WHERE Continent = 'Asia'", false},
	{"alice", "SELECT Continent, count(*) FROM Country GROUP BY Continent", true},
	{"bob", "SELECT * FROM CountryLanguage", false},
	{"carol", "SELECT count(*) FROM Country WHERE Continent = 'Asia'", true},
	{"alice", "SELECT * FROM Country", false},
}

var durProbes = []string{
	"SELECT Name FROM Country WHERE ID < 10",
	"SELECT Continent, count(*) FROM Country GROUP BY Continent",
	"SELECT * FROM CountryLanguage",
}

func durBuyers() []string { return []string{"alice", "bob", "carol"} }

func durDB(t *testing.T) *Database {
	t.Helper()
	db, err := LoadDataset("world", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func doPurchase(t *testing.T, b *Broker, p purchase) (*Receipt, error) {
	t.Helper()
	return b.Purchase(context.Background(), PurchaseRequest{Buyer: p.buyer, SQL: p.sql, Refund: p.refund})
}

// twinAt builds a never-crashed in-memory broker and applies the first k
// purchases.
func twinAt(t *testing.T, db *Database, k int) *Broker {
	t.Helper()
	tw, err := NewBroker(db, 100, durOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		if _, err := doPurchase(t, tw, durPurchases[i]); err != nil {
			t.Fatalf("twin purchase %d: %v", i, err)
		}
	}
	return tw
}

// balancesEqual reports whether the brokers agree bit-for-bit on every
// buyer's cumulative payment.
func balancesEqual(a, b *Broker) bool {
	for _, buyer := range durBuyers() {
		if a.TotalPaid(buyer) != b.TotalPaid(buyer) {
			return false
		}
	}
	return true
}

// assertTwinEqual pins the recovered broker to its twin: balances, probe
// quotes, and the receipts of every remaining purchase must be
// bit-identical.
func assertTwinEqual(t *testing.T, recovered, tw *Broker, from int) {
	t.Helper()
	for _, buyer := range durBuyers() {
		if got, want := recovered.TotalPaid(buyer), tw.TotalPaid(buyer); got != want {
			t.Fatalf("buyer %s: recovered balance %v, twin %v", buyer, got, want)
		}
	}
	for _, sql := range durProbes {
		got, err := quote(recovered, sql)
		if err != nil {
			t.Fatalf("recovered quote %q: %v", sql, err)
		}
		want, err := quote(tw, sql)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("quote %q: recovered %v, twin %v", sql, got, want)
		}
	}
	for i := from; i < len(durPurchases); i++ {
		gr, err := doPurchase(t, recovered, durPurchases[i])
		if err != nil {
			t.Fatalf("recovered purchase %d: %v", i, err)
		}
		wr, err := doPurchase(t, tw, durPurchases[i])
		if err != nil {
			t.Fatalf("twin purchase %d: %v", i, err)
		}
		if gr.Gross != wr.Gross || gr.Refund != wr.Refund || gr.Net != wr.Net || gr.Balance != wr.Balance {
			t.Fatalf("purchase %d receipts diverge after recovery:\nrecovered %+v\ntwin      %+v", i, gr, wr)
		}
	}
}

func durableBroker(t *testing.T, db *Database, dir string) *Broker {
	t.Helper()
	opt := durOpts
	opt.DataDir = dir
	b, err := NewBroker(db, 100, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDurableBrokerSurvivesSIGKILL is the core restart story: a broker
// is abandoned mid-life without Close (the in-process equivalent of
// SIGKILL — no flush, no checkpoint) and OpenBroker restores prices AND
// balances a plain support-set reload would lose.
func TestDurableBrokerSurvivesSIGKILL(t *testing.T) {
	db := durDB(t)
	dir := t.TempDir()
	b1 := durableBroker(t, db, dir)
	for i := 0; i < 4; i++ {
		if _, err := doPurchase(t, b1, durPurchases[i]); err != nil {
			t.Fatal(err)
		}
	}
	// SIGKILL: b1 is simply never used again. Every purchase was
	// fsynced before it was acknowledged, so the ledger is complete.
	rec, err := OpenBroker(dir, db, 0, durOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	info := rec.Durability()
	if !info.Enabled || info.ReplayedRecords != 4 || info.TruncatedTail {
		t.Fatalf("recovery info: %+v, want 4 replayed, no truncation", info)
	}
	assertTwinEqual(t, rec, twinAt(t, db, 4), 4)
}

// TestDurableCleanShutdownAndReopen: Close checkpoints, so the next open
// replays nothing; state still matches the twin exactly.
func TestDurableCleanShutdownAndReopen(t *testing.T) {
	db := durDB(t)
	dir := t.TempDir()
	b1 := durableBroker(t, db, dir)
	for i := 0; i < 3; i++ {
		if _, err := doPurchase(t, b1, durPurchases[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := doPurchase(t, b1, durPurchases[3]); !errors.Is(err, ErrDurability) {
		t.Fatalf("purchase on closed broker: %v, want ErrDurability", err)
	}
	rec, err := OpenBroker(dir, db, 0, durOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	info := rec.Durability()
	if info.ReplayedRecords != 0 || info.SnapshotSeq != 3 || info.TailRecords != 0 {
		t.Fatalf("after clean shutdown: %+v, want snapshot_seq 3 and empty tail", info)
	}
	assertTwinEqual(t, rec, twinAt(t, db, 3), 3)
}

// TestCrashMatrixLedger walks an injected fault through every ledger
// failpoint at every purchase position, kills the broker at the fault,
// recovers, and pins the recovered broker to the twin. The expected
// recovery point is determined by WHERE the fault hit: before the write
// or mid-write, the purchase is lost (and a torn tail is dropped); after
// the write, it is durable and replays even though the caller saw an
// error — the standard ambiguous-outcome window of any WAL.
func TestCrashMatrixLedger(t *testing.T) {
	db := durDB(t)
	cases := []struct {
		fp      string
		arm     func(k int)
		durable bool // the in-flight purchase survives recovery
		torn    bool // recovery must report a truncated tail
	}{
		{durable.FpLedgerAppend, func(k int) { failpoint.EnableAfter(durable.FpLedgerAppend, nil, k) }, false, false},
		{durable.FpLedgerWrite + "/short", func(k int) { failpoint.EnableShortWriteAfter(durable.FpLedgerWrite, 13, nil, k) }, false, true},
		{durable.FpLedgerWrite + "/none", func(k int) { failpoint.EnableAfter(durable.FpLedgerWrite, nil, k) }, false, false},
		{durable.FpLedgerFsync, func(k int) { failpoint.EnableAfter(durable.FpLedgerFsync, nil, k) }, true, false},
		{durable.FpLedgerAck, func(k int) { failpoint.EnableAfter(durable.FpLedgerAck, nil, k) }, true, false},
	}
	for _, tc := range cases {
		for k := 0; k < len(durPurchases); k++ {
			t.Run(fmt.Sprintf("%s/purchase-%d", tc.fp, k), func(t *testing.T) {
				failpoint.Reset()
				t.Cleanup(failpoint.Reset)
				dir := t.TempDir()
				b := durableBroker(t, db, dir)
				tc.arm(k)
				for i := 0; i < len(durPurchases); i++ {
					_, err := doPurchase(t, b, durPurchases[i])
					if i < k && err != nil {
						t.Fatalf("purchase %d failed before the armed fault: %v", i, err)
					}
					if i == k {
						if !errors.Is(err, ErrDurability) {
							t.Fatalf("faulted purchase %d: err=%v, want ErrDurability", k, err)
						}
						break // the process "dies" here
					}
				}
				rec, err := OpenBroker(dir, db, 0, durOpts)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				defer rec.Close()
				info := rec.Durability()
				if info.TruncatedTail != tc.torn {
					t.Fatalf("truncated tail = %v, want %v (info %+v)", info.TruncatedTail, tc.torn, info)
				}
				applied := k
				if tc.durable {
					applied = k + 1
				}
				if info.ReplayedRecords != applied {
					t.Fatalf("replayed %d records, want %d", info.ReplayedRecords, applied)
				}
				assertTwinEqual(t, rec, twinAt(t, db, applied), applied)
			})
		}
	}
}

// TestCrashMatrixSnapshot arms each snapshot-path failpoint, checkpoints
// after k purchases (the checkpoint fails), kills the broker, and
// recovers: no purchase may be lost or doubled regardless of which stage
// of the atomic snapshot protocol died. The post-rename faults leave the
// NEW snapshot installed with stale ledger records below its sequence —
// the replay-skip window — and must recover identically.
func TestCrashMatrixSnapshot(t *testing.T) {
	db := durDB(t)
	fps := []string{
		durable.FpSnapshotWrite,
		durable.FpSnapshotFsync,
		durable.FpSnapshotRename,
		durable.FpSnapshotDirSync,
		durable.FpLedgerReset,
	}
	for _, fp := range fps {
		for k := 1; k <= 3; k++ {
			t.Run(fmt.Sprintf("%s/after-%d", fp, k), func(t *testing.T) {
				failpoint.Reset()
				t.Cleanup(failpoint.Reset)
				dir := t.TempDir()
				b := durableBroker(t, db, dir)
				for i := 0; i < k; i++ {
					if _, err := doPurchase(t, b, durPurchases[i]); err != nil {
						t.Fatal(err)
					}
				}
				failpoint.Enable(fp, nil)
				if err := b.Checkpoint(); !errors.Is(err, ErrDurability) {
					t.Fatalf("faulted checkpoint: err=%v, want ErrDurability", err)
				}
				rec, err := OpenBroker(dir, db, 0, durOpts)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				defer rec.Close()
				assertTwinEqual(t, rec, twinAt(t, db, k), k)
			})
		}
	}
}

// TestBrokerLedgerTruncationMatrix truncates a real broker ledger at
// EVERY byte offset and recovers: each recovery must replay an exact
// prefix of the purchase history (bit-identical balances to the twin at
// that prefix) — never an error, never a panic, never an invented
// purchase — and the replayed count must grow monotonically with the
// preserved length.
func TestBrokerLedgerTruncationMatrix(t *testing.T) {
	db := durDB(t)
	base := t.TempDir()
	b := durableBroker(t, db, base)
	// Balances after each purchase prefix, from the live receipts.
	paidAt := make([]map[string]float64, len(durPurchases)+1)
	paidAt[0] = map[string]float64{}
	for _, buyer := range durBuyers() {
		paidAt[0][buyer] = 0
	}
	for i, p := range durPurchases {
		if _, err := doPurchase(t, b, p); err != nil {
			t.Fatal(err)
		}
		m := map[string]float64{}
		for _, buyer := range durBuyers() {
			m[buyer] = b.TotalPaid(buyer)
		}
		paidAt[i+1] = m
	}
	probeWant := make([]float64, len(durProbes))
	for i, sql := range durProbes {
		p, err := quote(b, sql)
		if err != nil {
			t.Fatal(err)
		}
		probeWant[i] = p
	}
	// SIGKILL b; grab the raw files.
	ledger, err := os.ReadFile(filepath.Join(base, "ledger.wal"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(base, "snapshot.qs"))
	if err != nil {
		t.Fatal(err)
	}

	lastK := -1
	for cut := 0; cut <= len(ledger); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snapshot.qs"), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "ledger.wal"), ledger[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := OpenBroker(dir, db, 0, durOpts)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		k := rec.Durability().ReplayedRecords
		if k < lastK || k > len(durPurchases) {
			t.Fatalf("cut=%d: replayed %d records (previous cut replayed %d)", cut, k, lastK)
		}
		for _, buyer := range durBuyers() {
			if got, want := rec.TotalPaid(buyer), paidAt[k][buyer]; got != want {
				t.Fatalf("cut=%d: buyer %s balance %v, want %v (prefix %d)", cut, buyer, got, want, k)
			}
		}
		if k != lastK {
			// Quotes are history-independent; checking once per distinct
			// prefix keeps the matrix fast.
			for i, sql := range durProbes {
				got, qerr := quote(rec, sql)
				if qerr != nil {
					t.Fatalf("cut=%d: quote: %v", cut, qerr)
				}
				if got != probeWant[i] {
					t.Fatalf("cut=%d: quote %q = %v, want %v", cut, sql, got, probeWant[i])
				}
			}
			lastK = k
		}
		rec.Close()
	}
	if lastK != len(durPurchases) {
		t.Fatalf("full ledger replayed %d records, want %d", lastK, len(durPurchases))
	}
}

// TestRecoveryRejectsMidLogCorruption: a flipped byte in the middle of
// the ledger must fail recovery with the documented corruption error —
// never silently drop or invent purchases.
func TestRecoveryRejectsMidLogCorruption(t *testing.T) {
	db := durDB(t)
	dir := t.TempDir()
	b := durableBroker(t, db, dir)
	for i := 0; i < 4; i++ {
		if _, err := doPurchase(t, b, durPurchases[i]); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "ledger.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40 // inside an early record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenBroker(dir, db, 0, durOpts)
	if !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("mid-log corruption: err=%v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "mid-log") {
		t.Fatalf("error %q does not identify mid-log corruption", err)
	}
}

// TestNewBrokerRefusesExistingState: pointing a FRESH broker at a
// predecessor's DataDir must error instead of zeroing buyer balances —
// the exact failure mode this PR exists to prevent.
func TestNewBrokerRefusesExistingState(t *testing.T) {
	db := durDB(t)
	dir := t.TempDir()
	b := durableBroker(t, db, dir)
	if _, err := doPurchase(t, b, durPurchases[0]); err != nil {
		t.Fatal(err)
	}
	opt := durOpts
	opt.DataDir = dir
	if _, err := NewBroker(db, 100, opt); err == nil || !strings.Contains(err.Error(), "OpenBroker") {
		t.Fatalf("NewBroker over live state: err=%v, want refusal pointing at OpenBroker", err)
	}
}

// TestDurableSetWeightsCheckpointsBeforeLogging: weight changes snapshot
// immediately, so purchases under the new epoch recover correctly.
func TestDurableSetWeightsCheckpointsBeforeLogging(t *testing.T) {
	db := durDB(t)
	dir := t.TempDir()
	b := durableBroker(t, db, dir)
	if _, err := doPurchase(t, b, durPurchases[0]); err != nil {
		t.Fatal(err)
	}
	// Skewed (but valid) weights: first element heavy, rest uniform.
	n := b.SupportSetSize()
	w := make([]float64, n)
	rest := (100.0 - 10.0) / float64(n-1)
	for i := range w {
		w[i] = rest
	}
	w[0] = 10.0
	if err := b.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if _, err := doPurchase(t, b, durPurchases[1]); err != nil {
		t.Fatal(err)
	}
	// SIGKILL, recover, and compare against a twin given the same
	// weight schedule.
	rec, err := OpenBroker(dir, db, 0, durOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	tw := twinAt(t, db, 1)
	if err := tw.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if _, err := doPurchase(t, tw, durPurchases[1]); err != nil {
		t.Fatal(err)
	}
	assertTwinEqual(t, rec, tw, 2)
}

// TestDurabilityOffIsFree: with DataDir unset no durability code runs,
// no files appear, and Durability reports disabled.
func TestDurabilityOffIsFree(t *testing.T) {
	db := durDB(t)
	b, err := NewBroker(db, 100, durOpts)
	if err != nil {
		t.Fatal(err)
	}
	if info := b.Durability(); info.Enabled {
		t.Fatalf("in-memory broker reports durability enabled: %+v", info)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := doPurchase(t, b, durPurchases[0]); err != nil {
		t.Fatalf("in-memory purchase after (no-op) Close: %v", err)
	}
}

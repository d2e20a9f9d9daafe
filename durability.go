package qirana

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"qirana/internal/durable"
	"qirana/internal/pricing"
	"qirana/internal/sqlengine/exec"
	"qirana/internal/support"
)

// This file is the broker's durability layer: QIRANA's arbitrage-freeness
// is history-dependent (refunds and §5's history-aware pricing are only
// arbitrage-free while the buyer ledger is intact), so with
// Options.DataDir set the broker write-ahead-logs every purchase before
// mutating buyer state and bundles the paper's persisted support set with
// buyer histories and entropy weights into atomic snapshots. OpenBroker
// recovers a SIGKILL'd broker to the exact state a never-crashed twin
// would hold — bit-identical quotes, balances and refund behavior.
//
// On-disk layout under DataDir:
//
//	snapshot.qs   full broker state as of ledger sequence N (atomic:
//	              temp file + fsync + rename + directory fsync)
//	ledger.wal    one checksummed, length-prefixed record per purchase
//	              with sequence > N, fsynced before the buyer is charged
//
// Commit protocol (Purchase): compute the charge from the cached
// disagreement bitmap WITHOUT touching buyer state, append + fsync the
// ledger record, and only then fold the charge into the in-memory
// history. A failure before the append charges nobody (the caller sees a
// retryable ErrDurability); a crash after the fsync is recovered by
// replay. The one ambiguous window — fsync succeeded but the process
// died before acknowledging — resolves to "charged", exactly like any
// write-ahead database.
//
// Recovery decision table (OpenBroker):
//
//	no snapshot.qs              → fresh durable broker (NewBroker + DataDir)
//	snapshot unreadable/corrupt → error (descriptive; never guesses)
//	ledger missing              → recreate empty (crash between snapshot
//	                              install and ledger creation)
//	ledger torn final record    → truncate tail, flag in Durability()
//	ledger corrupt mid-log      → error naming the offset
//	record seq ≤ snapshot seq   → skip (already folded in; the window a
//	                              crash between snapshot rename and
//	                              ledger reset leaves behind)
//	record seq > snapshot seq   → replay through the identical charge
//	                              fold; any amount mismatch is an error
//	                              (weights or support set drifted)

// ErrDurability marks a failure of the write-ahead ledger or snapshot
// machinery. The purchase it interrupted charged nobody and may be
// retried; qiranad maps it to 503 with a Retry-After header.
var ErrDurability = errors.New("durability failure")

// snapshotFileName and ledgerFileName are the fixed DataDir layout.
const (
	snapshotFileName = "snapshot.qs"
	ledgerFileName   = "ledger.wal"
)

// durableState is the broker's handle on its DataDir: the open ledger
// plus recovery bookkeeping for Durability().
type durableState struct {
	dir    string
	ledger *durable.Ledger

	mu       sync.Mutex
	closed   bool
	snapSeq  uint64
	snapTime time.Time

	// Recovery outcome, fixed at open time.
	replayed       int
	truncatedTail  bool
	truncatedBytes int64
}

// DurabilityInfo is the operator-facing durability and recovery status
// served by Broker.Durability() and qiranad's /stats.
type DurabilityInfo struct {
	// Enabled is false when the broker runs purely in memory (no
	// DataDir); every other field is zero then.
	Enabled bool `json:"enabled"`
	// Dir is the state directory.
	Dir string `json:"dir,omitempty"`
	// SnapshotSeq is the last purchase sequence folded into the
	// installed snapshot.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// SnapshotAgeSeconds is how long ago that snapshot was written (or
	// loaded, after a recovery).
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	// LedgerSeq is the last durable purchase sequence.
	LedgerSeq uint64 `json:"ledger_seq"`
	// TailRecords is the number of purchases living only in the ledger
	// (LedgerSeq − SnapshotSeq): what a restart would replay.
	TailRecords uint64 `json:"tail_records"`
	// ReplayedRecords is how many ledger records the LAST recovery
	// replayed (zero for a fresh broker).
	ReplayedRecords int `json:"replayed_records"`
	// TruncatedTail reports whether the last recovery dropped a torn
	// final record, and TruncatedBytes its size.
	TruncatedTail  bool  `json:"truncated_tail"`
	TruncatedBytes int64 `json:"truncated_bytes,omitempty"`
}

// Durability reports the broker's durability and last-recovery status.
func (b *Broker) Durability() DurabilityInfo {
	d := b.dur
	if d == nil {
		return DurabilityInfo{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	seq := d.ledger.Seq()
	return DurabilityInfo{
		Enabled:            true,
		Dir:                d.dir,
		SnapshotSeq:        d.snapSeq,
		SnapshotAgeSeconds: time.Since(d.snapTime).Seconds(),
		LedgerSeq:          seq,
		TailRecords:        seq - d.snapSeq,
		ReplayedRecords:    d.replayed,
		TruncatedTail:      d.truncatedTail,
		TruncatedBytes:     d.truncatedBytes,
	}
}

// initDurability sets up a FRESH DataDir for a just-constructed broker:
// install the initial snapshot (sequence 0), then create the empty
// ledger. Existing state is refused — recovering it is OpenBroker's job,
// and silently overwriting a predecessor's ledger would be exactly the
// balance-zeroing bug this layer exists to prevent.
func (b *Broker) initDurability(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	for _, name := range []string{snapshotFileName, ledgerFileName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return fmt.Errorf("broker state already exists in %s (%s); use OpenBroker to recover it instead of overwriting", dir, name)
		} else if !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("%w: stat %s: %w", ErrDurability, name, err)
		}
	}
	b.dur = &durableState{dir: dir}
	snap, err := b.collectSnapshotLocked(0)
	if err != nil {
		b.dur = nil
		return err
	}
	if err := durable.WriteSnapshot(filepath.Join(dir, snapshotFileName), snap, b.obs); err != nil {
		b.dur = nil
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	ledger, _, _, err := durable.OpenLedger(filepath.Join(dir, ledgerFileName), b.obs)
	if err != nil {
		b.dur = nil
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	b.dur.ledger = ledger
	b.dur.snapTime = time.Now()
	return nil
}

// collectSnapshotLocked assembles the broker's full durable state.
// Callers hold b.mu exclusively OR the broker is not yet shared, so no
// purchase is in flight and the buyer histories are quiescent.
func (b *Broker) collectSnapshotLocked(seq uint64) (*durable.Snapshot, error) {
	var sup bytes.Buffer
	if err := b.engine.Set.Save(&sup); err != nil {
		return nil, fmt.Errorf("snapshot support set: %w (durable brokers need a neighborhood support set)", err)
	}
	weights := make([]float64, len(b.engine.Weights))
	copy(weights, b.engine.Weights)
	snap := &durable.Snapshot{
		Total:        b.total,
		Seq:          seq,
		WeightsEpoch: b.engine.WeightsEpoch(),
		Weights:      weights,
		Support:      sup.String(),
		Buyers:       map[string]durable.BuyerSnap{},
	}
	b.buyersMu.Lock()
	defer b.buyersMu.Unlock()
	for name, bs := range b.buyers {
		bs.mu.Lock()
		snap.Buyers[name] = durable.BuyerSnap{
			Paid:    bs.h.Paid,
			Charged: durable.PackBits(bs.h.Charged),
			Queries: append([]string(nil), bs.h.Queries...),
		}
		bs.mu.Unlock()
	}
	return snap, nil
}

// checkpointLocked folds the ledger into a fresh snapshot and empties
// it. Callers hold b.mu exclusively. On failure the old snapshot and the
// full ledger remain — recovery stays correct, only compaction is lost.
func (b *Broker) checkpointLocked() error {
	d := b.dur
	seq := d.ledger.Seq()
	snap, err := b.collectSnapshotLocked(seq)
	if err != nil {
		return err
	}
	if err := durable.WriteSnapshot(filepath.Join(d.dir, snapshotFileName), snap, b.obs); err != nil {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	d.mu.Lock()
	d.snapSeq = seq
	d.snapTime = time.Now()
	d.mu.Unlock()
	if err := d.ledger.Reset(); err != nil {
		// The snapshot is installed and replay skips seq ≤ snapshot, so
		// a stale ledger is merely uncompacted — but surface the fault.
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	return nil
}

// Checkpoint folds all durable purchase records into a fresh atomic
// snapshot and truncates the ledger, bounding the next recovery's replay
// work. It is a no-op for in-memory brokers.
func (b *Broker) Checkpoint() error {
	if b.dur == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.readOnly {
		return ErrReadOnly
	}
	if b.dur.isClosed() {
		return fmt.Errorf("%w: broker is closed", ErrDurability)
	}
	return b.checkpointLocked()
}

// Close flushes durable state — a final checkpoint plus ledger fsync —
// and releases the DataDir files. Purchases after Close fail with
// ErrDurability; quoting keeps working. Close is idempotent; for
// in-memory brokers it only stops the background refiner.
func (b *Broker) Close() error {
	b.stopRefiner()
	if b.dur == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dur.isClosed() {
		return nil
	}
	err := b.checkpointLocked()
	b.dur.mu.Lock()
	b.dur.closed = true
	b.dur.mu.Unlock()
	if cerr := b.dur.ledger.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("%w: %w", ErrDurability, cerr)
	}
	return err
}

func (d *durableState) isClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// logPurchase write-ahead-logs one purchase: it computes the exact
// amounts the in-memory fold will produce (pricing.Settle, the sum the
// fold itself runs, so the recorded floats are bit-identical to the
// receipt) and appends + fsyncs the record. Callers hold b.mu.RLock and
// the buyer's lock; buyer state is untouched here.
func (b *Broker) logPurchase(req PurchaseRequest, q *exec.Query, dis []bool, h *pricing.History, quoted, reconcileDelta float64) error {
	gross, refund := pricing.Settle(b.engine.Weights, h.Charged, dis, req.Refund)
	rec := durable.Record{
		Buyer:        req.Buyer,
		SQL:          q.SQL,
		Fingerprint:  fingerprint(q),
		Refund:       req.Refund,
		Gross:        gross,
		RefundAmt:    refund,
		Net:          gross - refund,
		WeightsEpoch: b.engine.WeightsEpoch(),
		Dis:          durable.PackBits(dis),
		// Informational reconcile trail (see Receipt): replay ignores
		// these — the charge is recomputed from Dis alone — so a ledger
		// with estimates recovers bit-identically to one without.
		Quoted:         quoted,
		ReconcileDelta: reconcileDelta,
	}
	if _, err := b.dur.ledger.Append(rec); err != nil {
		return fmt.Errorf("%w: %w", ErrDurability, err)
	}
	return nil
}

// OpenBroker opens a durable broker over dir: if dir holds no broker
// state it behaves like NewBroker with Options.DataDir = dir; otherwise
// it recovers — loading the latest valid snapshot (support set, entropy
// weights, buyer histories) and replaying the ledger tail through the
// identical charge fold the live path uses, so the recovered broker's
// quotes, balances and refund behavior are bit-identical to a broker
// that never crashed. A torn final ledger record (the signature of a
// crash mid-append) is truncated and reported via Durability();
// corruption anywhere else fails descriptively.
//
// db must be the same database instance the state was written against
// (the embedded support set verifies this, as the paper's persisted
// UpdateQueries do). totalPrice must match the persisted price; pass 0
// to adopt it.
func OpenBroker(dir string, db *Database, totalPrice float64, opt Options) (*Broker, error) {
	opt.DataDir = dir
	snapPath := filepath.Join(dir, snapshotFileName)
	if _, err := os.Stat(snapPath); errors.Is(err, fs.ErrNotExist) {
		if _, lerr := os.Stat(filepath.Join(dir, ledgerFileName)); lerr == nil {
			return nil, fmt.Errorf("%w: %s holds a ledger but no snapshot — the directory is not a qirana state dir (or the snapshot was deleted)", durable.ErrCorrupt, dir)
		}
		if totalPrice == 0 {
			return nil, fmt.Errorf("no broker state in %s to adopt a total price from; pass the dataset price", dir)
		}
		return NewBroker(db, totalPrice, opt)
	} else if err != nil {
		return nil, fmt.Errorf("%w: stat snapshot: %w", ErrDurability, err)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}

	snap, err := durable.LoadSnapshot(snapPath)
	if err != nil {
		return nil, err
	}
	if totalPrice != 0 && totalPrice != snap.Total {
		return nil, fmt.Errorf("requested total price %g but %s was priced at %g; pass 0 to adopt the persisted price", totalPrice, dir, snap.Total)
	}
	b, err := brokerFromSnapshot(db, snap, opt)
	if err != nil {
		return nil, err
	}
	size := b.engine.Set.Size()

	ledger, recs, rep, err := durable.OpenLedger(filepath.Join(dir, ledgerFileName), b.obs)
	if err != nil {
		return nil, err
	}
	replayed := 0
	for _, rec := range recs {
		if rec.Seq <= snap.Seq {
			continue // folded into the snapshot already
		}
		if err := b.replayRecord(rec, snap, size); err != nil {
			ledger.Close()
			return nil, err
		}
		replayed++
	}
	// A snapshot may be AHEAD of the ledger (crash between snapshot
	// rename and ledger reset): keep sequence numbering monotone.
	ledger.SetSeq(snap.Seq)

	fi, _ := os.Stat(snapPath)
	snapTime := time.Now()
	if fi != nil {
		snapTime = fi.ModTime()
	}
	b.dur = &durableState{
		dir:            dir,
		ledger:         ledger,
		snapSeq:        snap.Seq,
		snapTime:       snapTime,
		replayed:       replayed,
		truncatedTail:  rep.Truncated,
		truncatedBytes: rep.TruncatedBytes,
	}
	b.obs.Add("recovery_replayed", uint64(replayed))
	if rep.Truncated {
		b.obs.Add("recovery_truncated", 1)
	}
	return b, nil
}

// brokerFromSnapshot builds the in-memory broker a snapshot describes —
// support set, engine, restored weights and buyer histories — with no
// durability attached. Crash recovery (OpenBroker) and the hot standby's
// tailing path (Follower.Refresh) both build on it; only OpenBroker goes
// on to claim the WAL.
func brokerFromSnapshot(db *Database, snap *durable.Snapshot, opt Options) (*Broker, error) {
	set, err := support.Load(strings.NewReader(snap.Support), db)
	if err != nil {
		return nil, fmt.Errorf("recover support set from snapshot: %w", err)
	}
	b := newBroker(db, snap.Total, opt)
	b.installEngine(set)
	b.supportGen = 1
	if len(snap.Weights) > 0 {
		if err := b.engine.RestoreWeights(snap.Weights, snap.WeightsEpoch); err != nil {
			return nil, fmt.Errorf("recover weights from snapshot: %w", err)
		}
	}
	size := set.Size()
	for name, bsn := range snap.Buyers {
		if want := (size + 7) / 8; len(bsn.Charged) != want {
			return nil, fmt.Errorf("%w: buyer %q snapshot bitmap is %d bytes, want %d for support set of %d", durable.ErrCorrupt, name, len(bsn.Charged), want, size)
		}
		b.buyers[name] = &buyerState{h: &pricing.History{
			Charged: durable.UnpackBits(bsn.Charged, size),
			Paid:    bsn.Paid,
			Queries: append([]string(nil), bsn.Queries...),
		}}
	}
	return b, nil
}

// replayRecord folds one ledger record into the recovering broker
// through the same code path the live purchase used, then cross-checks
// every recorded amount — a mismatch means the snapshot, weights or
// database no longer match the ledger, and inventing a different charge
// than the buyer actually paid would break arbitrage-freeness.
func (b *Broker) replayRecord(rec durable.Record, snap *durable.Snapshot, size int) error {
	if rec.WeightsEpoch != snap.WeightsEpoch {
		return fmt.Errorf("%w: ledger record %d was written under weights epoch %d but the snapshot holds epoch %d — weight changes must snapshot, these files are mixed",
			durable.ErrCorrupt, rec.Seq, rec.WeightsEpoch, snap.WeightsEpoch)
	}
	if want := (size + 7) / 8; len(rec.Dis) != want {
		return fmt.Errorf("%w: ledger record %d carries a %d-byte disagreement bitmap, want %d for support set of %d",
			durable.ErrCorrupt, rec.Seq, len(rec.Dis), want, size)
	}
	dis := durable.UnpackBits(rec.Dis, size)
	h := b.buyerHistoryForReplay(rec.Buyer, size)
	var gross, refund float64
	var err error
	if rec.Refund {
		gross, refund, err = b.engine.RefundFromDisagreements(h, dis, rec.SQL)
	} else {
		gross, err = b.engine.ChargeFromDisagreements(h, dis, rec.SQL)
	}
	if err != nil {
		return fmt.Errorf("replay ledger record %d: %w", rec.Seq, err)
	}
	if gross != rec.Gross || refund != rec.RefundAmt || gross-refund != rec.Net {
		return fmt.Errorf("%w: replaying ledger record %d (buyer %q) produced gross %g refund %g, but the record says gross %g refund %g — the weights or support set drifted under the ledger",
			durable.ErrCorrupt, rec.Seq, rec.Buyer, gross, refund, rec.Gross, rec.RefundAmt)
	}
	return nil
}

// buyerHistoryForReplay returns (creating if needed) a buyer's history
// during recovery, before the broker is shared.
func (b *Broker) buyerHistoryForReplay(name string, size int) *pricing.History {
	bs, ok := b.buyers[name]
	if !ok {
		bs = &buyerState{h: pricing.NewHistory(size)}
		b.buyers[name] = bs
	}
	return bs.h
}

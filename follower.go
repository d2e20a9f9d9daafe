package qirana

import (
	"fmt"
	"path/filepath"
	"sync"

	"qirana/internal/durable"
)

// Follower is a hot standby: a read-only twin of a durable leader
// broker, kept warm by tailing the leader's state directory — the
// snapshot plus the write-ahead purchase ledger — through the same
// replay fold crash recovery uses. When the leader dies, Promote turns
// the directory over to a fresh writable broker via the full OpenBroker
// recovery path, so failover inherits every durability guarantee a
// plain restart has: acknowledged purchases survive exactly once,
// unacknowledged ones charge nobody, torn tails are truncated.
//
// The follower NEVER writes to the leader's directory: the ledger is
// read with the read-only scanner (durable.ScanLedgerFile), so a
// follower tailing a live leader cannot truncate or contend with it. A
// scan that races an in-flight append simply sees a torn tail and picks
// the record up on the next Refresh.
type Follower struct {
	dir string
	db  *Database
	opt Options

	mu       sync.Mutex
	b        *Broker           // read-only in-memory twin
	snap     *durable.Snapshot // the snapshot b was rebuilt from
	applied  uint64            // last ledger sequence folded into b
	promoted bool
}

// OpenFollower opens a hot standby over a leader's state directory,
// building the initial twin from the current snapshot + ledger. The
// directory must already hold broker state (the leader writes its
// initial snapshot at construction).
func OpenFollower(dir string, db *Database, opt Options) (*Follower, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	// The follower never owns durable state of its own; DataDir here
	// would claim the leader's files.
	opt.DataDir = ""
	f := &Follower{dir: dir, db: db, opt: opt}
	if err := f.Refresh(); err != nil {
		return nil, err
	}
	return f, nil
}

// Broker returns the follower's current read-only twin (or, after
// Promote, the writable leader broker). The pointer changes when a
// Refresh crosses a checkpoint or weights change, so callers serving
// HTTP should re-read it per request rather than capture it once.
func (f *Follower) Broker() *Broker {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.b
}

// AppliedSeq reports the last ledger sequence folded into the twin.
func (f *Follower) AppliedSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Promoted reports whether Promote has run.
func (f *Follower) Promoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}

// Refresh re-reads the leader's directory and folds anything new into
// the twin. A moved snapshot (checkpoint or weights change on the
// leader) rebuilds the twin from scratch; otherwise only the ledger
// records beyond the last applied sequence replay, through the same
// amount-cross-checking fold recovery uses. Cheap when nothing changed:
// one snapshot decode and one ledger scan, no sweeps.
func (f *Follower) Refresh() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return fmt.Errorf("follower was promoted; tailing has stopped")
	}
	snap, err := durable.LoadSnapshot(filepath.Join(f.dir, snapshotFileName))
	if err != nil {
		return err
	}
	if f.b == nil || snap.Seq != f.snap.Seq || snap.WeightsEpoch != f.snap.WeightsEpoch {
		nb, err := brokerFromSnapshot(f.db, snap, f.opt)
		if err != nil {
			return err
		}
		nb.readOnly = true
		f.b, f.snap, f.applied = nb, snap, snap.Seq
	}
	recs, _, err := durable.ScanLedgerFile(filepath.Join(f.dir, ledgerFileName))
	if err != nil {
		return err
	}
	size := f.b.engine.Set.Size()
	for _, rec := range recs {
		if rec.Seq <= f.applied {
			continue
		}
		if err := f.b.replayRecord(rec, f.snap, size); err != nil {
			return err
		}
		f.applied = rec.Seq
	}
	return nil
}

// Promote takes over leadership: the state directory is re-opened
// through the full crash-recovery path (OpenBroker), which claims the
// WAL, truncates any torn tail the dead leader left, and cross-checks
// every replayed charge. The returned broker is writable and durable;
// the follower's tailing stops and Broker() returns the promoted
// broker from now on. Call it only once the old leader is known dead —
// two processes owning one WAL is the one thing this layer cannot
// survive.
func (f *Follower) Promote() (*Broker, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return nil, fmt.Errorf("follower already promoted")
	}
	b, err := OpenBroker(f.dir, f.db, 0, f.opt)
	if err != nil {
		return nil, err
	}
	f.promoted = true
	f.b = b
	return b, nil
}

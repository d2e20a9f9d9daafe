// Command qirouter fronts a shard cluster: it serves the same JSON
// pricing API as qiranad (/v1/quote, /v1/quote/batch, /v1/ask,
// /v1/prepare, /v1/stats, /v1/metrics, /v1/healthz) but fans every cold
// support-set sweep out to N shard workers, each sweeping only its
// contiguous slice of the support set. Slices are reassembled in global
// element order and every price folds on the router through the
// unmodified single-node code, so a clustered price — and its Stats —
// is bit-identical to a single node's. The router owns all mutable state: the purchase ledger (with
// -data, durable exactly like qiranad), buyer histories and weights;
// shards are read-only.
//
// Connecting to real workers (started with qiranad -shard):
//
//	qiranad -shard -addr :8081 -dataset world -seed 1 -support 999 &
//	qiranad -shard -addr :8082 -dataset world -seed 1 -support 999 &
//	qirouter -shards http://localhost:8081,http://localhost:8082 \
//	         -dataset world -seed 1 -support 999
//
// Every node must price the SAME support set: same -dataset, -seed and
// -support (generation is deterministic), or the same -load file. The
// handshake verifies the set's generation, checksum and size and
// refuses to start on any mismatch; a mid-flight mismatch (a restarted,
// resampled shard) turns into 409s, never a silently wrong price.
//
// Demo mode: -cluster N spins N in-process shard workers over the
// router's own support set — `make cluster` uses it, optionally with an
// in-process read-only standby mirror (-standby-addr) tailing the
// router's -data directory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"qirana"
	"qirana/internal/httpapi"
	"qirana/internal/shard"
)

// config collects the router's flags (run used to take them as 15
// positional parameters, which had become unreadable and error-prone).
type config struct {
	addr, shards     string
	cluster          int
	dataset          string
	price            float64
	size             int
	scale            float64
	seed             int64
	workers          int
	load, dataDir    string
	timeout, drain   time.Duration
	standbyAddr      string
	shardRetries     int
	breakerThreshold int
	breakerCooldown  time.Duration
	hedgeAfter       time.Duration
	noHedge          bool
	noDegraded       bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "localhost:8090", "listen address")
	flag.StringVar(&cfg.shards, "shards", "", "comma-separated shard base URLs (e.g. http://host:8081,http://host:8082)")
	flag.IntVar(&cfg.cluster, "cluster", 0, "demo mode: spin N in-process shard workers instead of -shards")
	flag.StringVar(&cfg.dataset, "dataset", "world", "dataset: world, carcrash, dblp, tpch, ssb")
	flag.Float64Var(&cfg.price, "price", 100, "price of the full dataset")
	flag.IntVar(&cfg.size, "support", 1000, "support set size")
	flag.Float64Var(&cfg.scale, "scale", 0, "dataset scale (0 = small default)")
	flag.Int64Var(&cfg.seed, "seed", 1, "generator seed")
	flag.IntVar(&cfg.workers, "workers", 0, "parallel pricing workers per shard (demo mode)")
	flag.StringVar(&cfg.load, "load", "", "load a saved support set instead of sampling")
	flag.StringVar(&cfg.dataDir, "data", "", "durable state directory for the router's purchase ledger")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request pricing timeout (0 = none)")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain window")
	flag.StringVar(&cfg.standbyAddr, "standby-addr", "", "demo mode: also serve an in-process read-only standby mirror of -data on this address")
	def := shard.DefaultFaultPolicy()
	flag.IntVar(&cfg.shardRetries, "shard-retries", def.MaxAttempts, "per-shard request attempts per sweep, including the first (retries use jittered exponential backoff)")
	flag.IntVar(&cfg.breakerThreshold, "breaker-threshold", def.BreakerThreshold, "consecutive shard faults that trip a shard's circuit breaker open")
	flag.DurationVar(&cfg.breakerCooldown, "breaker-cooldown", def.BreakerCooldown, "how long an open breaker fails fast before probing the shard's health")
	flag.DurationVar(&cfg.hedgeAfter, "hedge-after", 0, "fixed hedge delay: fire a duplicate shard RPC after this long without an answer (0 = adapt to the fleet's latency signal)")
	flag.BoolVar(&cfg.noHedge, "no-hedge", false, "disable hedged shard requests")
	flag.BoolVar(&cfg.noDegraded, "no-degraded", false, "disable degraded-mode quotes: fail 503 instead of serving a sound over-quote while part of the cluster is unreachable")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// faultPolicy translates the fault-tolerance flags onto the fan-out's
// policy, starting from the defaults.
func (c config) faultPolicy() shard.FaultPolicy {
	p := shard.DefaultFaultPolicy()
	p.MaxAttempts = c.shardRetries
	p.BreakerThreshold = c.breakerThreshold
	p.BreakerCooldown = c.breakerCooldown
	p.HedgeAfter = c.hedgeAfter
	p.DisableHedging = c.noHedge
	return p
}

func run(cfg config) error {
	if (cfg.shards == "") == (cfg.cluster == 0) {
		return errors.New("set exactly one of -shards (connect to workers) or -cluster N (in-process demo)")
	}
	db, err := qirana.LoadDataset(cfg.dataset, cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	opts := qirana.Options{SupportSetSize: cfg.size, Seed: cfg.seed, Workers: cfg.workers,
		DisableDegradedQuotes: cfg.noDegraded}
	var broker *qirana.Broker
	switch {
	case cfg.dataDir != "" && cfg.load != "":
		return errors.New("-data and -load are mutually exclusive: a durable router persists its own support set in the data directory")
	case cfg.dataDir != "":
		broker, err = qirana.OpenBroker(cfg.dataDir, db, cfg.price, opts)
	case cfg.load != "":
		f, ferr := os.Open(cfg.load)
		if ferr != nil {
			return ferr
		}
		lopts := opts
		lopts.SupportSetSize = 0
		broker, err = qirana.NewBrokerFromSupport(db, cfg.price, f, lopts)
		f.Close()
	default:
		broker, err = qirana.NewBroker(db, cfg.price, opts)
	}
	if err != nil {
		return err
	}

	// Bind the routing port before anything else takes a port: in-process
	// shards listen on port 0 of loopback, and the kernel must not hand
	// one of them the port this router was told to serve on.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	var nShards int
	if cfg.cluster > 0 {
		cl, err := shard.AttachLocal(broker, db, cfg.cluster, opts)
		if err != nil {
			return err
		}
		defer cl.Close()
		cl.Fanout.SetPolicy(cfg.faultPolicy())
		nShards = cfg.cluster
		fmt.Printf("qirouter: %d in-process shards over %s (support %d: ~%d elements each)\n",
			cfg.cluster, cfg.dataset, broker.SupportSetSize(), (broker.SupportSetSize()+cfg.cluster-1)/cfg.cluster)
	} else {
		urls := strings.Split(cfg.shards, ",")
		f, err := shard.Connect(context.Background(), urls, nil)
		if err != nil {
			return fmt.Errorf("shard handshake: %w", err)
		}
		info := f.Info()
		if info.SupportGen != broker.SupportGen() || info.SupportSum != broker.SupportChecksum() || info.Size != broker.SupportSetSize() {
			return fmt.Errorf("shards price gen=%d sum=%016x size=%d but the router holds gen=%d sum=%016x size=%d — start every node with the same -dataset/-seed/-support (or the same -load file)",
				info.SupportGen, info.SupportSum, info.Size,
				broker.SupportGen(), broker.SupportChecksum(), broker.SupportSetSize())
		}
		f.SetPolicy(cfg.faultPolicy())
		broker.SetRemoteSweeper(f)
		nShards = len(urls)
		fmt.Printf("qirouter: %d shards verified (support %d, checksum %016x)\n",
			nShards, info.Size, info.SupportSum)
	}
	pol := cfg.faultPolicy()
	fmt.Printf("qirouter: fault policy: %d attempts/shard, breaker %d faults → %s cooldown, hedging %s, degraded quotes %s\n",
		pol.MaxAttempts, pol.BreakerThreshold, pol.BreakerCooldown,
		onOff(!pol.DisableHedging), onOff(!cfg.noDegraded))
	fmt.Printf("qirouter: %s (%d tuples), support %d, price %g, routing on http://%s\n",
		cfg.dataset, db.TotalRows(), broker.SupportSetSize(), cfg.price, cfg.addr)
	if info := broker.Durability(); info.Enabled {
		fmt.Printf("qirouter: durable ledger in %s (snapshot seq %d, replayed %d records)\n",
			info.Dir, info.SnapshotSeq, info.ReplayedRecords)
	}

	stopMirror := func() {}
	if cfg.standbyAddr != "" {
		if cfg.dataDir == "" {
			return errors.New("-standby-addr requires -data (the standby mirrors the router's state directory)")
		}
		stopMirror, err = startMirror(cfg.standbyAddr, cfg.dataDir, db, opts, cfg.timeout)
		if err != nil {
			return err
		}
		fmt.Printf("qirouter: standby mirror tailing %s on http://%s\n", cfg.dataDir, cfg.standbyAddr)
	}

	srv := &http.Server{Addr: cfg.addr, Handler: httpapi.New(broker, cfg.timeout)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("qirouter: draining")
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-errc
	stopMirror()
	if err := broker.Close(); err != nil {
		return fmt.Errorf("close broker: %w", err)
	}
	return nil
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// startMirror serves an in-process read-only standby over the router's
// state directory: it tails the snapshot + ledger once a second, so
// /v1/stats and quotes on the mirror track the leader with at most a tick
// of lag. (A real out-of-process standby with automatic promotion is
// qiranad -standby.)
func startMirror(addr, dataDir string, db *qirana.Database, opts qirana.Options, timeout time.Duration) (stop func(), err error) {
	follower, err := qirana.OpenFollower(dataDir, db, opts)
	if err != nil {
		return nil, err
	}
	var current atomic.Pointer[qirana.Broker]
	current.Store(follower.Broker())
	srv := &http.Server{Addr: addr, Handler: httpapi.NewDynamic(func() *qirana.Broker { return current.Load() }, timeout)}
	done := make(chan struct{})
	go srv.ListenAndServe()
	go func() {
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if err := follower.Refresh(); err == nil {
					current.Store(follower.Broker())
				}
			}
		}
	}()
	return func() { close(done); srv.Close() }, nil
}

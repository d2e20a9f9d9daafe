// Command qiranad serves a query-pricing broker over HTTP: the daemon
// form of the interactive qirana shell. It loads one of the benchmark
// datasets, prices it, and answers JSON requests:
//
//	POST /v1/quote        {"sql": "SELECT ..."}                  up-front price
//	POST /v1/quote/batch  {"sqls": ["...", "..."]}               k prices, one sweep
//	POST /v1/ask          {"buyer": "alice", "sql": "..."}       buy: answer + charge
//	POST /v1/prepare      {"sql": "... $1 ..."}                  prepared-statement handle
//	GET  /v1/stats        broker counters (quote cache, durability, approx path, cluster)
//	GET  /v1/metrics      request counters + latency percentiles (p50/p95/p99)
//	GET  /v1/healthz      liveness + support-set identity
//	GET  /debug/vars      expvar, including the live metrics registry
//	GET  /debug/pprof     runtime profiling
//
// Quotes accept "max_error" (body field or ?max_error= query parameter)
// to engage the sampled approximate pricing path: the served price is a
// guaranteed upper bound on the exact price, refined to exact in the
// background. A quote without max_error is exact whatever the load.
//
// Every pricing request runs under a context derived from the HTTP
// request: a dropped connection or the -timeout deadline (per-request
// override: ?timeout_ms=) cancels the support-set sweep mid-batch, and
// the broker guarantees a cancelled request charges no buyer and caches
// nothing. On SIGINT/SIGTERM the daemon stops accepting connections and
// drains in-flight requests for up to -drain before exiting.
//
// With -data the broker is durable: every purchase is write-ahead-logged
// and fsynced before the buyer is charged, and restarting with the same
// -data directory recovers identical prices and balances — even after
// SIGKILL. Clean shutdown checkpoints the ledger into a snapshot so the
// next start replays nothing.
//
// Cluster modes (see qirouter for the fan-out front):
//
//	-shard      serve as a read-only shard worker: mounts POST
//	            /v1/shard/sweep and GET /v1/shard/info next to the quoting
//	            endpoints; purchases are refused (503) — they belong on
//	            the router, which owns the ledger.
//	-standby -data DIR
//	            hot standby: tail the leader's state directory (snapshot
//	            + write-ahead ledger) into a read-only twin, probe the
//	            leader's /v1/healthz (-leader), and after -failover-after
//	            consecutive probe failures promote — re-open the
//	            directory through crash recovery and serve writable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"qirana"
	"qirana/internal/httpapi"
	"qirana/internal/shard"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:8080", "listen address")
		dataset = flag.String("dataset", "world", "dataset: world, carcrash, dblp, tpch, ssb")
		price   = flag.Float64("price", 100, "price of the full dataset")
		size    = flag.Int("support", 1000, "support set size")
		scale   = flag.Float64("scale", 0, "dataset scale (0 = small default)")
		seed    = flag.Int64("seed", 1, "generator seed")
		workers = flag.Int("workers", 0, "parallel pricing workers (0 or 1 = serial, capped at GOMAXPROCS)")
		load    = flag.String("load", "", "load a support set saved by the qirana shell instead of sampling")
		dataDir = flag.String("data", "", "durable state directory (write-ahead ledger + snapshots); reuse it across restarts to keep buyer balances")
		timeout = flag.Duration("timeout", 30*time.Second, "per-request pricing timeout (0 = none)")
		drain   = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window")

		shardMode = flag.Bool("shard", false, "serve as a read-only shard worker (/shard/sweep, /shard/info)")
		standby   = flag.Bool("standby", false, "serve as a hot standby tailing -data; requires -leader")
		leaderURL = flag.String("leader", "", "leader base URL the standby probes (e.g. http://localhost:8080)")
		probeIv   = flag.Duration("probe-interval", time.Second, "standby: nominal leader probe and WAL tail interval (jittered ±20%, backs off while probes miss)")
		probeTo   = flag.Duration("probe-timeout", 0, "standby: per-probe HTTP timeout (0 = 2× -probe-interval); keep it above the leader's worst-case pause so a slow leader is not mistaken for a dead one")
		failAfter = flag.Int("failover-after", 3, "standby: CONSECUTIVE failed probes before promoting (any success resets the streak)")
	)
	flag.Parse()
	cfg := config{
		addr: *addr, dataset: *dataset, price: *price, size: *size, scale: *scale,
		seed: *seed, workers: *workers, load: *load, dataDir: *dataDir,
		timeout: *timeout, drain: *drain,
		shard: *shardMode, standby: *standby, leaderURL: *leaderURL,
		probeInterval: *probeIv, probeTimeout: *probeTo, failoverAfter: *failAfter,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

type config struct {
	addr, dataset  string
	price          float64
	size           int
	scale          float64
	seed           int64
	workers        int
	load, dataDir  string
	timeout, drain time.Duration
	shard, standby bool
	leaderURL      string
	probeInterval  time.Duration
	probeTimeout   time.Duration
	failoverAfter  int
}

func run(cfg config) error {
	db, err := qirana.LoadDataset(cfg.dataset, cfg.seed, cfg.scale)
	if err != nil {
		return err
	}
	if cfg.standby {
		return runStandby(cfg, db)
	}
	var broker *qirana.Broker
	opts := qirana.Options{SupportSetSize: cfg.size, Seed: cfg.seed, Workers: cfg.workers}
	switch {
	case cfg.dataDir != "" && cfg.load != "":
		return errors.New("-data and -load are mutually exclusive: a durable broker persists its own support set in the data directory")
	case cfg.shard && cfg.dataDir != "":
		return errors.New("-shard excludes -data: shard workers are read-only; the router owns the purchase ledger")
	case cfg.dataDir != "":
		broker, err = qirana.OpenBroker(cfg.dataDir, db, cfg.price, opts)
	case cfg.load != "":
		f, ferr := os.Open(cfg.load)
		if ferr != nil {
			return ferr
		}
		broker, err = qirana.NewBrokerFromSupport(db, cfg.price, f, qirana.Options{Workers: cfg.workers})
		f.Close()
	default:
		broker, err = qirana.NewBroker(db, cfg.price, opts)
	}
	if err != nil {
		return err
	}
	role := "serving"
	if cfg.shard {
		broker.SetReadOnly(true)
		role = "shard worker"
	}
	fmt.Printf("qiranad: %s (%d tuples), support %d, price %g, %s on http://%s\n",
		cfg.dataset, db.TotalRows(), broker.SupportSetSize(), cfg.price, role, cfg.addr)
	if info := broker.Durability(); info.Enabled {
		note := ""
		if info.TruncatedTail {
			note = fmt.Sprintf(", dropped a torn %d-byte ledger tail", info.TruncatedBytes)
		}
		fmt.Printf("qiranad: durable state in %s (snapshot seq %d, replayed %d ledger records%s)\n",
			info.Dir, info.SnapshotSeq, info.ReplayedRecords, note)
	}

	api := httpapi.New(broker, cfg.timeout)
	if cfg.shard {
		shard.Register(api.Mux(), broker)
	}
	return serve(cfg, api, func() error { return broker.Close() })
}

// runStandby tails the leader's state directory into a read-only twin
// and promotes after failoverAfter consecutive failed /v1/healthz probes.
// The serving broker is swapped atomically: requests before promotion
// see the read-only twin (quotes work, purchases 503), requests after
// see the recovered writable leader.
func runStandby(cfg config, db *qirana.Database) error {
	if cfg.dataDir == "" || cfg.leaderURL == "" {
		return errors.New("-standby requires -data (the leader's state directory) and -leader (its base URL)")
	}
	opts := qirana.Options{SupportSetSize: cfg.size, Seed: cfg.seed, Workers: cfg.workers}
	follower, err := qirana.OpenFollower(cfg.dataDir, db, opts)
	if err != nil {
		return err
	}
	var current atomic.Pointer[qirana.Broker]
	current.Store(follower.Broker())
	api := httpapi.NewDynamic(func() *qirana.Broker { return current.Load() }, cfg.timeout)

	fmt.Printf("qiranad: standby tailing %s, probing %s every ~%s (failover after %d consecutive misses), serving on http://%s\n",
		cfg.dataDir, cfg.leaderURL, cfg.probeInterval, cfg.failoverAfter, cfg.addr)

	// The probe timeout is decoupled from the interval: a leader paused
	// for one beat must fail a PROBE, not be declared dead by a client
	// timeout that races the next tick.
	probeTimeout := cfg.probeTimeout
	if probeTimeout <= 0 {
		probeTimeout = 2 * cfg.probeInterval
	}
	client := &http.Client{Timeout: probeTimeout}
	gate := newFailoverGate(cfg.failoverAfter, cfg.probeInterval, time.Now().UnixNano())
	stopTail := make(chan struct{})
	go probeLoop(stopTail, gate,
		func() {
			if err := follower.Refresh(); err != nil {
				fmt.Fprintf(os.Stderr, "qiranad: standby refresh: %v\n", err)
			} else {
				current.Store(follower.Broker())
			}
		},
		func() error {
			err := probeLeader(client, cfg.leaderURL)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qiranad: leader probe failed (%d/%d): %v\n", gate.misses+1, cfg.failoverAfter, err)
			}
			return err
		},
		func() {
			b, perr := follower.Promote()
			if perr != nil {
				fmt.Fprintf(os.Stderr, "qiranad: promote failed: %v\n", perr)
				return
			}
			current.Store(b)
			fmt.Println("qiranad: promoted to leader; purchases enabled")
		})
	return serve(cfg, api, func() error {
		close(stopTail)
		// Only a promoted standby owns durable state worth closing.
		if follower.Promoted() {
			return current.Load().Close()
		}
		return nil
	})
}

// probeLeader is one standby health probe: GET the leader's /v1/healthz
// and require a 200.
func probeLeader(client *http.Client, leaderURL string) error {
	resp, err := client.Get(leaderURL + "/v1/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("leader /v1/healthz answered %d", resp.StatusCode)
	}
	return nil
}

// serve runs the HTTP server with the shared graceful-drain protocol,
// then invokes shutdown (broker close / tail stop).
func serve(cfg config, handler http.Handler, shutdown func() error) error {
	srv := &http.Server{Addr: cfg.addr, Handler: handler}

	// Graceful drain: on SIGINT/SIGTERM stop accepting, let in-flight
	// pricing requests finish (bounded by the drain window — their own
	// request contexts keep ticking), then exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("qiranad: draining")
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-errc // ListenAndServe's http.ErrServerClosed
	// Drained: checkpoint the ledger into a snapshot and release the data
	// directory, so the next start replays nothing.
	if err := shutdown(); err != nil {
		return fmt.Errorf("close broker: %w", err)
	}
	return nil
}

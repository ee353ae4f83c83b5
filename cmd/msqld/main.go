// Command msqld serves a measures-enabled SQL database over HTTP with
// fleet-grade robustness: bounded admission, overload shedding
// (429 + Retry-After), per-request deadline clamping, panic isolation,
// health endpoints, Prometheus metrics, and graceful drain on
// SIGINT/SIGTERM.
//
//	msqld -paper                       # serve the paper's dataset
//	msqld -f schema.sql -addr :7433    # serve a custom schema
//
// Endpoints:
//
//	POST /query          {"sql": "...", "timeout_ms": 1000}
//	POST /query.ndjson   newline-delimited response stream
//	POST /prepare        {"name": "q", "sql": "SELECT ... WHERE a > $1"}
//	POST /execute        {"name": "q", "params": [{"type":"INTEGER","value":3}]}
//	GET  /healthz        liveness
//	GET  /readyz         readiness (503 while draining)
//	GET  /metrics        Prometheus text (engine + server counters)
//	GET  /metrics.json   the same snapshot as JSON
//	GET  /statements     statement-stats store (fingerprints, latencies)
//	GET  /queries        in-flight queries
//	POST /kill           {"id": N} — cancel an in-flight query
//	     /debug/pprof/   profiling handlers (with -pprof)
//
// Every statement-executing request is written to the structured
// access log on stderr with its request ID (client-supplied via the
// X-Request-Id header or request_id body field, else generated), and
// -slow-query-log additionally logs statements slower than the given
// threshold from inside the engine.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/measures-sql/msql/internal/paperdata"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/msql"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7433", "listen address")
		paper        = flag.Bool("paper", false, "preload the paper's example data")
		file         = flag.String("f", "", "run a SQL script before serving (schema/data setup)")
		strategy     = flag.String("strategy", "default", "measure strategy: default | memo | naive")
		workers      = flag.Int("workers", 0, "executor workers per query (0 = up to one per CPU; each other statement in progress takes one away)")
		maxInflight  = flag.Int("max-inflight", 8, "max concurrently executing statements")
		maxQueue     = flag.Int("max-queue", 0, "max queued statements (0 = 2×max-inflight)")
		queueWait    = flag.Duration("queue-wait", time.Second, "max time a request waits for an execution slot")
		timeout      = flag.Duration("timeout", 10*time.Second, "default per-statement timeout (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 30*time.Second, "clamp for client-supplied timeouts")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "graceful-drain budget before canceling stragglers")
		maxRows      = flag.Int64("max-rows", 0, "per-statement materialized-row budget (0 = unlimited)")
		planCache    = flag.Int("plan-cache-size", 128, "prepared-statement plan cache entries (0 = disable)")
		rollups      = flag.Bool("rollups", false, "materialize incremental rollup states for eligible aggregations")
		slowQuery    = flag.Duration("slow-query-log", 0, "log statements slower than this to stderr (0 = off)")
		noAccessLog  = flag.Bool("no-access-log", false, "disable the structured access log on stderr")
		pprofOn      = flag.Bool("pprof", false, "mount /debug/pprof/ profiling handlers")
		dataDir      = flag.String("data-dir", "", "durable storage directory (empty = in-memory)")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy with -data-dir: always | interval | off")
		checkpointIv = flag.Duration("checkpoint-interval", 0, "periodic checkpoint interval with -data-dir (0 = manual only)")
		shardID      = flag.String("shard-id", "", "serve as a shard of a distributed topology under this ID (exposed via /catalog)")
	)
	flag.Parse()
	log.SetPrefix("msqld: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	// The listener comes up immediately, but every request — including
	// /healthz — gets 503 until recovery (and schema setup) completes, so
	// an orchestrator never routes traffic to a msqld that is still
	// replaying its log.
	var handler atomic.Pointer[http.Handler]
	recovering := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "recovering", http.StatusServiceUnavailable)
	}))
	handler.Store(&recovering)
	httpSrv := &http.Server{Addr: *addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	var db *msql.DB
	recovered := false
	if *dataDir != "" {
		policy, err := msql.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatalf("-wal-sync: %v", err)
		}
		start := time.Now()
		db, err = msql.OpenDir(*dataDir, msql.WithSyncPolicy(policy))
		if err != nil {
			log.Fatalf("opening -data-dir %s: %v", *dataDir, err)
		}
		st := db.WALStats()
		tables, views := db.Tables()
		recovered = len(tables)+len(views) > 0
		log.Printf("recovered %s in %v (%d tables, %d views, %d log records replayed, %d torn bytes truncated, wal-sync=%s)",
			*dataDir, time.Since(start).Round(time.Millisecond), len(tables), len(views),
			st.RecoveredRecords, st.TornTailBytes, policy)
	} else {
		db = msql.Open()
	}
	switch *strategy {
	case "default":
		db.SetStrategy(msql.StrategyDefault)
	case "memo":
		db.SetStrategy(msql.StrategyMemo)
	case "naive":
		db.SetStrategy(msql.StrategyNaive)
	default:
		log.Fatalf("unknown -strategy %q (want default, memo, or naive)", *strategy)
	}
	db.SetWorkers(*workers)
	db.SetLimits(msql.Limits{Timeout: *timeout, MaxRows: *maxRows})
	db.SetPlanCacheSize(*planCache)
	if *rollups {
		db.SetRollups(true)
		log.Printf("materialized rollups enabled")
	}
	if recovered && (*paper || *file != "") {
		// The directory already holds a recovered schema; re-running the
		// setup script would fail on CREATE TABLE.
		log.Printf("data-dir holds existing objects; skipping -paper/-f setup")
	} else {
		if *paper {
			db.MustExec(paperdata.All)
			log.Printf("loaded paper tables (Customers, Orders) and views")
		}
		if *file != "" {
			data, err := os.ReadFile(*file)
			if err != nil {
				log.Fatalf("reading -f script: %v", err)
			}
			if err := db.Exec(string(data)); err != nil {
				log.Fatalf("running -f script: %v", err)
			}
			log.Printf("ran setup script %s", *file)
		}
	}

	if *slowQuery > 0 {
		db.SetSlowQueryLog(os.Stderr, *slowQuery)
		log.Printf("slow-query log enabled (threshold %v)", *slowQuery)
	}

	cfg := server.Config{
		MaxInflight:  *maxInflight,
		MaxQueue:     *maxQueue,
		QueueWait:    *queueWait,
		MaxTimeout:   *maxTimeout,
		DrainTimeout: *drainTimeout,
		EnablePprof:  *pprofOn,
		ShardID:      *shardID,
	}
	if *shardID != "" {
		log.Printf("serving as shard %q", *shardID)
	}
	if !*noAccessLog {
		cfg.AccessLog = os.Stderr
	}
	srv := server.New(db, cfg)
	live := srv.Handler()
	handler.Store(&live) // recovery done: open the gate

	checkpointDone := make(chan struct{})
	if *dataDir != "" && *checkpointIv > 0 {
		ticker := time.NewTicker(*checkpointIv)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-checkpointDone:
					return
				case <-ticker.C:
					if err := db.Checkpoint(); err != nil {
						log.Printf("checkpoint: %v", err)
					}
				}
			}
		}()
		log.Printf("checkpointing every %v", *checkpointIv)
	}

	effQueue := *maxQueue
	if effQueue <= 0 {
		effQueue = 2 * *maxInflight
	}
	log.Printf("serving on http://%s (max-inflight %d, queue %d)", *addr, *maxInflight, effQueue)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %s; draining (budget %v)", sig, *drainTimeout)
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	}

	start := time.Now()
	srv.Drain(context.Background())
	c := srv.Counters()
	log.Printf("drained in %v (completed %d, canceled %d)", time.Since(start).Round(time.Millisecond), c.Drained, c.DrainKilled)
	if *dataDir != "" {
		close(checkpointDone)
		if err := db.Sync(); err != nil {
			log.Printf("wal sync: %v", err)
		}
		if err := db.Close(); err != nil {
			log.Printf("wal close: %v", err)
		} else {
			log.Printf("wal flushed and closed")
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	fmt.Fprintln(os.Stderr, "msqld: bye")
}

// Command msqlcoord runs the distributed coordinator: it hash-
// partitions tables across N msqld shard nodes and executes measure
// queries scatter-gather over the wire protocol, with retries,
// hedging, failover, per-endpoint circuit breakers, and structured
// shard-unavailability errors. A client talks to it exactly as to a
// single msqld.
//
//	msqld -addr :7501 -shard-id shard-0 &
//	msqld -addr :7502 -shard-id shard-1 &
//	msqlcoord -addr :7433 \
//	    -shard http://127.0.0.1:7501 \
//	    -shard http://127.0.0.1:7502 \
//	    -init schema.sql
//
// Each -shard flag names one shard; give a comma-separated list of
// URLs for a shard with replicas (primary first):
//
//	-shard http://10.0.0.1:7433,http://10.0.0.2:7433
//
// Endpoints — served through internal/server's request envelope with its
// default limits (8 executing, 16 queued, shed with 429 + Retry-After;
// timeout_ms clamped to 30s; one access-log line per request on stderr):
//
//	POST /query         {"sql": "...", "timeout_ms": 1000}
//	POST /query.ndjson  the same, answered as a newline-delimited stream
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 until every shard is reachable,
//	                    and again once draining)
//	GET  /metrics       Prometheus text, including msql_shard_* and
//	                    msql_server_* counters
//	GET  /metrics.json  the same snapshot as JSON
//
// SIGINT/SIGTERM drain like msqld: stop admitting, let inflight
// statements finish (then cancel the stragglers), shut the listener.
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
	"strings"
	"syscall"
	"time"

	"github.com/measures-sql/msql/internal/dist"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/msql/client"
)

type shardFlags [][]string

func (s *shardFlags) String() string { return fmt.Sprint([][]string(*s)) }

func (s *shardFlags) Set(v string) error {
	var urls []string
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		urls = append(urls, u)
	}
	if len(urls) == 0 {
		return errors.New("empty shard endpoint list")
	}
	*s = append(*s, urls)
	return nil
}

type partitionFlags map[string]string

func (p partitionFlags) String() string { return fmt.Sprint(map[string]string(p)) }

func (p partitionFlags) Set(v string) error {
	table, col, ok := strings.Cut(v, "=")
	if !ok || table == "" || col == "" {
		return errors.New("want -partition table=column")
	}
	p[strings.ToLower(strings.TrimSpace(table))] = strings.TrimSpace(col)
	return nil
}

func main() {
	var shards shardFlags
	partitions := partitionFlags{}
	var (
		addr          = flag.String("addr", "127.0.0.1:7433", "listen address")
		initFile      = flag.String("init", "", "run a SQL script through the coordinator before serving")
		timeout       = flag.Duration("timeout", 30*time.Second, "per-statement budget, shared by all shard calls of a query")
		hedgeDelay    = flag.Duration("hedge-delay", 50*time.Millisecond, "delay before hedging to a replica (before p99 history accrues)")
		brThreshold   = flag.Int("breaker-threshold", 3, "consecutive failures that open an endpoint's circuit breaker")
		brCooldown    = flag.Duration("breaker-cooldown", 500*time.Millisecond, "open-breaker shed window before a half-open probe")
		retryAttempts = flag.Int("retry-attempts", 4, "transport retry attempts per shard call")
		waitReady     = flag.Duration("wait-ready", 0, "wait up to this long for every shard to come up before -init")
	)
	flag.Var(&shards, "shard", "shard endpoint URL(s), comma-separated primary,replica,... (repeatable; one per shard)")
	flag.Var(partitions, "partition", "partition column override, table=column (repeatable; default: first column)")
	flag.Parse()
	log.SetPrefix("msqlcoord: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	if len(shards) == 0 {
		log.Fatal("at least one -shard is required")
	}
	coord, err := dist.New(dist.Config{
		Shards:           shards,
		PartitionCols:    partitions,
		QueryTimeout:     *timeout,
		Backoff:          client.Backoff{Attempts: *retryAttempts},
		BreakerThreshold: *brThreshold,
		BreakerCooldown:  *brCooldown,
		HedgeDelay:       *hedgeDelay,
	})
	if err != nil {
		log.Fatalf("building coordinator: %v", err)
	}

	if *waitReady > 0 {
		deadline := time.Now().Add(*waitReady)
		for {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			err := coord.Ready(ctx)
			cancel()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				log.Fatalf("shards not ready after %v: %v", *waitReady, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	if *initFile != "" {
		data, err := os.ReadFile(*initFile)
		if err != nil {
			log.Fatalf("reading -init script: %v", err)
		}
		if err := coord.Exec(context.Background(), string(data)); err != nil {
			log.Fatalf("running -init script: %v", err)
		}
		log.Printf("ran init script %s", *initFile)
	}

	srv := server.New(coord, server.Config{AccessLog: os.Stderr})
	httpSrv := &http.Server{Addr: *addr, Handler: coord.Front(srv)}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("coordinating %d shard(s) on http://%s", len(shards), *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("received %s; draining", sig)
	case err := <-errCh:
		log.Fatalf("serve: %v", err)
	}
	srv.Drain(context.Background())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	coord.Close()
	fmt.Fprintln(os.Stderr, "msqlcoord: bye")
}

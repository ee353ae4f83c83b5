package main

// The system under test, started in-process the way the shipped binaries
// start it: msqld's defaults for a single server, msqlcoord's defaults
// over two msqld shards for the fleet. Everything listens on
// 127.0.0.1:0 and is reached through msql/client over loopback TCP.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"github.com/measures-sql/msql/internal/datagen"
	"github.com/measures-sql/msql/internal/dist"
	"github.com/measures-sql/msql/internal/server"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// listener is one HTTP endpoint whose handler can be swapped while it
// serves (msqld gates recovery the same way); the traced phase swaps in
// the span-recording wrapper.
type listener struct {
	url string
	// plain is the untraced handler; handler is the one being served.
	plain   http.Handler
	handler atomic.Pointer[http.Handler]
	srv     *http.Server
	done    chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), plain: h, done: make(chan error, 1)}
	l.handler.Store(&l.plain)
	l.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*l.handler.Load()).ServeHTTP(w, r)
	})}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close stops the endpoint and waits for its serve loop to exit.
func (l *listener) close() {
	_ = l.srv.Close() // the only failure is a listener already closed
	<-l.done
}

// node is one msqld: a DB, its server, and its endpoint.
type node struct {
	db  *msql.DB
	srv *server.Server
	ln  *listener
}

// fixture is one deployed workload.
type fixture struct {
	w     *workload
	nodes []*node
	coord *dist.Coordinator
	// front is the endpoint clients talk to: the single server's, or the
	// coordinator's.
	front *listener
	dir   string // durable data dir ("" when in-memory)

	clients    []*client.Client
	transports []*http.Transport
	stmts      [][]*client.Stmt // [client][tile]
}

// msqldDefaults applies the settings msqld ships with.
func msqldDefaults(db *msql.DB, rollups bool) {
	db.SetStrategy(msql.StrategyDefault)
	db.SetWorkers(0)
	db.SetLimits(msql.Limits{Timeout: 10 * time.Second})
	db.SetPlanCacheSize(128)
	if rollups {
		db.SetRollups(true)
	}
}

func startNode(db *msql.DB, shardID string) (*node, error) {
	// msqld writes its access log to stderr; io.Discard keeps the
	// rendering cost without the terminal.
	srv := server.New(db, server.Config{AccessLog: io.Discard, ShardID: shardID})
	ln, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &node{db: db, srv: srv, ln: ln}, nil
}

// openDB opens the workload's database: in memory, or on dir with
// wal-sync=always.
func openDB(dir string, rollups bool) (*msql.DB, error) {
	db := msql.Open()
	if dir != "" {
		var err error
		if db, err = msql.OpenDir(dir, msql.WithSyncPolicy(msql.SyncAlways)); err != nil {
			return nil, fmt.Errorf("open %s: %w", dir, err)
		}
	}
	msqldDefaults(db, rollups)
	return db, nil
}

// deploy generates the dataset, starts the servers, loads them through
// SQL scripts (msqld -f / msqlcoord -init), connects the clients and
// prepares the tiles. scratch is a directory for the durable store.
func deploy(ctx context.Context, w *workload, seed int64, orders int, scratch string) (fx *fixture, err error) {
	fx = &fixture{w: w}
	defer func() {
		if err != nil {
			fx.close()
			fx = nil
		}
	}()
	load := datagen.SetupSQL + dataset(seed, orders).InsertSQL() + viewSQL + ";\n"

	if w.fleet {
		var topology [][]string
		for i := 0; i < 2; i++ {
			db, err := openDB("", false)
			if err != nil {
				return fx, err
			}
			n, err := startNode(db, fmt.Sprintf("shard-%d", i))
			if err != nil {
				return fx, err
			}
			fx.nodes = append(fx.nodes, n)
			topology = append(topology, []string{n.ln.url})
		}
		// msqlcoord's flag defaults.
		fx.coord, err = dist.New(dist.Config{
			Shards:           topology,
			QueryTimeout:     30 * time.Second,
			Backoff:          client.Backoff{Attempts: 4},
			BreakerThreshold: 3,
			BreakerCooldown:  500 * time.Millisecond,
			HedgeDelay:       50 * time.Millisecond,
		})
		if err != nil {
			return fx, fmt.Errorf("coordinator: %w", err)
		}
		if err := fx.coord.Exec(ctx, load); err != nil {
			return fx, fmt.Errorf("load through coordinator: %w", err)
		}
		if fx.front, err = listen(fx.coord.Handler()); err != nil {
			return fx, err
		}
	} else {
		if w.durable {
			fx.dir = scratch
			if err := os.MkdirAll(fx.dir, 0o755); err != nil {
				return fx, err
			}
		}
		db, err := openDB(fx.dir, w.rollups)
		if err != nil {
			return fx, err
		}
		if err := db.Exec(load); err != nil {
			return fx, fmt.Errorf("load: %w", err)
		}
		n, err := startNode(db, "")
		if err != nil {
			return fx, err
		}
		fx.nodes = append(fx.nodes, n)
		fx.front = n.ln
	}

	for c := 0; c < numClients; c++ {
		// One connection per client: a closed-loop caller has at most one
		// request in flight.
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		cl := client.New(fx.front.url,
			client.WithHTTPClient(&http.Client{Transport: tr}),
			client.WithBackoff(client.Backoff{Seed: seed + int64(c) + 1}))
		fx.transports = append(fx.transports, tr)
		fx.clients = append(fx.clients, cl)
		if !w.tiles {
			continue
		}
		stmts := make([]*client.Stmt, len(tiles))
		for t := range tiles {
			// Both clients register the same names: msqld's registry is
			// per server, and a dashboard's tiles are shared.
			if stmts[t], err = cl.Prepare(ctx, tiles[t].name, tiles[t].sql); err != nil {
				return fx, fmt.Errorf("prepare %s: %w", tiles[t].name, err)
			}
		}
		fx.stmts = append(fx.stmts, stmts)
	}
	return fx, nil
}

// close drains and stops everything deploy started and removes the
// durable store. Safe on a partially built fixture.
func (fx *fixture) close() error {
	var errs []error
	for _, tr := range fx.transports {
		tr.CloseIdleConnections()
	}
	if fx.front != nil && fx.coord != nil {
		fx.front.close()
	}
	if fx.coord != nil {
		errs = append(errs, fx.coord.Close())
	}
	for _, n := range fx.nodes {
		n.srv.Drain(context.Background())
		n.ln.close()
		errs = append(errs, n.db.Close())
	}
	if fx.dir != "" {
		errs = append(errs, os.RemoveAll(fx.dir))
	}
	return errors.Join(errs...)
}

// restart closes the durable database, reopens its directory with the
// same settings and serves it on the existing endpoint, returning how
// long reopening took (msqld's "recovered ... in" interval).
func (fx *fixture) restart() (time.Duration, error) {
	n := fx.nodes[0]
	n.srv.Drain(context.Background())
	if err := n.db.Sync(); err != nil {
		return 0, fmt.Errorf("wal sync: %w", err)
	}
	if err := n.db.Close(); err != nil {
		return 0, fmt.Errorf("wal close: %w", err)
	}
	start := time.Now()
	db, err := openDB(fx.dir, fx.w.rollups)
	if err != nil {
		return 0, err
	}
	took := time.Since(start)
	n.db = db
	n.srv = server.New(db, server.Config{AccessLog: io.Discard})
	n.ln.plain = n.srv.Handler()
	n.ln.handler.Store(&n.ln.plain)
	return took, nil
}

// Package server is the fault-tolerant query front end over a statement
// Runner — an msql.DB (msqld) or a dist.Coordinator (msqlcoord): it adds
// what the embedded engine deliberately leaves out —
// admission control, overload shedding, per-request deadline policy,
// panic isolation, health endpoints, and graceful drain — so the
// paper's "measures as a service surface" (§5.5: a view with measures
// is a hologram many consumers query) survives concurrent, bursty, and
// hostile load instead of collapsing.
//
// The robustness contract:
//
//   - At most Config.MaxInflight statements execute concurrently; at
//     most Config.MaxQueue more wait. Anything beyond that is shed
//     immediately with HTTP 429 + Retry-After — the server never queues
//     unboundedly and never blocks a client forever.
//   - A queued request waits at most Config.QueueWait before it is shed.
//   - Client-supplied deadlines are clamped to Config.MaxTimeout; with
//     no client deadline the session's exec.Limits.Timeout applies.
//   - Every request terminates with exactly one taxonomy code: the
//     response is either rows or one wire.Error whose code is a stable
//     msql.Error code.
//   - A panic in a handler (or the engine) is isolated to that request:
//     the client gets RUNTIME/500, the server keeps serving.
//   - Drain stops admission (readyz → 503, new queries → 503), waits
//     for inflight work under the drain deadline, then cancels the
//     stragglers through ExecContext and waits for them — no query
//     runs past Drain's return.
package server

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/msql"
)

// Config tunes the server's admission and drain policy. The zero value
// gets serviceable defaults from withDefaults.
type Config struct {
	// MaxInflight caps concurrently executing statements (default 8).
	MaxInflight int
	// MaxQueue caps requests waiting for an execution slot beyond
	// MaxInflight (default 2×MaxInflight). Requests beyond the queue
	// are shed with 429.
	MaxQueue int
	// QueueWait caps how long an admitted-to-queue request waits for an
	// execution slot before being shed (default 1s).
	QueueWait time.Duration
	// MaxTimeout clamps client-supplied per-request timeouts
	// (default 30s). Client requests without a timeout inherit the
	// session's exec.Limits.Timeout.
	MaxTimeout time.Duration
	// DrainTimeout bounds how long Drain waits for inflight statements
	// to finish voluntarily before canceling them (default 5s).
	DrainTimeout time.Duration
	// RetryAfter is the hint sent with 429/503 responses (default 1s;
	// rendered in whole seconds, minimum 1).
	RetryAfter time.Duration
	// AccessLog, when non-nil, receives one structured JSON line per
	// statement-executing request (path, request ID, status, taxonomy
	// code, duration). msqld points it at stderr.
	AccessLog io.Writer
	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof/ on the server's own mux (never the default mux).
	EnablePprof bool
	// ShardID names this node's slot in a sharded topology (e.g.
	// "shard-2"). Exposed through GET /catalog so a coordinator can
	// verify it attached the endpoint it meant to; empty for standalone
	// servers.
	ShardID string
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxInflight
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Runner is the statement backend a Server fronts: an embedded session
// (*msql.DB, under msqld) or a coordinator over a sharded fleet
// (*dist.Coordinator, under msqlcoord).
type Runner interface {
	// RunContext executes a script and returns one result per statement.
	RunContext(ctx context.Context, sql string, opts ...msql.Option) ([]*msql.Result, error)
	// CatalogVersion is what a request's expected catalog version is
	// compared with.
	CatalogVersion() int64
	Metrics() msql.MetricsSnapshot
	RegisterServerMetrics(fn func() msql.ServerCounters)
}

// Server serves statements over one Runner. Create with New, expose
// with Handler, stop with Drain.
type Server struct {
	db Runner
	// node is db when it is an embedded session; the prepared-statement,
	// shard-facing and introspection endpoints exist only over one.
	node *msql.DB
	cfg  Config

	// sem holds one token per executing statement (capacity MaxInflight).
	sem chan struct{}
	// queued counts requests waiting on sem, bounded by MaxQueue.
	queued   atomic.Int64
	inflight atomic.Int64

	// drainCh closes when drain starts, waking queued waiters into 503.
	drainCh  chan struct{}
	draining atomic.Bool
	// drainMu orders registration against drain: register holds the
	// read side around the draining check + wg.Add, Drain holds the
	// write side while setting draining — so no statement can slip into
	// wg after Drain has started waiting on it.
	drainMu sync.RWMutex
	// killCtx cancels at the drain deadline; every admitted statement's
	// context is parented on it, so stragglers stop cooperatively.
	killCtx context.Context
	kill    context.CancelFunc
	// wg tracks admitted statements; Drain waits on it.
	wg        sync.WaitGroup
	drainOnce sync.Once

	// reqSeq numbers server-generated request IDs; logMu serializes
	// access-log writes.
	reqSeq atomic.Int64
	logMu  sync.Mutex

	counters counters
}

// counters are the server's cumulative metrics (see msql.ServerCounters
// for the published shape).
type counters struct {
	accepted    atomic.Int64
	admitted    atomic.Int64
	shed        atomic.Int64
	rejected    atomic.Int64
	drained     atomic.Int64
	drainKilled atomic.Int64
	panics      atomic.Int64
	drainNs     atomic.Int64
	// byCode counts finished requests per taxonomy code (index =
	// exec.Code); byCode[0] counts successes.
	byCode [9]atomic.Int64
}

// New creates a Server over db and registers its counters with the
// db's metrics registry, so msql.Metrics() (and the /metrics endpoints)
// report engine and server state together.
func New(db Runner, cfg Config) *Server {
	cfg = cfg.withDefaults()
	node, _ := db.(*msql.DB)
	s := &Server{
		db:      db,
		node:    node,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInflight),
		drainCh: make(chan struct{}),
	}
	s.killCtx, s.kill = context.WithCancel(context.Background())
	db.RegisterServerMetrics(s.Counters)
	return s
}

// Counters returns a point-in-time copy of the server's counters.
func (s *Server) Counters() msql.ServerCounters {
	return msql.ServerCounters{
		Inflight:    s.inflight.Load(),
		Queued:      s.queued.Load(),
		Accepted:    s.counters.accepted.Load(),
		Admitted:    s.counters.admitted.Load(),
		Shed:        s.counters.shed.Load(),
		Rejected:    s.counters.rejected.Load(),
		Drained:     s.counters.drained.Load(),
		DrainKilled: s.counters.drainKilled.Load(),
		Panics:      s.counters.panics.Load(),
		DrainNs:     s.counters.drainNs.Load(),
	}
}

// admission is the outcome of one pass through admission control.
type admission int

const (
	admitted admission = iota
	shedQueueFull
	shedQueueWait
	rejectedDraining
	abandonedByClient
)

// admit applies admission control for one request. On admitted, the
// caller owns an execution slot and must call s.release() when the
// statement finishes.
func (s *Server) admit(ctx context.Context) admission {
	if s.draining.Load() {
		s.counters.rejected.Add(1)
		return rejectedDraining
	}
	// Fast path: an execution slot is free.
	select {
	case s.sem <- struct{}{}:
		return s.register()
	default:
	}
	// Claim a bounded queue slot or shed immediately.
	for {
		q := s.queued.Load()
		if q >= int64(s.cfg.MaxQueue) {
			s.counters.shed.Add(1)
			return shedQueueFull
		}
		if s.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return s.register()
	case <-timer.C:
		s.counters.shed.Add(1)
		return shedQueueWait
	case <-ctx.Done():
		return abandonedByClient
	case <-s.drainCh:
		s.counters.rejected.Add(1)
		return rejectedDraining
	}
}

// register enrolls a statement that holds an execution slot into the
// drain group, unless drain has started — in which case the slot goes
// back and the request is rejected. The read lock pairs with Drain's
// write lock: a successful wg.Add strictly precedes Drain's wg.Wait.
func (s *Server) register() admission {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		<-s.sem
		s.counters.rejected.Add(1)
		return rejectedDraining
	}
	s.counters.admitted.Add(1)
	s.inflight.Add(1)
	s.wg.Add(1)
	return admitted
}

// release returns the execution slot claimed by a successful admit.
func (s *Server) release() {
	s.inflight.Add(-1)
	<-s.sem
	s.wg.Done()
}

// outcome records the terminal taxonomy code of one request; code 0
// (CodeUnknown) counts successes. Every request — admitted, shed,
// rejected, or abandoned — ends in exactly one outcome call.
func (s *Server) outcome(code exec.Code) {
	if c := int(code); c >= 0 && c < len(s.counters.byCode) {
		s.counters.byCode[c].Add(1)
	}
}

// OutcomeCount returns how many requests terminated with code (code 0
// counts successes); test hook for the one-code-per-request invariant.
func (s *Server) OutcomeCount(code exec.Code) int64 {
	if c := int(code); c >= 0 && c < len(s.counters.byCode) {
		return s.counters.byCode[c].Load()
	}
	return 0
}

// Draining reports whether the server has stopped admitting requests.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully stops the server: no new statements are admitted
// (readyz and /query answer 503), inflight statements get up to
// Config.DrainTimeout (or ctx's earlier deadline) to finish, and the
// remainder are canceled through their contexts and awaited. When Drain
// returns, no statement is running. Safe to call more than once; later
// calls wait for the first to finish.
func (s *Server) Drain(ctx context.Context) {
	s.drainOnce.Do(func() {
		start := time.Now()
		s.drainMu.Lock()
		s.draining.Store(true)
		s.drainMu.Unlock()
		close(s.drainCh)

		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		budget := time.NewTimer(s.cfg.DrainTimeout)
		defer budget.Stop()
		select {
		case <-done:
		case <-budget.C:
			s.kill()
			<-done // cancellation is cooperative and prompt
		case <-ctx.Done():
			s.kill()
			<-done
		}
		s.kill() // release the kill context either way
		s.counters.drainNs.Store(int64(time.Since(start)))
	})
	// Later callers (or the first) all observe a fully drained server.
	s.wg.Wait()
}

// Package dist is the fault-tolerant distributed coordinator: it
// hash-partitions tables across N msqld shard processes and executes
// measure queries scatter-gather over the existing wire protocol.
//
// Execution picks the cheapest of four paths per query, every one of
// which is bit-identical to running the same statements on a single
// node. The coordinator plans each statement once, through its local
// plan cache, and reads the path off that plan:
//
//   - local: queries touching no sharded table run on the coordinator's
//     own session, on that plan (msql_stats.* introspection, constants).
//   - routed: a query every scan of which sits under a filter pinning
//     the partition column to a literal, every pin naming one shard,
//     runs whole on that shard, which answers with its rows.
//   - scatter: a mergeable aggregation over one filtered scan
//     (exec.PartialShape) runs on every shard, which folds each group's
//     partial states and the MIN of its rows' global insertion
//     sequence; the per-shard partial states merge exactly into the
//     coordinator's plan, which then finishes it. Only aggregates
//     whose two-phase merge is provably exact are scattered —
//     everything else falls through.
//   - gather: any other query reads the sharded tables' rows, with
//     their global insertion sequence, from every shard, orders them by
//     it, and runs the coordinator's own plan of the statement over
//     them in place of its (empty) local tables. Slow but always
//     available and always exact.
//
// The sequence is catalog.SequenceColumn, a system column every shard's
// tables hold and `*` never expands: a shard's schema binds every
// statement and view as the user's schema does, and only a read that
// names the column sees it.
//
// Rows (routed, gather) and partial tables (scatter) cross from a shard
// as one binary frame in reply to the same shard read — the statement's
// shape, its parameters and the catalog version it was planned at — so
// every value keeps its kind exactly and every shape plans once per
// shard.
//
// The robustness contract: every query either returns a complete
// result, transparently retries/hedges/fails over to finish anyway, or
// fails with a structured *ShardUnavailableError naming the shards
// lost. A silently partial result is never returned. Per-endpoint
// circuit breakers (closed/open/half-open) stop hammering dead shards;
// a restarted (empty) shard is detected by its catalog version and
// repaired by replaying the coordinator's per-shard mutation log. Every
// entry of that log is the record a single node logs in its WAL for the
// mutation (wal.Record), which a shard applies with the engine's own
// apply (mutate.go).
package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/measures-sql/msql/internal/exec"
	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
	"github.com/measures-sql/msql/msql/client"
)

// Config describes a topology and its failure policy. The zero value of
// every field except Shards gets a serviceable default.
type Config struct {
	// Shards lists each shard's endpoint URLs, primary first; later
	// entries are replicas that must receive the same mutations (the
	// coordinator replicates to all endpoints of a shard).
	Shards [][]string
	// PartitionCols overrides the partition column per table (keys are
	// case-insensitive table names). Default: the table's first column.
	PartitionCols map[string]string
	// QueryTimeout bounds each distributed statement (default 30s);
	// per-shard calls inherit the remaining budget as their deadline.
	QueryTimeout time.Duration
	// Backoff is the transport retry policy handed to each shard
	// client (zero value: the client's defaults).
	Backoff client.Backoff
	// BreakerThreshold is the consecutive-failure count that opens an
	// endpoint's circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds calls before
	// admitting a half-open probe (default 500ms).
	BreakerCooldown time.Duration
	// HedgeDelay seeds the hedging delay before an endpoint has latency
	// history; with history the delay is the endpoint's observed p99
	// (default 50ms).
	HedgeDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 50 * time.Millisecond
	}
	return c
}

// tableMeta is the coordinator's record of one sharded table: what
// routing reads. Its columns are the local mirror's, which prepares and
// coerces the table's INSERT rows.
type tableMeta struct {
	name  string        // as created
	pcol  int           // partition column index
	pkind sqltypes.Kind // the partition column's kind
}

// endpoint is one URL of a shard plus everything needed to call it
// safely: a retrying client, a circuit breaker, the applied-mutation
// cursor (== the catalog version we believe it is at), and a latency
// ring for the p99 hedge delay.
type endpoint struct {
	url string
	cli *client.Client
	tr  *http.Transport // owned, so Close can drop idle connections
	br  breaker

	mu      sync.Mutex // guards applied and serializes log replay
	applied int        // log entries applied; catalog version = applied

	lat    latRing
	hedges atomic.Int64 // hedged requests sent to this endpoint
}

// version returns the catalog version this endpoint should be at.
func (ep *endpoint) version() int64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return int64(ep.applied)
}

// shard is one partition of every sharded table: a replay log (log.go)
// and the endpoints (primary + replicas) that replicate it.
type shard struct {
	idx       int
	endpoints []*endpoint
	log       replayLog
}

// Coordinator executes statements across a sharded msqld topology. It
// is safe for concurrent queries; mutations serialize among themselves
// like a single msql.DB session.
type Coordinator struct {
	cfg    Config
	shards []*shard

	// local mirrors the schema and stays empty of rows: it checks DDL
	// and makes its records, prepares and coerces every INSERT's rows, plans every query once,
	// for its path and to finish it, answers queries that touch no
	// sharded table, and hosts the msql_stats.shards virtual table and
	// shard metrics.
	local *msql.DB

	// catalog state. mu guards tables/seq; mutations additionally
	// serialize on mutMu for the whole broadcast.
	mu     sync.Mutex
	mutMu  sync.Mutex
	tables map[string]*tableMeta // key: lower(name)
	seq    int64                 // next global insertion sequence

	reqSeq  atomic.Int64
	metrics counters

	traceMu sync.Mutex
	tracer  msql.TraceHook
}

// New builds a coordinator over cfg.Shards. Shard endpoints are
// expected to start empty (catalog version 0) or to hold a durable
// prefix of this coordinator's mutation log; anything else is reported
// as divergence when first touched.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("dist: at least one shard is required")
	}
	c := &Coordinator{
		cfg:    cfg,
		local:  msql.Open(),
		tables: map[string]*tableMeta{},
	}
	for i, urls := range cfg.Shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("dist: shard %d has no endpoints", i)
		}
		sh := &shard{idx: i}
		for _, u := range urls {
			tr := &http.Transport{}
			ep := &endpoint{url: u, tr: tr, cli: client.New(u,
				client.WithBackoff(cfg.Backoff),
				client.WithHTTPClient(&http.Client{Transport: tr}))}
			ep.br.threshold = cfg.BreakerThreshold
			ep.br.cooldown = cfg.BreakerCooldown
			ep.br.onOpen = func() { c.metrics.breakerOpens.Add(1) }
			sh.endpoints = append(sh.endpoints, ep)
		}
		c.shards = append(c.shards, sh)
	}
	c.local.RegisterShardMetrics(c.shardCounters)
	if err := c.registerShardsTable(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close releases the coordinator's local session and drops idle shard
// connections. Shard processes are not touched.
func (c *Coordinator) Close() error {
	for _, sh := range c.shards {
		for _, ep := range sh.endpoints {
			ep.tr.CloseIdleConnections()
		}
	}
	return c.local.Close()
}

// Local exposes the coordinator's local session (schema mirror,
// msql_stats.shards, shard metrics) for introspection surfaces.
func (c *Coordinator) Local() *msql.DB { return c.local }

// SetTrace installs a hook receiving coordinator spans (shard calls
// carry shard=, endpoint=, attempt=, and request_id= attributes) in
// addition to the local session's own lifecycle spans.
func (c *Coordinator) SetTrace(t msql.TraceHook) {
	c.traceMu.Lock()
	c.tracer = t
	c.traceMu.Unlock()
	c.local.SetTrace(t)
}

func (c *Coordinator) span(s exec.Span) {
	c.traceMu.Lock()
	t := c.tracer
	c.traceMu.Unlock()
	if t != nil {
		t.Span(s)
	}
}

func (c *Coordinator) newRequestID() string {
	return fmt.Sprintf("coord-%d-%d", time.Now().UnixNano(), c.reqSeq.Add(1))
}

// meta returns the sharded-table record for name, if any.
func (c *Coordinator) meta(name string) (*tableMeta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[lower(name)]
	return t, ok
}

// latRing records recent call latencies for the p99 hedge delay.
type latRing struct {
	mu   sync.Mutex
	buf  [128]time.Duration
	n    int // valid entries
	next int
}

func (r *latRing) record(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// p99 returns the 99th-percentile recorded latency, or 0 with fewer
// than 8 samples (not enough signal to beat the configured default).
func (r *latRing) p99() time.Duration {
	r.mu.Lock()
	n := r.n
	tmp := make([]time.Duration, n)
	copy(tmp, r.buf[:n])
	r.mu.Unlock()
	if n < 8 {
		return 0
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return tmp[(n*99)/100]
}

// hedgeDelay picks the delay before hedging away from ep: its observed
// p99, or the configured default before there is history.
func (c *Coordinator) hedgeDelay(ep *endpoint) time.Duration {
	if d := ep.lat.p99(); d > 0 {
		return d
	}
	return c.cfg.HedgeDelay
}

// callShard runs op against sh with the full failure envelope: breaker
// gating, failover across endpoints in order, and hedging to the next
// endpoint after the p99 delay. It returns the first answer: a success,
// or a statementError, which is the statement's and not the endpoint's
// (see asStatementError). If every endpoint fails (or is shed by its
// breaker) the error reports the shard as unavailable.
func callShard[T any](ctx context.Context, c *Coordinator, sh *shard, name, reqID string, op func(context.Context, *endpoint) (T, error)) (T, error) {
	var zero T
	var lastErr error
	var attempts atomic.Int64
	run := func(cctx context.Context, ep *endpoint) (T, error) {
		if attempts.Add(1) > 1 {
			c.metrics.retries.Add(1)
		}
		start := time.Now()
		v, err := op(cctx, ep)
		dur := time.Since(start)
		c.span(exec.Span{Phase: "shard", Name: name, DurNs: int64(dur), Attrs: map[string]string{
			"shard":      fmt.Sprintf("%d", sh.idx),
			"endpoint":   ep.url,
			"attempt":    fmt.Sprintf("%d", attempts.Load()),
			"request_id": reqID,
			"ok":         fmt.Sprintf("%t", err == nil),
		}})
		var se *statementError
		switch {
		case err == nil || errors.As(err, &se):
			ep.lat.record(dur)
			ep.br.Success()
		case cctx.Err() != nil && ctx.Err() == nil:
			// Canceled because it lost a hedge race, not because the
			// endpoint failed: no breaker penalty.
		default:
			ep.br.Failure(err)
		}
		return v, err
	}

	eps := make([]*endpoint, 0, len(sh.endpoints))
	for _, ep := range sh.endpoints {
		if ep.br.Allow() {
			eps = append(eps, ep)
		}
	}
	if len(eps) == 0 {
		return zero, fmt.Errorf("shard %d: all %d endpoints have open circuit breakers", sh.idx, len(sh.endpoints))
	}
	for i := 0; i < len(eps); i++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if i > 0 {
			c.metrics.failovers.Add(1)
		}
		ep := eps[i]
		if i+1 < len(eps) {
			// Race the next endpoint after the hedge delay: a lagging
			// (but alive) primary no longer holds the whole query's tail
			// latency hostage.
			next := eps[i+1]
			a, out, err := client.Hedge(ctx, c.hedgeDelay(ep),
				func(hctx context.Context) (answer[T], error) { return answered(run(hctx, ep)) },
				func(hctx context.Context) (answer[T], error) {
					c.metrics.hedges.Add(1)
					next.hedges.Add(1)
					return answered(run(hctx, next))
				})
			if err == nil {
				if out.Winner == 1 {
					c.metrics.failovers.Add(1)
				}
				return a.v, a.err
			}
			lastErr = err
			if out.Hedged {
				i++ // the hedge consumed the next endpoint too
			}
			continue
		}
		a, err := answered(run(ctx, ep))
		if err == nil {
			return a.v, a.err
		}
		lastErr = err
	}
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	return zero, fmt.Errorf("shard %d: all endpoints failed: %w", sh.idx, lastErr)
}

// answer is what an endpoint answered a statement: a value, or the
// statementError that is the statement's answer.
type answer[T any] struct {
	v   T
	err error
}

// answered turns an endpoint call's result into an answer; err is left
// only for a fault of the endpoint.
func answered[T any](v T, err error) (answer[T], error) {
	var se *statementError
	if errors.As(err, &se) {
		return answer[T]{err: err}, nil
	}
	return answer[T]{v: v}, err
}

func lower(s string) string {
	b := []byte(s)
	for i, ch := range b {
		if 'A' <= ch && ch <= 'Z' {
			b[i] = ch + ('a' - 'A')
		}
	}
	return string(b)
}

package dist

import (
	"sync/atomic"

	"github.com/measures-sql/msql/internal/sqltypes"
	"github.com/measures-sql/msql/msql"
)

// counters is the coordinator's failure-envelope instrumentation; it
// feeds msql.Metrics() (and therefore the Prometheus exposition) via
// RegisterShardMetrics on the local session.
type counters struct {
	scatters     atomic.Int64
	retries      atomic.Int64
	hedges       atomic.Int64
	failovers    atomic.Int64
	breakerOpens atomic.Int64
	shardErrors  atomic.Int64
}

// shardCounters snapshots the counters plus the live topology state.
func (c *Coordinator) shardCounters() msql.ShardCounters {
	var open int64
	for _, sh := range c.shards {
		for _, ep := range sh.endpoints {
			if st, _, _ := ep.br.snapshot(); st == breakerOpen {
				open++
			}
		}
	}
	return msql.ShardCounters{
		Scatters:     c.metrics.scatters.Load(),
		Retries:      c.metrics.retries.Load(),
		Hedges:       c.metrics.hedges.Load(),
		Failovers:    c.metrics.failovers.Load(),
		BreakerOpens: c.metrics.breakerOpens.Load(),
		ShardErrors:  c.metrics.shardErrors.Load(),
		ShardsTotal:  int64(len(c.shards)),
		BreakersOpen: open,
	}
}

// registerShardsTable publishes per-endpoint health as the
// msql_stats.shards virtual table on the coordinator's local session:
// one row per endpoint with its role, breaker state, consecutive
// failures, replication lag, hedge count, and last error.
func (c *Coordinator) registerShardsTable() error {
	intT := sqltypes.Type{Kind: sqltypes.KindInt}
	strT := sqltypes.Type{Kind: sqltypes.KindString}
	cols := []string{"shard", "endpoint", "role", "breaker", "consecutive_failures", "applied", "pending", "hedges", "last_error"}
	types := []msql.Type{intT, strT, strT, strT, intT, intT, intT, intT, strT}
	return c.local.RegisterVirtualTable("msql_stats.shards", cols, types, func() [][]msql.Value {
		var rows [][]msql.Value
		for _, sh := range c.shards {
			n := sh.log.len()
			for i, ep := range sh.endpoints {
				role := "primary"
				if i > 0 {
					role = "replica"
				}
				st, fails, lastErr := ep.br.snapshot()
				applied := int(ep.version())
				pending := n - applied
				if pending < 0 {
					pending = 0
				}
				rows = append(rows, []msql.Value{
					sqltypes.NewInt(int64(sh.idx)),
					sqltypes.NewString(ep.url),
					sqltypes.NewString(role),
					sqltypes.NewString(st.String()),
					sqltypes.NewInt(int64(fails)),
					sqltypes.NewInt(int64(applied)),
					sqltypes.NewInt(int64(pending)),
					sqltypes.NewInt(ep.hedges.Load()),
					sqltypes.NewString(lastErr),
				})
			}
		}
		return rows
	})
}
